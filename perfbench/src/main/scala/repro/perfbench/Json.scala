package repro.perfbench

/** Minimal JSON rendering for the harness's raw-result file: maps,
  * sequences, numbers, strings, booleans and options. Non-finite doubles
  * become null so the file always parses.
  */
object Json {

  def render(v: Any): String = {
    val sb = new StringBuilder
    write(sb, v)
    sb.result()
  }

  private def write(sb: StringBuilder, v: Any): Unit = v match {
    case null | None => sb ++= "null"
    case Some(x) => write(sb, x)
    case b: Boolean => sb ++= b.toString
    case d: Double => sb ++= (if (d.isNaN || d.isInfinite) "null" else d.toString)
    case n: Int => sb ++= n.toString
    case n: Long => sb ++= n.toString
    case s: String => quote(sb, s)
    case m: collection.Map[_, _] =>
      sb += '{'
      var first = true
      m.foreach { case (k, x) =>
        if (!first) sb += ','
        first = false
        quote(sb, k.toString); sb += ':'; write(sb, x)
      }
      sb += '}'
    case xs: Iterable[_] =>
      sb += '['
      var first = true
      xs.foreach { x => if (!first) sb += ','; first = false; write(sb, x) }
      sb += ']'
    case other => throw new IllegalArgumentException(s"no JSON form for ${other.getClass}")
  }

  private def quote(sb: StringBuilder, s: String): Unit = {
    sb += '"'
    s.foreach {
      case '"' => sb ++= "\\\""
      case '\\' => sb ++= "\\\\"
      case '\n' => sb ++= "\\n"
      case '\r' => sb ++= "\\r"
      case '\t' => sb ++= "\\t"
      case c if c < ' ' => sb ++= f"\\u${c.toInt}%04x"
      case c => sb += c
    }
    sb += '"'
  }
}
