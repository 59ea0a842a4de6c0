package repro.core

/** The digest the pinned-tree tests compare: the first 12 bytes of the
  * SHA-256 of a stream of 64-bit words, each as 8 big-endian bytes, in hex. */
object Digest {
  def of(words: Iterator[Long]): String = {
    val md = java.security.MessageDigest.getInstance("SHA-256")
    val buf = java.nio.ByteBuffer.allocate(8)
    words.foreach { w => buf.clear(); buf.putLong(w); md.update(buf.array()) }
    md.digest().take(12).map(b => f"$b%02x").mkString
  }
}
