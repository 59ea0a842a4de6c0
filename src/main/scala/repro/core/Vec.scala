package repro.core

/** Primitive dense-vector operations on `Array[Double]`.
  *
  * Hot path for every algorithm in the repo (index build, candidate
  * verification, ground truth), so these are plain while-loops with no
  * allocation.
  */
object Vec {

  /** Dot product a·b. Arrays must have equal length. */
  def dot(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { s += a(i) * b(i); i += 1 }
    s
  }

  /** Squared Euclidean distance ||a − b||²: the row of `b` at offset 0. */
  def sqDist(a: Array[Double], b: Array[Double]): Double = sqDist(a, b, 0)

  /** Euclidean distance ||a − b||. */
  def dist(a: Array[Double], b: Array[Double]): Double = math.sqrt(sqDist(a, b))

  /** ||a − row||² for the row of `a.length` values starting at `flat(off)`,
    * its terms summed in index order: the one distance loop of the system. */
  def sqDist(a: Array[Double], flat: Array[Double], off: Int): Double = {
    var s = 0.0; var i = 0
    while (i < a.length) { val d = a(i) - flat(off + i); s += d * d; i += 1 }
    s
  }

  /** ||a − row||² for four rows of `a.length` values of `flat`, starting at
    * o0, o1, o2 and o3, written to out(at until at + 4). Each row's terms
    * are summed in index order, as `sqDist(a, flat, o)` sums them, so each
    * result equals that call's bit for bit. The four sums do not wait on
    * each other, so their adds and their rows' loads overlap, where one
    * row's chain `s += d·d` waits on every add and every cache miss. */
  def sqDist4(a: Array[Double], flat: Array[Double], o0: Int, o1: Int, o2: Int, o3: Int,
              out: Array[Double], at: Int): Unit = {
    var s0, s1, s2, s3 = 0.0
    var i = 0
    while (i < a.length) {
      val x = a(i)
      val d0 = x - flat(o0 + i); val d1 = x - flat(o1 + i)
      val d2 = x - flat(o2 + i); val d3 = x - flat(o3 + i)
      s0 += d0 * d0; s1 += d1 * d1; s2 += d2 * d2; s3 += d3 * d3
      i += 1
    }
    out(at) = s0; out(at + 1) = s1; out(at + 2) = s2; out(at + 3) = s3
  }

  /** ||a − row|| for the row of `a.length` values starting at `flat(off)`. */
  def dist(a: Array[Double], flat: Array[Double], off: Int): Double = math.sqrt(sqDist(a, flat, off))

  /** Rejects query rows with a NaN or ∞ entry, naming the query: its
    * coordinates, or (`what` = "projection") its projections or hash
    * values, into which a finite query with huge coordinates can overflow.
    * Such a query fails every `dist ≤ r` and window test, so a loop that
    * grows r until enough points fall inside would never end. */
  def requireFinite(rows: Array[Array[Double]], what: String = "coordinate"): Unit =
    rows.indices.foreach { i =>
      require(rows(i).forall(java.lang.Double.isFinite), s"query $i has a non-finite $what")
    }

  /** Element-wise mean of a non-empty collection of vectors. */
  def mean(vs: Iterable[Array[Double]]): Array[Double] = {
    require(vs.nonEmpty, "mean of empty vector set")
    val d = vs.head.length
    val r = new Array[Double](d)
    vs.foreach { v => var i = 0; while (i < d) { r(i) += v(i); i += 1 } }
    var i = 0; while (i < d) { r(i) /= vs.size; i += 1 }
    r
  }
}
