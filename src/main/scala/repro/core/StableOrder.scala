package repro.core

/** Stable argsorts on primitive index arrays, so no index is boxed, and the
  * binary search for a bound in a sorted array. */
object StableOrder {

  /** 0 until n in the order of `cmp`, equal elements in ascending order: a
    * natural merge sort, so input that is already a few ascending runs (the
    * concatenation of sorted streams) takes a few merge passes. */
  def apply(n: Int, cmp: (Int, Int) => Int): Array[Int] = {
    var src = Array.range(0, n)
    var dst = new Array[Int](n)
    // run r is src(starts(r) until starts(r + 1)), ascending
    val starts = new Array[Int](n + 1)
    var runs = 0
    var i = 0
    while (i < n) {
      if (i == 0 || cmp(i - 1, i) > 0) { starts(runs) = i; runs += 1 }
      i += 1
    }
    starts(runs) = n
    while (runs > 1) {
      // merge runs 2j and 2j + 1 into run j, ties taken from the left
      var r = 0
      var merged = 0
      while (r < runs) {
        val lo = starts(r)
        val mid = starts(math.min(r + 1, runs))
        val hi = starts(math.min(r + 2, runs))
        var a = lo; var b = mid; var o = lo
        while (o < hi) {
          if (b == hi || (a < mid && cmp(src(a), src(b)) <= 0)) { dst(o) = src(a); a += 1 }
          else { dst(o) = src(b); b += 1 }
          o += 1
        }
        starts(merged) = lo
        merged += 1
        r += 2
      }
      starts(merged) = n
      runs = merged
      val t = src; src = dst; dst = t
    }
    src
  }

  /** The positions of `values` ascending under `java.lang.Double.compare`,
    * equal values in position order: the order of
    * `values.indices.sortBy(values(_))`. */
  def of(values: Array[Double]): Array[Int] =
    apply(values.length, (i, j) => java.lang.Double.compare(values(i), values(j)))

  /** The first index of the ascending `a` whose value is ≥ x (`upper`
    * false) or > x (`upper` true), or a.length if there is none. It
    * compares with the primitive `<` and `==`, so -0.0 equals 0.0 and a
    * NaN x gives 0. */
  def bound(a: Array[Double], x: Double, upper: Boolean): Int = {
    var lo = 0
    var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < x || (upper && a(mid) == x)) lo = mid + 1 else hi = mid
    }
    lo
  }
}
