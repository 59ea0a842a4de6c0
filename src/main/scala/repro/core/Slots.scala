package repro.core

import java.util.Arrays

/** The points of one partition index in flat arrays addressed by slot:
  * slot s holds id `ids(s)`, projected coordinates `proj(s·m until s·m + m)`
  * and original vector `vecs(s·d until s·d + d)`. The trees keep slots in
  * their leaves; a tree computes its leaf order from the projections alone
  * and then fills its payload once, in that order, so the points of one
  * leaf sit next to each other.
  */
final class Slots(val ids: Array[Long], val proj: Array[Double], val vecs: Array[Double],
                  val m: Int, val d: Int) extends Serializable {

  def size: Int = ids.length

  /** A copy of slot s's projected coordinates. */
  def projRow(s: Int): Array[Double] = Arrays.copyOfRange(proj, s * m, s * m + m)

  /** Slot s as an `IndexedPoint` (both rows copied). */
  def point(s: Int): IndexedPoint =
    IndexedPoint(ids(s), projRow(s), Arrays.copyOfRange(vecs, s * d, s * d + d))

  /** ||q − slot s's original vector|| for the first `size` of `slots`, in
    * that order. Four slots at a time go through `Vec.sqDist4`, so every
    * distance equals `Vec.dist(q, vecs, s·d)` bit for bit. */
  def dists(q: Array[Double], slots: Array[Int], size: Int): Array[Double] = {
    val out = new Array[Double](size)
    var i = 0
    while (i + 4 <= size) {
      Vec.sqDist4(q, vecs, slots(i) * d, slots(i + 1) * d, slots(i + 2) * d, slots(i + 3) * d, out, i)
      i += 4
    }
    while (i < size) { out(i) = Vec.sqDist(q, vecs, slots(i) * d); i += 1 }
    i = 0
    while (i < size) { out(i) = math.sqrt(out(i)); i += 1 }
    out
  }

  /** The first `size` of `slots` verified against the original-space query
    * q (`dists`), in that order, and summarized by `TopK.of`. */
  def verify(q: Array[Double], slots: Array[Int], size: Int, k: Int, cr: Double): TopK = {
    val out = new Array[Long](size)
    var i = 0
    while (i < size) { out(i) = ids(slots(i)); i += 1 }
    TopK.of(out, dists(q, slots, size), k, cr)
  }
}

object Slots {

  /** The payload of an index over `points`, whose projected coordinates are
    * `proj`, m per point in `points` order: slot s holds point `order(s)`,
    * and each vector is copied once, straight from its row. Callers check
    * every vector (d finite coordinates) before they project it. */
  def of(points: Array[Point], proj: Array[Double], m: Int, order: Array[Int]): Slots = {
    val n = order.length
    val d = if (n == 0) 0 else points(0).vec.length
    require(n.toLong * math.max(m, d) <= Int.MaxValue, s"$n points of dimension ${math.max(m, d)} overflow one array")
    val ids = new Array[Long](n)
    val vecs = new Array[Double](n * d)
    var s = 0
    while (s < n) {
      val p = points(order(s))
      ids(s) = p.id
      System.arraycopy(p.vec, 0, vecs, s * d, d)
      s += 1
    }
    new Slots(ids, gather(proj, m, order), vecs, m, d)
  }

  /** `points` in input order, without projections (m = 0). */
  def of(points: Array[Point]): Slots = of(points, Array.emptyDoubleArray, 0, Array.range(0, points.length))

  /** `row`, or, if it has the wrong length or a NaN/∞ entry, an
    * IllegalArgumentException naming the point. */
  def requireRow(id: Long, what: String, row: Array[Double], len: Int): Array[Double] = {
    require(row.length == len, s"point $id: $what has ${row.length} coordinates, expected $len")
    var i = 0
    while (i < len && java.lang.Double.isFinite(row(i))) i += 1
    require(i == len, s"point $id: $what has a non-finite coordinate")
    row
  }

  /** The rows of `width` values of `a`, in `order`. */
  private[core] def gather(a: Array[Double], width: Int, order: Array[Int]): Array[Double] = {
    val out = new Array[Double](order.length * width)
    var i = 0
    while (i < order.length) { System.arraycopy(a, order(i) * width, out, i * width, width); i += 1 }
    out
  }
}

/** Slots with their distances, in the order they were added, and the cap
  * that keeps the nearest of them. A range search fills one with its
  * result in traversal order, plus its distance computations and node
  * visits; every search fills its own, so queries running at the same time
  * share nothing mutable through an index. Multi-Probe keeps its cheapest
  * probes with one, codes as slots and scores as distances.
  */
private[repro] final class Hits {
  var slots = new Array[Int](64)
  var dists = new Array[Double](64)
  var size = 0
  var distCount = 0L
  var nodeAccesses = 0L

  def add(slot: Int, dist: Double): Unit = {
    if (size == slots.length) {
      slots = Arrays.copyOf(slots, 2 * size)
      dists = Arrays.copyOf(dists, 2 * size)
    }
    slots(size) = slot
    dists(size) = dist
    size += 1
  }

  /** Keeps the `cap` nearest, equal distances in the order added, in the
    * order added: a quickselect on a copy of the distances finds v, the
    * cap-th smallest, and one pass keeps every hit below v plus the first
    * ties at v, the set a stable sort's first `cap` would hold. Distances
    * are never NaN (a range search's each passed `≤ r`, a probe score is a
    * sum of squares), so the primitive comparisons order them as
    * `java.lang.Double.compare` does. */
  def keepWithin(cap: Int): Unit = if (size > cap) {
    val v = Hits.select(Arrays.copyOf(dists, size), size, cap - 1)
    var below = 0
    var i = 0
    while (i < size) { if (dists(i) < v) below += 1; i += 1 }
    var ties = cap - below
    var kept = 0
    i = 0
    while (i < size) {
      val d = dists(i)
      if (d < v || (d == v && ties > 0)) {
        if (d == v) ties -= 1
        slots(kept) = slots(i); dists(kept) = d; kept += 1
      }
      i += 1
    }
    size = kept
  }
}

private[repro] object Hits {

  /** The j-th smallest (from 0) of the first n values of `a`, which it
    * reorders: Hoare's selection, pivoting on the median of three. */
  def select(a: Array[Double], n: Int, j: Int): Double = {
    var lo = 0
    var hi = n - 1
    while (lo < hi) {
      val x = a(lo); val y = a((lo + hi) >>> 1); val z = a(hi)
      val p = math.max(math.min(x, y), math.min(math.max(x, y), z))
      var i = lo
      var k = hi
      while (i <= k) {
        while (a(i) < p) i += 1
        while (a(k) > p) k -= 1
        if (i <= k) { val t = a(i); a(i) = a(k); a(k) = t; i += 1; k -= 1 }
      }
      // a(lo..k) ≤ p ≤ a(i..hi), and everything between equals p
      if (j <= k) hi = k
      else if (j >= i) lo = i
      else return p
    }
    a(j)
  }
}

/** A range result read through an index's slots: the `IndexedPoint` of an
  * element is built only when the element is read. */
private[core] final class SlotRange(pts: Slots, hits: Hits) extends IndexedSeq[(IndexedPoint, Double)] {
  override def length: Int = hits.size
  override def apply(i: Int): (IndexedPoint, Double) = {
    if (i < 0 || i >= hits.size) throw new IndexOutOfBoundsException(s"$i is out of bounds (length ${hits.size})")
    (pts.point(hits.slots(i)), hits.dists(i))
  }
}
