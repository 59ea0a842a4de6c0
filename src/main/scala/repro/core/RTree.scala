package repro.core

import scala.collection.mutable
import scala.collection.mutable.ArrayBuffer

/** Node summary for the R-tree cost model of §4.2 (Eqs. 8–9). */
case class RNodeSummary(nEntries: Int, lo: Array[Double], hi: Array[Double], isRoot: Boolean)

/** Insertion-built R-tree over the m-dimensional projected space — the
  * index behind SRS, R-LSH, and the Table-2 comparison.
  *
  * Classic Guttman construction: descend by least margin enlargement
  * (margin = Σ side lengths; the usual area metric degenerates to 0/0 in
  * 15 dimensions), split with the linear algorithm (seeds by maximum
  * normalized separation, min-fill 40%). Insertion-built trees overlap
  * heavily in high dimension — exactly the behaviour the paper's Table 2
  * charges the R-tree for, and what SRS's R-tree actually looks like.
  *
  * Supports ball range queries (MINDIST pruning) and incremental nearest
  * neighbor (Hjaltason–Samet best-first priority queue), SRS's incSearch,
  * bounded by the number of slots the caller takes.
  * Both count their visited nodes and point-distance computations into the
  * caller's `Hits`.
  *
  * The tree is built once, by `RTree.build` (`SlotTree.load`), on the
  * projections alone.
  */
final class RTree(capacity: Int) extends SlotTree(capacity) {
  private val minFill = math.max(1, (capacity * 0.4).toInt)

  private final class Node(val isLeaf: Boolean) extends SlotTree.Leaf with Serializable {
    var slots: Array[Int] = Array.emptyIntArray // leaf payload: slots of `pts`
    val children = new ArrayBuffer[Node](if (isLeaf) 0 else capacity + 1) // inner payload
    var lo: Array[Double] = null
    var hi: Array[Double] = null

    def nEntries: Int = if (isLeaf) slots.length else children.length

    def recomputeMbr(): Unit = {
      lo = null; hi = null
      if (isLeaf) slots.foreach { s => val p = pts.projRow(s); extendBy(p, p) }
      else children.foreach(c => extendBy(c.lo, c.hi))
    }

    def extendBy(l: Array[Double], h: Array[Double]): Unit =
      if (lo == null) { lo = l.clone(); hi = h.clone() } else extend(lo, hi, l, h)
  }

  private var root: Node = new Node(true)

  private def margin(lo: Array[Double], hi: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < lo.length) { s += hi(i) - lo(i); i += 1 }
    s
  }

  /** Extends the box (lo, hi) in place to cover (l, h). */
  private def extend(lo: Array[Double], hi: Array[Double], l: Array[Double], h: Array[Double]): Unit = {
    var i = 0
    while (i < lo.length) {
      if (l(i) < lo(i)) lo(i) = l(i)
      if (h(i) > hi(i)) hi(i) = h(i)
      i += 1
    }
  }

  /** Margin increase of (lo, hi) if extended to cover (l, h). */
  private def enlargement(lo: Array[Double], hi: Array[Double],
                          l: Array[Double], h: Array[Double]): Double = {
    var s = 0.0; var i = 0
    while (i < lo.length) {
      s += math.max(hi(i), h(i)) - math.min(lo(i), l(i)) - (hi(i) - lo(i))
      i += 1
    }
    s
  }

  protected def insert(slot: Int): Unit = {
    val pair = insert(root, slot, pts.projRow(slot))
    if (pair != null) {
      root = new Node(false)
      root.children ++= Seq(pair._1, pair._2)
      root.recomputeMbr()
    }
  }

  /** Inserts `slot`, whose projected point is `p`, below `node`; returns
    * the two nodes that replace `node` if it overflowed and split, else
    * null. */
  private def insert(node: Node, slot: Int, p: Array[Double]): (Node, Node) = {
    node.extendBy(p, p)
    if (node.isLeaf) node.slots = node.slots :+ slot
    else {
      var best = 0
      var bestEnl = Double.MaxValue
      var bestMargin = Double.MaxValue
      var i = 0
      while (i < node.children.length) {
        val c = node.children(i)
        val e = enlargement(c.lo, c.hi, p, p)
        val m = margin(c.lo, c.hi)
        if (e < bestEnl || (e == bestEnl && m < bestMargin)) { best = i; bestEnl = e; bestMargin = m }
        i += 1
      }
      val pair = insert(node.children(best), slot, p)
      if (pair != null) { node.children.remove(best); node.children ++= Seq(pair._1, pair._2) }
    }
    if (node.nEntries > capacity) split(node) else null
  }

  /** Guttman linear seed pick over entry boxes; returns (seed1, seed2). */
  private def linearSeeds(los: Array[Array[Double]], his: Array[Array[Double]]): (Int, Int) = {
    val m = los.head.length
    val n = los.length
    var bestDim = 0
    var bestSep = -1.0
    var bestA = 0
    var bestB = 1
    var dim = 0
    while (dim < m) {
      var minLo = Double.MaxValue; var maxLo = Double.MinValue
      var minHi = Double.MaxValue; var maxHi = Double.MinValue
      var argMaxLo = 0; var argMinHi = 0
      var i = 0
      while (i < n) {
        if (los(i)(dim) > maxLo) { maxLo = los(i)(dim); argMaxLo = i }
        if (los(i)(dim) < minLo) minLo = los(i)(dim)
        if (his(i)(dim) < minHi) { minHi = his(i)(dim); argMinHi = i }
        if (his(i)(dim) > maxHi) maxHi = his(i)(dim)
        i += 1
      }
      val extent = math.max(maxHi - minLo, 1e-12)
      val sep = (maxLo - minHi) / extent
      if (sep > bestSep && argMaxLo != argMinHi) {
        bestSep = sep; bestDim = dim; bestA = argMaxLo; bestB = argMinHi
      }
      dim += 1
    }
    if (bestA == bestB) (0, 1) else (bestA, bestB)
  }

  /** Splits `node`'s entries into two new nodes: Guttman's linear seeds,
    * then each other entry, in order, to the group whose box it enlarges
    * least, with min-fill. A leaf entry is its point as a zero-extent box. */
  private def split(node: Node): (Node, Node) = {
    val n = node.nEntries
    val los = Array.tabulate(n)(i => if (node.isLeaf) pts.projRow(node.slots(i)) else node.children(i).lo)
    val his = if (node.isLeaf) los else Array.tabulate(n)(node.children(_).hi)
    val (s1, s2) = linearSeeds(los, his)
    // the two groups' entry indices and boxes
    val g = Array(ArrayBuffer(s1), ArrayBuffer(s2))
    val lo = Array(los(s1).clone(), los(s2).clone())
    val hi = Array(his(s1).clone(), his(s2).clone())
    var remaining = n - 2
    var i = 0
    while (i < n) {
      if (i != s1 && i != s2) {
        // min-fill: force the rest into a group that cannot otherwise reach it
        val to =
          if (g(0).length + remaining <= minFill) 0
          else if (g(1).length + remaining <= minFill) 1
          else {
            val e1 = enlargement(lo(0), hi(0), los(i), his(i))
            val e2 = enlargement(lo(1), hi(1), los(i), his(i))
            if (e1 < e2 || (e1 == e2 && g(0).length <= g(1).length)) 0 else 1
          }
        g(to) += i
        extend(lo(to), hi(to), los(i), his(i))
        remaining -= 1
      }
      i += 1
    }
    val halves = g.map { group =>
      val h = new Node(node.isLeaf)
      if (node.isLeaf) h.slots = group.map(node.slots(_)).toArray else h.children ++= group.map(node.children(_))
      h.recomputeMbr()
      h
    }
    (halves(0), halves(1))
  }

  /** Squared MINDIST from q to an MBR. */
  private def minSqDist(q: Array[Double], lo: Array[Double], hi: Array[Double]): Double = {
    var sum = 0.0
    var i = 0
    while (i < q.length) {
      val d = if (q(i) < lo(i)) lo(i) - q(i) else if (q(i) > hi(i)) q(i) - hi(i) else 0.0
      sum += d * d
      i += 1
    }
    sum
  }

  /** `range` into `out`, counting there the visited nodes and one distance
    * per point of a visited leaf. */
  private[core] def search(q: Array[Double], r: Double, out: Hits): Unit = {
    if (size == 0) return
    val proj = pts.proj
    val m = pts.m
    val r2 = r * r
    val stack = new ArrayBuffer[Node]()
    stack += root
    while (stack.nonEmpty) {
      val node = stack.remove(stack.length - 1)
      out.nodeAccesses += 1
      if (node.isLeaf) {
        val slots = node.slots
        out.distCount += slots.length
        var i = 0
        while (i < slots.length) {
          val d2 = Vec.sqDist(q, proj, slots(i) * m)
          if (d2 <= r2) out.add(slots(i), math.sqrt(d2))
          i += 1
        }
      } else {
        var i = 0
        while (i < node.children.length) {
          val c = node.children(i)
          if (minSqDist(q, c.lo, c.hi) <= r2) stack += c
          i += 1
        }
      }
    }
  }

  /** Incremental NN in the projected space (SRS's incSearch), bounded:
    * appends to `out` the first `count` slots in non-decreasing order of
    * projected distance to q (every slot, if there are fewer), with those
    * distances, counting there the visited nodes and one distance per
    * point of a visited leaf. A node is visited only while fewer than
    * `count` slots are out. */
  private[core] def nearest(q: Array[Double], count: Int, out: Hits): Unit = {
    if (size == 0) return
    val proj = pts.proj
    val m = pts.m
    // a node to visit, or (node null) a slot to emit, by squared distance
    val pq = mutable.PriorityQueue.empty[(Double, Node, Int)](Ordering.by((e: (Double, Node, Int)) => -e._1))
    pq.enqueue((minSqDist(q, root.lo, root.hi), root, -1))
    var emitted = 0
    while (emitted < count && pq.nonEmpty) {
      val (key, node, slot) = pq.dequeue()
      if (node == null) { out.add(slot, math.sqrt(key)); emitted += 1 }
      else {
        out.nodeAccesses += 1
        if (node.isLeaf) {
          out.distCount += node.slots.length
          var i = 0
          while (i < node.slots.length) {
            val slot = node.slots(i)
            pq.enqueue((Vec.sqDist(q, proj, slot * m), null, slot))
            i += 1
          }
        } else {
          var i = 0
          while (i < node.children.length) {
            val c = node.children(i)
            pq.enqueue((minSqDist(q, c.lo, c.hi), c, -1))
            i += 1
          }
        }
      }
    }
  }

  protected def leaves: ArrayBuffer[SlotTree.Leaf] = {
    val out = new ArrayBuffer[SlotTree.Leaf]()
    def rec(n: Node): Unit = if (n.isLeaf) out += n else n.children.foreach(rec)
    rec(root)
    out
  }

  /** Node summaries for the Table-2 cost model (Eq. 9). */
  def nodeSummaries: Seq[RNodeSummary] = {
    val out = new ArrayBuffer[RNodeSummary]()
    def rec(n: Node, isRoot: Boolean): Unit = {
      out += RNodeSummary(n.nEntries, n.lo, n.hi, isRoot)
      if (!n.isLeaf) n.children.foreach(rec(_, false))
    }
    if (size > 0) rec(root, isRoot = true)
    out.toSeq
  }

  /** MBR containment violations (test support); 0 when consistent. */
  def invariantViolations: Int = {
    var bad = 0
    def covered(v: Array[Double], lo: Array[Double], hi: Array[Double]): Boolean = {
      var i = 0
      while (i < v.length) {
        if (v(i) < lo(i) - 1e-9 || v(i) > hi(i) + 1e-9) return false
        i += 1
      }
      true
    }
    def rec(n: Node): Array[Int] = {
      val all = if (n.isLeaf) n.slots else n.children.toArray.flatMap(rec)
      all.foreach(s => if (!covered(pts.projRow(s), n.lo, n.hi)) bad += 1)
      all
    }
    if (size > 0) rec(root)
    bad
  }
}

object RTree {

  /** Build an R-tree over `points`, projected to `proj` (m coordinates per
    * point, in `points` order), by inserting every point in order (Guttman
    * construction); then fill the payload in leaf order. */
  def build(points: Array[Point], proj: Array[Double], m: Int, capacity: Int): RTree = {
    val t = new RTree(capacity)
    t.load(points, proj, m)
    t
  }

  /** `build` over items that carry their projections, each row checked. */
  def build(items: Array[IndexedPoint], capacity: Int): RTree = {
    val (points, proj, m) = IndexedPoint.rows(items)
    build(points, proj, m, capacity)
  }
}
