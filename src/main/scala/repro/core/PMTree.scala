package repro.core

import scala.collection.mutable.ArrayBuffer

/** Node summary used by the cost model of §4.2 (Eqs. 6–7): entry count of
  * the node, covering radius of the routing entry leading to it, and its
  * pivot hyper-rings. The root is always accessed (Pr = 1).
  */
case class PMNodeSummary(
    nEntries: Int,
    radius: Double,
    hrMin: Array[Double],
    hrMax: Array[Double],
    isRoot: Boolean)

/** PM-tree (Skopal et al., §4.1): an M-tree over the m-dimensional
  * projected space extended with pivot mapping.
  *
  * Every routing entry stores, besides the M-tree fields (covering radius
  * `r`, center `RO`, parent distance `PD`, child pointer), the hyper-ring
  * intervals `HR[i] = [min, max]` of distances from pivot i to every point
  * below it; every leaf entry stores the point plus its s pivot distances.
  * Leaves hold slots of one flat payload (`Slots`); the leaf entries' pivot
  * and parent distances live in slot-indexed arrays beside it.
  * A range query `range(q, r)` prunes with (Eq. 5):
  *   - the sphere test    ||q, e.RO|| ≤ e.r + r,
  *   - the parent filter  |  ||q, parent|| − e.PD | ≤ e.r + r  (no distance
  *     computation needed), and
  *   - the s hyper-ring tests ||q, p_i|| − r ≤ HR[i].max and
  *     ||q, p_i|| + r ≥ HR[i].min.
  *
  * Insertion is classic M-tree, one recursive descent per point: descend by
  * minimum enlargement, split on overflow with max-distance promotion and
  * nearest-center partition. It reads only centers and covering radii, and
  * keeps the radii as upper bounds on the distance to every descendant
  * point. The tree is built once, by `PMTree.build` (`SlotTree.load`), on
  * the projections alone; once its payload is filled in leaf order, one
  * pass over the finished tree sets every routing entry's exact covering
  * radius and hyper-rings.
  *
  * `distCount` counts query-time distance computations in the projected
  * space (the quantity modeled in Table 2).
  */
final class PMTree(val pivots: Array[Array[Double]], capacity: Int) extends SlotTree(capacity) {
  private val s = pivots.length

  private final class RoutingEntry(val center: Array[Double], var radius: Double, val child: Node)
      extends Serializable {
    var parentDist: Double = 0.0
    /** The hyper-rings, set with the exact radius once every point is in. */
    var hrMin: Array[Double] = null
    var hrMax: Array[Double] = null
  }

  private sealed abstract class Node extends Serializable
  private final class Leaf(var slots: Array[Int]) extends Node with SlotTree.Leaf
  private final class Inner extends Node {
    val routes = new ArrayBuffer[RoutingEntry]()
  }

  /** Leaf entry o's pivot distances ||p_i, o'|| at o·s + i. */
  private var pivotDists: Array[Double] = Array.emptyDoubleArray
  /** Leaf entry o's distance to the center of the routing entry above it. */
  private var parentDists: Array[Double] = Array.emptyDoubleArray
  private var root: Node = new Leaf(Array.emptyIntArray)

  protected def insert(slot: Int): Unit = {
    val pair = insert(root, slot)
    if (pair != null) {
      val newRoot = new Inner
      newRoot.routes ++= Seq(pair._1, pair._2)
      root = newRoot
    }
  }

  /** Inserts `slot` below `node`; returns the two routing entries that
    * replace `node` if it overflowed and split, else null. */
  private def insert(node: Node, slot: Int): (RoutingEntry, RoutingEntry) = {
    val overflow = node match {
      case l: Leaf =>
        l.slots = l.slots :+ slot
        l.slots.length > capacity
      case in: Inner =>
        val proj = pts.proj
        val off = slot * pts.m
        // prefer containing entries by distance; else minimum enlargement
        var best = 0
        var bestKey = Double.MaxValue
        var bestDist = 0.0
        var bestInside = false
        var i = 0
        while (i < in.routes.length) {
          val re = in.routes(i)
          val dd = Vec.dist(re.center, proj, off)
          val inside = dd <= re.radius
          if (inside) {
            if (!bestInside || dd < bestKey) { best = i; bestKey = dd; bestDist = dd; bestInside = true }
          } else if (!bestInside && dd - re.radius < bestKey) { best = i; bestKey = dd - re.radius; bestDist = dd }
          i += 1
        }
        val re = in.routes(best)
        if (bestDist > re.radius) re.radius = bestDist
        val pair = insert(re.child, slot)
        if (pair != null) { in.routes.remove(best); in.routes ++= Seq(pair._1, pair._2) }
        in.routes.length > capacity
    }
    if (overflow) split(node) else null
  }

  /** Split the entries of a node into two new routing entries, each with
    * the upper-bound radius insertion keeps. */
  private def split(node: Node): (RoutingEntry, RoutingEntry) = {
    // entry centers: a leaf entry's is its point
    val centers: Array[Array[Double]] = node match {
      case l: Leaf   => l.slots.map(pts.projRow)
      case in: Inner => in.routes.map(_.center).toArray
    }
    // promotion: the pair of entry centers at maximum distance
    var bi = 0; var bj = 1; var bd = -1.0
    var i = 0
    while (i < centers.length) {
      var j = i + 1
      while (j < centers.length) {
        val dd = Vec.dist(centers(i), centers(j))
        if (dd > bd) { bd = dd; bi = i; bj = j }
        j += 1
      }
      i += 1
    }
    val c1 = centers(bi).clone()
    val c2 = centers(bj).clone()
    val toFirst = new Array[Boolean](centers.length)
    var n1 = 0; var n2 = 0
    var r1 = 0.0; var r2 = 0.0
    i = 0
    while (i < centers.length) {
      // seeds are force-assigned so neither side can end up empty (with
      // duplicate points every distance ties at 0)
      var parentDist = 0.0
      if (i == bi) toFirst(i) = true
      else if (i != bj) {
        val d1 = Vec.dist(c1, centers(i))
        val d2 = Vec.dist(c2, centers(i))
        toFirst(i) = d1 < d2 || (d1 == d2 && n1 <= n2)
        parentDist = if (toFirst(i)) d1 else d2
      }
      // the entry's farthest point from its new center, at most
      val cover = node match {
        case in: Inner => parentDist + in.routes(i).radius
        case _         => parentDist
      }
      if (toFirst(i)) { n1 += 1; if (cover > r1) r1 = cover }
      else { n2 += 1; if (cover > r2) r2 = cover }
      i += 1
    }
    val (a, b): (Node, Node) = node match {
      case l: Leaf =>
        val (s1, s2) = l.slots.indices.partition(toFirst(_))
        (new Leaf(s1.map(l.slots(_)).toArray), new Leaf(s2.map(l.slots(_)).toArray))
      case in: Inner =>
        val (a, b) = (new Inner, new Inner)
        in.routes.indices.foreach(i => (if (toFirst(i)) a else b).routes += in.routes(i))
        (a, b)
    }
    (new RoutingEntry(c1, r1, a), new RoutingEntry(c2, r2, b))
  }

  /** `range` into `out`, counting there the visited nodes and its distance
    * computations: s to the pivots, one per routing entry and leaf entry
    * that no filter prunes. */
  private[core] def search(qProj: Array[Double], r: Double, out: Hits): Unit = {
    if (size == 0) return
    val proj = pts.proj
    val m = pts.m
    val qpd = new Array[Double](s)
    var k = 0
    while (k < s) { qpd(k) = Vec.dist(pivots(k), qProj); k += 1 }
    out.distCount += s
    // depth-first stack of nodes with the distance from q to the center of
    // the routing entry leading to each (NaN at the root)
    var nodes = new Array[Node](16)
    var dParents = new Array[Double](16)
    nodes(0) = root
    dParents(0) = Double.NaN
    var top = 1
    while (top > 0) {
      top -= 1
      out.nodeAccesses += 1
      val dParent = dParents(top)
      nodes(top) match {
        case in: Inner =>
          var i = 0
          while (i < in.routes.length) {
            val re = in.routes(i)
            var prune = !dParent.isNaN && math.abs(dParent - re.parentDist) > r + re.radius
            var j = 0
            while (!prune && j < s) {
              if (qpd(j) - r > re.hrMax(j) || qpd(j) + r < re.hrMin(j)) prune = true
              j += 1
            }
            if (!prune) {
              val dd = Vec.dist(qProj, re.center)
              out.distCount += 1
              if (dd <= r + re.radius) {
                if (top == nodes.length) {
                  nodes = java.util.Arrays.copyOf(nodes, 2 * top)
                  dParents = java.util.Arrays.copyOf(dParents, 2 * top)
                }
                nodes(top) = re.child
                dParents(top) = dd
                top += 1
              }
            }
            i += 1
          }
        case l: Leaf =>
          val slots = l.slots
          var i = 0
          while (i < slots.length) {
            val o = slots(i)
            var prune = !dParent.isNaN && math.abs(dParent - parentDists(o)) > r
            var j = 0
            while (!prune && j < s) {
              if (math.abs(qpd(j) - pivotDists(o * s + j)) > r) prune = true
              j += 1
            }
            if (!prune) {
              val dd = Vec.dist(qProj, proj, o * m)
              out.distCount += 1
              if (dd <= r) out.add(o, dd)
            }
            i += 1
          }
      }
    }
  }

  /** Computes the leaf entries' pivot distances, then sets, from the points
    * below each routing entry, its covering radius to the largest distance
    * from its center (insertion keeps only an upper bound, parentDist +
    * child radius; the exact radius shrinks the PM-tree regions, improving
    * both real pruning and the Eq. 7 cost estimate), its hyper-rings to each
    * pivot's range of distances, and each entry's parent distance in the
    * node below it, leaf entries' and routing entries' alike (the root's
    * entries keep 0). */
  private def tighten(): Unit = {
    pivotDists = new Array[Double](size * s)
    var i = 0
    while (i < size * s) { pivotDists(i) = Vec.dist(pivots(i % s), pts.proj, i / s * pts.m); i += 1 }
    parentDists = new Array[Double](size)
    eachRoute { (r, below) =>
      val aboveLeaf = r.child match {
        case in: Inner => in.routes.foreach(e => e.parentDist = Vec.dist(r.center, e.center)); false
        case _         => true
      }
      r.radius = 0.0
      r.hrMin = Array.fill(s)(Double.MaxValue)
      r.hrMax = Array.fill(s)(Double.MinValue)
      below.foreach { o =>
        val dd = Vec.dist(r.center, pts.proj, o * pts.m)
        if (dd > r.radius) r.radius = dd
        if (aboveLeaf) parentDists(o) = dd
        var j = 0
        while (j < s) {
          val pd = pivotDists(o * s + j)
          if (pd < r.hrMin(j)) r.hrMin(j) = pd
          if (pd > r.hrMax(j)) r.hrMax(j) = pd
          j += 1
        }
      }
    }
  }

  /** Calls `f` on every routing entry with the slots of every leaf entry
    * below it, depth first, an entry after the entries below it. */
  private def eachRoute(f: (RoutingEntry, Array[Int]) => Unit): Unit = {
    def rec(node: Node): Array[Int] = node match {
      case l: Leaf => l.slots
      case in: Inner =>
        in.routes.toArray.flatMap { r =>
          val below = rec(r.child)
          f(r, below)
          below
        }
    }
    rec(root)
  }

  protected def leaves: ArrayBuffer[SlotTree.Leaf] = {
    val out = new ArrayBuffer[SlotTree.Leaf]()
    def rec(node: Node): Unit = node match {
      case l: Leaf   => out += l
      case in: Inner => in.routes.foreach(r => rec(r.child))
    }
    rec(root)
    out
  }

  /** Node summaries for the Table-2 cost model (Eq. 7). */
  def nodeSummaries: Seq[PMNodeSummary] = {
    val out = new ArrayBuffer[PMNodeSummary]()
    def rec(node: Node, re: RoutingEntry): Unit = {
      val nEntries = node match {
        case l: Leaf   => l.slots.length
        case in: Inner => in.routes.length
      }
      if (re == null)
        out += PMNodeSummary(nEntries, Double.PositiveInfinity,
          Array.fill(s)(0.0), Array.fill(s)(Double.PositiveInfinity), isRoot = true)
      else
        out += PMNodeSummary(nEntries, re.radius, re.hrMin, re.hrMax, isRoot = false)
      node match {
        case in: Inner => in.routes.foreach(r => rec(r.child, r))
        case _         =>
      }
    }
    rec(root, null)
    out.toSeq
  }

  /** Structural invariants (test support): every stored point is covered by
    * the covering radius and hyper-rings of every routing entry above it.
    * Returns the number of violations (0 when the tree is consistent).
    */
  def invariantViolations: Int = {
    var bad = 0
    eachRoute { (r, below) =>
      below.foreach { o =>
        if (Vec.dist(r.center, pts.proj, o * pts.m) > r.radius + 1e-9) bad += 1
        var j = 0
        while (j < s) {
          if (pivotDists(o * s + j) < r.hrMin(j) - 1e-9 || pivotDists(o * s + j) > r.hrMax(j) + 1e-9) bad += 1
          j += 1
        }
      }
    }
    bad
  }
}

object PMTree {

  /** Build a PM-tree over `points`, projected to `proj` (as many
    * coordinates per point as each pivot has, in `points` order), by
    * inserting every point in order; then fill the payload in leaf order
    * and set the exact radii and the hyper-rings. */
  def build(points: Array[Point], proj: Array[Double], pivots: Array[Array[Double]], capacity: Int): PMTree = {
    val t = new PMTree(pivots, capacity)
    t.load(points, proj, if (points.isEmpty) 0 else pivots(0).length)
    t.tighten()
    t
  }

  /** `build` over items that carry their projections, each row checked. */
  def build(items: Array[IndexedPoint], pivots: Array[Array[Double]], capacity: Int): PMTree = {
    val (points, proj, _) = IndexedPoint.rows(items)
    build(points, proj, pivots, capacity)
  }

  /** Farthest-point pivot selection (§4.1: pivots chosen to shrink the
    * PM-tree region): start from the point farthest from the centroid,
    * greedily add the point maximizing the minimum distance to the chosen
    * set. Standard pivot heuristic; deterministic.
    */
  def selectPivots(sample: Array[Array[Double]], s: Int): Array[Array[Double]] = {
    require(sample.nonEmpty, "cannot select pivots from an empty sample")
    val centroid = Vec.mean(sample)
    val first = sample.maxBy(v => Vec.sqDist(v, centroid))
    val chosen = ArrayBuffer(first)
    while (chosen.length < math.min(s, sample.length)) {
      val next = sample.maxBy(v => chosen.map(p => Vec.sqDist(v, p)).min)
      chosen += next
    }
    // if the sample is tiny, repeat the last pivot to keep arity s
    while (chosen.length < s) chosen += chosen.last
    chosen.toArray
  }
}
