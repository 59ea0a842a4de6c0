package repro.core

import scala.collection.mutable.ArrayBuffer

/** What the PM-tree and the R-tree share: a tree over the projected space
  * whose leaves hold slots of one flat payload (`Slots`).
  *
  * A tree is built once, by `load`: every point is inserted in input order
  * on the projections alone, then the payload is filled once, in leaf order,
  * and the leaves are renumbered to it, so the points of one leaf sit next
  * to each other and slot order is leaf order. Each tree supplies its
  * insertion (`insert`, root split included), its leaf walk (`leaves`) and
  * its range search (`search`).
  *
  * The boxed `range` adds its search's counts to `distCount` and
  * `nodeAccesses`; the engines' searches count into their own `Hits`.
  */
abstract class SlotTree(val capacity: Int) extends Serializable {
  require(capacity >= 4, s"capacity must be >= 4, got $capacity")

  /** The payload; while the tree is built, the projections alone, in input
    * order. */
  protected var pts: Slots = Slots.of(Array.empty[Point])

  /** Query-time distance computations and node visits of `range` (reset
    * with `resetCounters`). */
  var distCount: Long = 0L
  var nodeAccesses: Long = 0L

  def size: Int = pts.size

  /** The indexed points, in slot order (leaf order). */
  def points: Slots = pts

  def resetDistCount(): Unit = distCount = 0L

  def resetCounters(): Unit = { distCount = 0L; nodeAccesses = 0L }

  /** Inserts slot `slot` of the projection-only payload, splitting the root
    * if it overflows. */
  protected def insert(slot: Int): Unit

  /** The leaves, depth first with entries in order. */
  protected def leaves: ArrayBuffer[SlotTree.Leaf]

  /** The range search `range(q', r)` in the projected space, appended to
    * `out` in traversal order, with its distance computations and node
    * visits. */
  private[core] def search(qProj: Array[Double], r: Double, out: Hits): Unit

  /** Indexes `points`, projected to `proj` (m per point, in `points`
    * order): inserts every point in order, on the projections, then fills
    * the payload in leaf order and renumbers the leaves' slots to it. */
  private[core] def load(points: Array[Point], proj: Array[Double], m: Int): Unit = {
    require(proj.length == points.length * m,
      s"${points.length} points of $m projected coordinates need ${points.length * m}, got ${proj.length}")
    pts = new Slots(points.map(_.id), proj, Array.emptyDoubleArray, m, 0)
    var slot = 0
    while (slot < points.length) { insert(slot); slot += 1 }
    val ls = leaves
    pts = Slots.of(points, proj, m, ls.flatMap(_.slots).toArray)
    var next = 0
    ls.foreach { l => l.slots = Array.range(next, next + l.slots.length); next += l.slots.length }
  }

  /** All points with ||q, o'|| ≤ r, with their projected distances, in
    * traversal order. The points are read through the slots only when an
    * element is read. */
  def range(qProj: Array[Double], r: Double): IndexedSeq[(IndexedPoint, Double)] = {
    val hits = new Hits
    search(qProj, r, hits)
    distCount += hits.distCount
    nodeAccesses += hits.nodeAccesses
    new SlotRange(pts, hits)
  }

  /** All stored items, leaf by leaf (test support). */
  def items: ArrayBuffer[IndexedPoint] = ArrayBuffer.tabulate(size)(pts.point)
}

object SlotTree {

  /** A leaf: its entries are slots of the tree's payload. */
  trait Leaf { var slots: Array[Int] }
}
