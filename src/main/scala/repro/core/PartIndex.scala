package repro.core

/** A per-partition index over the projected space. One instance is built
  * inside `mapPartitions` per Spark partition and kept as a live object of
  * an `RDD[PartIndex]` persisted `MEMORY_ONLY`, so a query round reads it
  * in place. Its points live in one slot-addressed payload (`Slots`); the
  * tree's leaves hold slots. A round broadcasts its batch of
  * (q, q', radius, c·r) and `probe`s every index, which verifies its
  * candidates there and returns one `TopK` summary per query: two counts
  * and the partition's k nearest candidates.
  *
  * The index is read-only once built: every search writes into buffers of
  * its own, so concurrent queries can share one.
  */
trait PartIndex extends Serializable {

  /** The tree over the partition's points. */
  def tree: SlotTree

  /** The partition's points, in slot order. */
  def points: Slots = tree.points

  def size: Int = points.size

  /** The tree's range search `range(q', r)` in the projected space,
    * appended to `out` in traversal order. */
  private[core] def search(qProj: Array[Double], r: Double, out: Hits): Unit = tree.search(qProj, r, out)

  /** Points with projected distance ≤ r from qProj; when there are more than
    * `cap`, the `cap` nearest by projected distance (equal distances in
    * traversal order), kept in traversal order (`Hits.keepWithin`). When
    * the ball holds more than the candidate budget (Algorithm 2 stops at
    * βn + k), the best distance *estimates* (§3.2, point-to-point) are the
    * ones worth verifying: truncating in traversal order would drop true
    * neighbors arbitrarily. Projected distances are m-dimensional and
    * already paid for inside the tree; only the kept candidates incur
    * d-dimensional verification.
    */
  private def candidates(qProj: Array[Double], r: Double, cap: Int): Hits = {
    val hits = new Hits
    search(qProj, r, hits)
    hits.keepWithin(cap)
    hits
  }

  /** The candidates of `probe`, in traversal order, with their projected
    * distances. */
  def rangeSearch(qProj: Array[Double], r: Double, cap: Int): Iterator[(IndexedPoint, Double)] = {
    val hits = candidates(qProj, r, cap)
    Iterator.range(0, hits.size).map(i => (points.point(hits.slots(i)), hits.dists(i)))
  }

  /** One query's round on this partition: the candidates within projected
    * radius r (at most `cap`, see `candidates`), verified against the
    * original-space query q in traversal order and summarized by `TopK.of`,
    * so equal true distances keep traversal order. */
  def probe(q: Array[Double], qProj: Array[Double], r: Double, cap: Int, k: Int, cr: Double): TopK = {
    val hits = candidates(qProj, r, cap)
    points.verify(q, hits.slots, hits.size, k, cr)
  }
}

/** PM-LSH's partition index (§4.1). */
final class PMTreePart(val tree: PMTree) extends PartIndex

/** R-LSH's / SRS's partition index (§3.1, §6.1). */
final class RTreePart(val tree: RTree) extends PartIndex
