package repro.core

/** A per-partition index over the projected space. One instance is built
  * inside `mapPartitions` per Spark partition and cached as a row of a
  * `Dataset[PartIndex]` (kryo-encoded). A query round broadcasts its batch
  * of (q, q', radius, c·r), range-searches every index, verifies the
  * candidates there, and ships back one `TopK` summary per query and
  * partition: two counts and the partition's k nearest candidates.
  */
trait PartIndex extends Serializable {
  def size: Int

  /** Points with projected distance ≤ r from qProj, with those distances;
    * at most `cap` of them (Algorithm 2 stops at its candidate budget). */
  def rangeSearch(qProj: Array[Double], r: Double,
                  cap: Int = Int.MaxValue): Iterator[(IndexedPoint, Double)]
}

object PartIndex {
  /** Keep the `cap` nearest (by projected distance) of a range result:
    * when the ball holds more than the candidate budget, the best distance
    * *estimates* (§3.2, point-to-point) are the ones worth verifying —
    * truncating in traversal order would drop true neighbors arbitrarily.
    * Projected distances are m-dimensional and already paid for inside the
    * tree; only the returned candidates incur d-dimensional verification.
    */
  private[core] def nearestFirst(
      res: scala.collection.mutable.ArrayBuffer[(IndexedPoint, Double)],
      cap: Int): Iterator[(IndexedPoint, Double)] =
    if (res.length <= cap) res.iterator
    else res.sortBy(_._2).iterator.take(cap)
}

/** PM-LSH's partition index (§4.1). */
final class PMTreePart(val tree: PMTree) extends PartIndex {
  override def size: Int = tree.size
  override def rangeSearch(qProj: Array[Double], r: Double,
                           cap: Int): Iterator[(IndexedPoint, Double)] =
    PartIndex.nearestFirst(tree.range(qProj, r), cap)
}

/** R-LSH's / SRS's partition index (§3.1, §6.1). */
final class RTreePart(val tree: RTree) extends PartIndex {
  override def size: Int = tree.size
  override def rangeSearch(qProj: Array[Double], r: Double,
                           cap: Int): Iterator[(IndexedPoint, Double)] =
    PartIndex.nearestFirst(tree.range(qProj, r), cap)

  /** Incremental NN order for SRS. */
  def incSearch(qProj: Array[Double]): Iterator[(IndexedPoint, Double)] = tree.incSearch(qProj)
}
