package repro.core

import org.apache.spark.sql.Dataset

/** A dataset point: stable id + original d-dimensional vector. */
case class Point(id: Long, vec: Array[Double])

object Points {

  /** The dimension d of `points`, read from the first point. Every engine
    * needs at least one point, so empty data is rejected here. */
  def dimension(points: Dataset[Point]): Int = {
    val first = points.take(1)
    require(first.nonEmpty, "the data is empty: an index needs at least one point")
    first(0).vec.length
  }
}

/** A point carried through an index: id, projected (m-dim) coordinates,
  * and the original vector (kept in the leaf so candidate verification —
  * the true-distance computation of Algorithms 1/2 — happens executor-side
  * without a join back to the base data).
  */
case class IndexedPoint(id: Long, proj: Array[Double], vec: Array[Double])

/** One answer of a kNN query. */
case class Neighbor(id: Long, dist: Double)

/** Result of one (c,k)-ANN query plus diagnostics. */
case class QueryResult(neighbors: Array[Neighbor], rounds: Int, candidates: Int)
