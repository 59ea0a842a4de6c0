package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

/** Exact kNN over the full dataset — the R* of Eqs. 11–12 and the engine
  * behind the LScan baseline. One Spark action per query batch, the exact
  * probe: each partition verifies every one of its points against every
  * query and ships its top-k (`TopK.of`), and the driver merges them
  * (`TopK.gather`).
  */
object GroundTruth {

  def knnBatch(
      spark: SparkSession,
      points: Dataset[Point],
      queries: Array[Array[Double]],
      k: Int): Array[Array[Neighbor]] = {
    if (queries.isEmpty) return Array.empty
    val bcQ = spark.sparkContext.broadcast(queries)
    val merged = TopK.gather(points.rdd.glom(), k) { part =>
      val ids = part.map(_.id)
      // no radius: the within-c·r count is unused
      bcQ.value.iterator.zipWithIndex.map { case (q, qi) =>
        qi -> TopK.of(ids, part.map(p => Vec.dist(q, p.vec)), k, Double.NegativeInfinity)
      }
    }
    bcQ.destroy()
    queries.indices.map(qi => merged.getOrElse(qi, TopK.empty).neighbors).toArray
  }
}

/** The LScan baseline of §6.1: exact top-k over a random portion (default
  * 70%) of the points.
  */
object LinearScan {

  def knn(
      spark: SparkSession,
      points: Dataset[Point],
      queries: Array[Array[Double]],
      k: Int,
      fraction: Double = 0.7,
      seed: Long = 13): Array[Array[Neighbor]] = {
    require(fraction > 0 && fraction <= 1.0, s"fraction must be in (0,1], got $fraction")
    val scanned =
      if (fraction >= 1.0) points
      else points.sample(withReplacement = false, fraction, seed)
    GroundTruth.knnBatch(spark, scanned, queries, k)
  }
}
