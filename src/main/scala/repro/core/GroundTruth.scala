package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}
import scala.annotation.unused

/** Exact kNN over the full dataset — the R* of Eqs. 11–12 and the engine
  * behind the LScan baseline. One Spark action per query batch, the exact
  * probe: each partition copies its points once into a `Slots` payload,
  * verifies every one of them against every query (`Slots.verify`) and
  * ships its top-k through `TopK.gather`, and the driver merges them
  * (`TopK.merge`). Queries must be finite and of the data's dimension d,
  * read from its first point (checked on the driver); every data row must
  * have d finite coordinates, as `Points.indexed` requires of the engines'
  * rows (checked in every task that holds it).
  */
object GroundTruth {

  def knnBatch(
      @unused("the signature every caller uses; the job runs on the session of `points`") spark: SparkSession,
      points: Dataset[Point],
      queries: Array[Array[Double]],
      k: Int): Array[Array[Neighbor]] = {
    TopK.requireK(k)
    Vec.requireFinite(queries)
    if (queries.isEmpty) return Array.empty
    // no points, no dimension: every answer is empty
    val d = points.take(1).headOption.fold(-1)(_.vec.length)
    // a shorter query would be compared on its own coordinates only
    queries.foreach(q => require(d < 0 || q.length == d, s"a query has ${q.length} coordinates, the data has $d"))
    TopK.gather(points.rdd.glom(), queries) { part =>
      part.foreach(p => Slots.requireRow(p.id, "vector", p.vec, d))
      val pts = Slots.of(part)
      val all = Array.range(0, pts.size)
      // no radius: the within-c·r count is unused
      q => pts.verify(q, all, all.length, k, Double.NegativeInfinity)
    }.map(TopK.merge(_, k).neighbors)
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
