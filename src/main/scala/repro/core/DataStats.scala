package repro.core

import org.apache.spark.sql.{Dataset, SparkSession}

/** The Table-3 dataset statistics:
  *
  *  - HV, homogeneity of viewpoints (Ciaccia et al.): 1 − mean over
  *    viewpoint pairs of the mean absolute difference between their
  *    distance CDFs F_o(x) on a common distance grid. High HV ⇒ one global
  *    F approximates every query's distance distribution (what §4.5's
  *    r_min selection and the cost models rely on).
  *  - RC, relative contrast (He et al.): mean pairwise distance / mean NN
  *    distance; small ⇒ hard.
  *  - LID, local intrinsic dimensionality (Amsaleg et al., MLE):
  *    −(1/k · Σ_{i=1..k} ln(r_i / r_k))⁻¹ averaged over sample queries;
  *    large ⇒ hard.
  */
case class DatasetStats(n: Long, d: Int, hv: Double, rc: Double, lid: Double)

object DataStats {

  /** HV compares the distance CDFs of this many viewpoints, each over the
    * same `Others` points. */
  private val Viewpoints = 30
  private val Others = 300

  /** RC and LID use the exact `KLid` + 1 nearest neighbours of this many
    * sample points. */
  private val SampleQueries = 50
  private val KLid = 100

  def compute(spark: SparkSession, points: Dataset[Point], seed: Long): DatasetStats = {
    val n = points.count()
    val sample = points.limit(math.max(SampleQueries, Viewpoints + Others)).collect()
    require(sample.nonEmpty, "empty dataset")
    val d = sample.head.vec.length

    // exact (KLid+1)-NN of the sample queries; first neighbor is the point
    // itself (distance 0) because queries are drawn from the dataset
    val queries = sample.take(SampleQueries).map(_.vec)
    val knn = GroundTruth.knnBatch(spark, points, queries, KLid + 1)
    val nnDists = knn.map(_.map(_.dist).filter(_ > 1e-12))

    val meanNn = {
      val firsts = nnDists.filter(_.nonEmpty).map(_.head)
      firsts.sum / math.max(firsts.length, 1)
    }

    val pairDists = EmpiricalDistances.fromSample(sample.map(_.vec), seed = seed)
    val rc = pairDists.mean / math.max(meanNn, 1e-12)

    val lid = {
      val perQuery = nnDists.filter(_.length >= 2).map { ds =>
        val rs = ds.take(KLid)
        val rk = rs.last
        val s = rs.map(r => math.log(r / rk)).sum / rs.length
        if (s >= -1e-12) Double.NaN else -1.0 / s
      }.filter(v => !v.isNaN && v.isFinite)
      if (perQuery.isEmpty) 0.0 else perQuery.sum / perQuery.length
    }

    val hv = {
      val vps = sample.take(Viewpoints).map(_.vec)
      val obs = sample.slice(Viewpoints, Viewpoints + Others).map(_.vec)
      // distance grid: deciles of the global pair-distance distribution
      val grid = (1 to 19).map(i => pairDists.quantile(i / 20.0)).toArray
      val cdfs = vps.map { v =>
        val ds = obs.map(o => Vec.dist(v, o))
        grid.map(x => ds.count(_ <= x).toDouble / ds.length)
      }
      var sum = 0.0; var cnt = 0
      for (i <- cdfs.indices; j <- i + 1 until cdfs.length) {
        var acc = 0.0
        var g = 0
        while (g < grid.length) { acc += math.abs(cdfs(i)(g) - cdfs(j)(g)); g += 1 }
        sum += acc / grid.length
        cnt += 1
      }
      if (cnt == 0) 1.0 else 1.0 - sum / cnt
    }

    DatasetStats(n, d, hv, rc, lid)
  }
}
