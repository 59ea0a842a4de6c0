package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core._
import scala.annotation.unused

/** SRS (Sun et al., §3.1) on Spark: incremental NN search over R-trees in
  * the projected space.
  *
  * Reuses an R-tree `RangeLsh` engine (`usePmTree = false`) for projection
  * and per-partition R-trees. Each partition runs a real Hjaltason–Samet
  * incSearch and emits its access sequence — points in increasing projected
  * distance, capped at ⌈T·n_local⌉ + k — with verified original-space
  * distances. Because every point lives in exactly one partition, merging
  * the partition streams by projected distance reproduces the *global*
  * incSearch order; the driver replays that order applying SRS's stopping
  * rules: the T·n access budget and the early-termination test
  *   P[χ²(m) ≤ (c·r'_next / d_k)²] ≥ p'_τ
  * (an unseen point that could beat the current k-th best by factor c must
  * have projected distance ≥ r'_next, an event of vanishing probability).
  * The replay runs it without the factor c, which stops later (`Srs.replay`).
  */
final class Srs(@unused("callers build every engine from a session; SRS reads only its engine") spark: SparkSession,
                val engine: RangeLsh) {
  require(!engine.usePmTree, "SRS requires an R-tree engine (usePmTree = false)")

  val tFrac: Double = 0.4010
  val pTau: Double = 0.8107

  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    val batch = queries.zip(TopK.projectBatch(queries, k)(engine.family.project))
    val frac = tFrac
    // one row per partition and query: the partition's access sequence as
    // parallel arrays of ids, projected distances and verified distances
    val streams = TopK.gather(engine.indexes, batch) { part =>
      val rt = part.asInstanceOf[RTreePart]
      val pts = rt.points
      // ⌈T·n_local⌉ + k accesses, or every slot: the stream holds them all
      val len = math.min(math.ceil(frac * rt.size).toLong + k, rt.size.toLong).toInt
      entry => {
        val (qv, qp) = entry
        val (slots, pds) = rt.nearest(qp, len)
        (slots.map(pts.ids), pds, pts.dists(qv, slots, len))
      }
    }

    val budget = math.ceil(frac * engine.n).toLong + k
    val stops = Srs.stopRule(pTau, engine.params.m)
    streams.map { rows =>
      Srs.replay(Array.concat(rows.map(_._1).toSeq: _*), Array.concat(rows.map(_._2).toSeq: _*),
        Array.concat(rows.map(_._3).toSeq: _*), k, budget, stops)
    }
  }
}

object Srs {

  /** SRS's early-termination test on z² = (r'_next/d_k)²:
    * P[χ²(m) ≤ z²] ≥ p'_τ. The χ² cdf increases with z², so below
    * z_lo² = (1 − 1e-6)·χ²_{1−p'_τ}(m), checked to have cdf < p'_τ, the
    * test is false without computing the cdf. */
  def stopRule(pTau: Double, m: Int): Double => Boolean = {
    val zLo2 = ChiSquared.upperQuantile(1 - pTau, m) * (1 - 1e-6)
    require(ChiSquared.cdf(zLo2, m) < pTau, s"no stop bound below the $pTau quantile of chi2($m)")
    z2 => z2 >= zLo2 && ChiSquared.cdf(z2, m) >= pTau
  }

  /** One query's replay: the partition streams (ids, projected distances,
    * verified distances), concatenated in partition order, are accessed in
    * the global incSearch order, a stable sort by projected distance, until
    * `budget` accesses or until `stops` fires on z². The k nearest accessed
    * points are the answer, equal distances in access order. */
  def replay(ids: Array[Long], pds: Array[Double], dds: Array[Double], k: Int, budget: Long,
             stops: Double => Boolean): QueryResult = {
    val seq = StableOrder.of(pds)
    val top = new TopK.Smallest(math.min(k, seq.length))
    var count = 0
    var stop = false
    while (count < seq.length && !stop) {
      val at = seq(count)
      top.offer(dds(at), at)
      count += 1
      if (count >= budget) stop = true
      else if (top.size == k) {
        // conservative termination: stop once an unseen point *tied with*
        // the current k-th best would almost surely have been scanned
        // already (P[chi2(m) <= (pd/d_k)^2] >= p'_tau). Including the c
        // factor stops as soon as mere c-approximation is likely, which
        // collapses recall far below the paper's reported SRS levels.
        val z = pds(at) / math.max(top.dists(k - 1), 1e-12)
        stop = stops(z * z)
      }
    }
    QueryResult(Array.tabulate(top.size)(j => Neighbor(ids(top.positions(j)), top.dists(j))), 1, count)
  }
}
