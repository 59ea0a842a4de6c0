package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._

/** One partition of the QALSH index: its points in input order, and for
  * each of the K query-aware hash functions the points' slots sorted by
  * hash value, with those values — the flat-array stand-in for QALSH's
  * B+-trees, with the same O(log n + out) window search (binary search +
  * contiguous scan). `hashes(s)` holds slot s's K hash values; only the
  * sorted copy is kept.
  */
final class QalshPart(val points: Slots, hashes: Array[Array[Double]], val k: Int) extends Serializable {

  /** sortedIdx(i) = slots ordered by hash value i; vals(i) aligned. The
    * lambdas read a local copy: reading `hashes` would keep it as a field. */
  val sortedIdx: Array[Array[Int]] = { val h = hashes; Array.tabulate(k)(i => StableOrder.of(h.map(_(i)))) }
  val vals: Array[Array[Double]] = { val h = hashes; Array.tabulate(k)(i => sortedIdx(i).map(j => h(j)(i))) }

  def size: Int = points.size

  /** Virtual rehashing round: slots of points with ≥ l collisions, where
    * a collision on hash i means |h_i(o) − h_i(q)| ≤ w·r/2, i.e. h_i(o) in
    * the closed window [h_i(q) − w·r/2, h_i(q) + w·r/2].
    */
  def collisionCandidates(qHash: Array[Double], w: Double, r: Double, l: Int): Array[Int] = {
    if (size == 0) return Array.empty
    val counts = new Array[Int](size)
    val half = w * r / 2.0
    var i = 0
    while (i < k) {
      val a = vals(i)
      val lo = StableOrder.bound(a, qHash(i) - half, upper = false)
      val hi = StableOrder.bound(a, qHash(i) + half, upper = true)
      var j = lo
      while (j < hi) { counts(sortedIdx(i)(j)) += 1; j += 1 }
      i += 1
    }
    val out = new Array[Int](size)
    var found = 0
    var j = 0
    while (j < size) { if (counts(j) >= l) { out(found) = j; found += 1 }; j += 1 }
    java.util.Arrays.copyOf(out, found)
  }
}

/** QALSH (Huang et al., §3.1) on Spark: query-aware LSH with virtual
  * rehashing and dynamic collision counting.
  *
  * K hash functions h_i(o) = a_i·o (no bucket shift — the length-w·r
  * window is centered on the query at search time). Round with radius r:
  * every point whose hash falls inside the window on ≥ l of the K hashes
  * is a candidate and gets verified; terminate when k candidates lie
  * within c·r or βn + k candidates were verified (β̃n = 100 as in §6.1),
  * else r ← c·r. w, K, l follow the QALSH derivation: w = √(8c²ln c /
  * (c²−1)), K from the Hoeffding bound at error probability δ (capped for
  * bench sanity), l = ⌈α·K⌉ with α between p1 and p2.
  *
  * Start radius: the paper's r = 1 assumes datasets rescaled to unit NN
  * distance; ours are not, so r0 is data-driven (quantile of the distance
  * CDF, divided by c²) — it only *reduces* QALSH's round count, which is
  * conservative for PM-LSH's claimed advantage (DESIGN.md).
  */
final class Qalsh(
    spark: SparkSession,
    points: Dataset[Point],
    val partitions: Int = 8,
    val seed: Long = 42) {

  val c: Double = 1.5
  val delta: Double = 1.0 / math.E
  val betaCount: Int = 100
  val kCap: Int = 128
  val distSample: Int = 300

  private val sc = spark.sparkContext

  val d: Int = Points.dimension(points)

  /** w = √(8c²·ln c / (c² − 1)) — QALSH's optimal window width. */
  val w: Double = math.sqrt(8.0 * c * c * math.log(c) / (c * c - 1.0))

  val p1: Double = GaussianLsh.queryAwareCollisionProb(1.0, w)
  val p2: Double = GaussianLsh.queryAwareCollisionProb(c, w)

  /** The Hoeffding terms √ln(2/β), at the false-positive fraction target
    * β = 0.01, and √ln(1/δ). */
  private val wb = math.sqrt(math.log(2.0 / 0.01))
  private val wd = math.sqrt(math.log(1.0 / delta))

  /** Number of hash functions from the Hoeffding bound (QALSH Thm. 1). */
  val numHashes: Int = {
    val eta = wb + wd
    math.min(kCap, math.max(8, math.ceil(eta * eta / (2.0 * (p1 - p2) * (p1 - p2))).toInt))
  }

  /** Collision threshold l = ⌈α·K⌉, α the Hoeffding-weighted mix of p1, p2. */
  val l: Int = {
    val alpha = (wb * p1 + wd * p2) / (wb + wd)
    math.max(1, math.ceil(alpha * numHashes).toInt)
  }

  val family = new ProjectionFamily(d, numHashes, seed)
  private val bcFamily = sc.broadcast(family)

  /** One index per partition, kept live: a round's tasks probe the cached
    * objects in place. Every vector is checked (d finite coordinates)
    * before it is hashed. */
  val index: RDD[QalshPart] = {
    // locals only inside the lambda: field access would capture `this`
    val kk = numHashes
    val bf = bcFamily
    Points.indexed(points.repartition(partitions).rdd, d) { pts =>
      val f = bf.value
      new QalshPart(Slots.of(pts), pts.map(p => f.project(p.vec)), kk)
    }
  }

  val n: Long = index.map(_.size.toLong).reduce(_ + _)

  private val sampleVecs: Array[Array[Double]] =
    points.limit(distSample).collect().map(_.vec)
  val distances: EmpiricalDistances =
    EmpiricalDistances.fromSample(sampleVecs, seed = seed)

  /** Batched (c,k)-ANN by virtual rehashing: each round counts collisions
    * in the window of width w·r around every hash of the query. No
    * candidates are carried across rounds: the window
    * [h_i(q) - w·r/2, h_i(q) + w·r/2] only grows with r, so every point's
    * collision count, and with it each round's candidate set, contains the
    * previous round's. */
  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    val budget = betaCount.toLong + k
    val r0 = math.max(
      distances.quantile(math.min(1.0, budget.toDouble / n)) / (c * c), 1e-9)
    val ww = w
    val ll = l
    val f = family
    TopK.radiusRounds(index, queries, k, n, budget, r0, c)(q => (q, f.project(q))) {
      case (part, (q, qh), r, cr) =>
        val cands = part.collisionCandidates(qh, ww, r, ll)
        part.points.verify(q, cands, cands.length, k, cr)
    }
  }

  def unpersist(): Unit = index.unpersist()
}
