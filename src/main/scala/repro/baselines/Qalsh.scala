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

  /** Virtual rehashing over the ascending `radii` in one pass. A collision
    * on hash i at radius r means |h_i(o) − h_i(q)| ≤ w·r/2, i.e. h_i(o) in
    * the closed window [h_i(q) − w·r/2, h_i(q) + w·r/2]. The windows grow
    * with r, so they split the widest window's sorted values into
    * contiguous segments, one per radius: each value counts once, for the
    * first radius whose window holds it, as a round at that radius alone
    * would count it. Returns the slots, ascending, of the points with ≥ l
    * collisions at the widest radius, and for each the first level (index
    * into `radii`) at which it has l: level j's candidates are those of a
    * round at radius `radii(j)`, in the same order.
    */
  def levelCandidates(qHash: Array[Double], w: Double, radii: Array[Double], l: Int): (Array[Int], Array[Int]) = {
    val levels = radii.length
    // counts(s·levels + j): slot s's collisions whose first window is level j's
    val counts = new Array[Int](size * levels)
    val lo = new Array[Int](levels)
    val hi = new Array[Int](levels)
    var i = 0
    while (i < k) {
      val a = vals(i)
      val idx = sortedIdx(i)
      var j = 0
      while (j < levels) {
        val half = w * radii(j) / 2.0
        lo(j) = StableOrder.bound(a, qHash(i) - half, upper = false)
        hi(j) = StableOrder.bound(a, qHash(i) + half, upper = true)
        j += 1
      }
      // level 0's segment is [lo(0), hi(0)); level j's is what its window
      // adds on either side, [lo(j), lo(j − 1)) and [hi(j − 1), hi(j))
      j = 0
      while (j < levels) {
        var p = lo(j)
        val end = if (j == 0) hi(0) else lo(j - 1)
        while (p < end) { counts(idx(p) * levels + j) += 1; p += 1 }
        if (j > 0) {
          p = hi(j - 1)
          while (p < hi(j)) { counts(idx(p) * levels + j) += 1; p += 1 }
        }
        j += 1
      }
      i += 1
    }
    val slots = new Array[Int](size)
    val first = new Array[Int](size)
    var found = 0
    var s = 0
    while (s < size) {
      var sum = 0
      var j = 0
      while (j < levels && sum < l) { sum += counts(s * levels + j); j += 1 }
      if (sum >= l) { slots(found) = s; first(found) = j - 1; found += 1 }
      s += 1
    }
    (java.util.Arrays.copyOf(slots, found), java.util.Arrays.copyOf(first, found))
  }

  /** One query's rounds at the ascending `radii` on this partition, one
    * `TopK` per radius, each at its c·r in `crs`: every candidate of the
    * widest radius is verified once, and radius j's row summarizes the
    * candidates whose first level is ≤ j, in slot order, as a round at
    * that radius alone would. */
  def probe(q: Array[Double], qHash: Array[Double], w: Double, radii: Array[Double], l: Int, k: Int,
            crs: Array[Double]): Array[TopK] = {
    val (slots, first) = levelCandidates(qHash, w, radii, l)
    val dists = points.dists(q, slots, slots.length)
    Array.tabulate(radii.length) { j =>
      val size = first.count(_ <= j)
      val ids = new Array[Long](size)
      val ds = new Array[Double](size)
      var at = 0
      var c = 0
      while (c < slots.length) {
        if (first(c) <= j) { ids(at) = points.ids(slots(c)); ds(at) = dists(c); at += 1 }
        c += 1
      }
      TopK.of(ids, ds, k, crs(j))
    }
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
    * before it is hashed, and every hash row after. */
  val index: RDD[QalshPart] = {
    // locals only inside the lambda: field access would capture `this`
    val kk = numHashes
    val bf = bcFamily
    Points.indexed(points.repartition(partitions).rdd, d) { pts =>
      val f = bf.value
      // huge coordinates can overflow to ∞
      new QalshPart(Slots.of(pts), pts.map(p => Slots.requireRow(p.id, "projection", f.project(p.vec), kk)), kk)
    }
  }

  val n: Long = index.map(_.size.toLong).reduce(_ + _)

  private val sampleVecs: Array[Array[Double]] =
    points.limit(distSample).collect().map(_.vec)
  val distances: EmpiricalDistances =
    EmpiricalDistances.fromSample(sampleVecs, seed = seed)

  /** Radii per Spark job (`TopK.radiusRounds`). r0 = F⁻¹(budget/n)/c²,
    * so the third radius, c²·r0, is where the empirical distance CDF
    * expects the candidate budget, and most queries stop by then. A fourth
    * radius verifies nearly every point for the few queries that need it:
    * on the benchmark's nus-baselines data (seed-611 pool, 200 queries,
    * k = 50) the candidates per query at r0, c·r0, …, c⁴·r0 are 0.3, 25,
    * 631, 5 378 and 5 380 of n = 5 380, and 199 of the 200 queries stop
    * within three rounds. A 50-query call took a median of 150 ms at one
    * radius per job, 147 ms at two, 78 ms at three and 125 ms at four
    * (4 vCPU, Spark local[4], three interleaved 20 s runs each). */
  val levelsPerJob: Int = 3

  /** Batched (c,k)-ANN by virtual rehashing: each round counts collisions
    * in the window of width w·r around every hash of the query, and one
    * Spark job runs `levelsPerJob` rounds. No candidates are carried
    * across rounds: the window [h_i(q) − w·r/2, h_i(q) + w·r/2] only grows
    * with r, so every point's collision count, and with it each round's
    * candidate set, contains the previous round's. That nesting is also
    * what lets one pass over the widest window of a job count every
    * round's collisions (`QalshPart.levelCandidates`), so each candidate is
    * verified once per job. */
  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    val budget = betaCount.toLong + k
    val r0 = math.max(
      distances.quantile(math.min(1.0, budget.toDouble / n)) / (c * c), 1e-9)
    val ww = w
    val ll = l
    val f = family
    TopK.radiusRounds(index, queries, k, n, budget, r0, c, levelsPerJob)(f.project) {
      (part, q, qh, rs, crs) => part.probe(q, qh, ww, rs, ll, k, crs)
    }
  }

  def unpersist(): Unit = index.unpersist()
}
