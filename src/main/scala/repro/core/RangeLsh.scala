package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}

/** PM-LSH parameters: the §6.1 defaults, and the three settings callers
  * choose. */
case class LshParams(
    partitions: Int = 8,
    seed: Long = 42,
    paperBeta: Boolean = true) {
  val m: Int = 15
  val s: Int = 5
  val c: Double = 1.5
  val alpha1: Double = 1.0 / math.E
  val capacity: Int = 16
  val rminShrink: Double = 0.95
  val pivotSample: Int = 500
  val distSample: Int = 300
}

/** The PM-LSH framework (§4) on Spark — and, with `usePmTree = false`, the
  * R-LSH ablation of §6.1 (same engine, R-tree partition indexes).
  *
  * Build: repartition the points, take the pivot and r_min sample from the
  * repartitioned rows, then build one PM-tree (or R-tree) per partition
  * from the same rows (`Points.indexed`): each partition projects its
  * points with the broadcast 2-stable family into one flat array, builds
  * the tree on the projections, and copies every vector once, into the
  * tree's leaf-ordered payload. The resulting `RDD[PartIndex]` is
  * persisted `MEMORY_ONLY`, so the indexes stay live objects that no round
  * has to decode. Pivots are selected once on the driver from the sample
  * and broadcast so all partitions share the same pivot space.
  *
  * Query (Algorithm 2, batched): every radius round is one Spark action
  * that runs the range query `range(q', t·r)` of all still-active queries
  * against every partition index and verifies candidates' original-space
  * distances executor-side. Each partition ships one `TopK` row per query:
  * |C_p|, the number of candidates within c·r, and its k nearest verified
  * candidates. The driver sums the counts for the paper's termination
  * tests — |C| ≥ βn + k, or k candidates within c·r — merges the finished
  * queries' top-k lists, and multiplies the radius of the unfinished ones
  * by c. Algorithm 1 (`ballCover`) ships the same shape with k = 1.
  *
  * t, α2, β follow Eq. 10: t² = χ²_{α1}(m), α2 = cdf_{χ²(m)}(t²/c²),
  * β = 2·α2 (Lemma 5). r_min comes from the empirical distance CDF so that
  * n·F(r_min) ≈ βn + k, shrunk slightly (§4.5).
  */
final class RangeLsh(
    spark: SparkSession,
    points: Dataset[Point],
    val params: LshParams,
    val usePmTree: Boolean) {

  private val sc = spark.sparkContext

  val d: Int = Points.dimension(points)
  val family = new ProjectionFamily(d, params.m, params.seed)
  private val bcFamily = sc.broadcast(family)

  /** t = √(χ²_{α1}(m)) — the confidence-interval scale (Lemma 4). */
  val t: Double = math.sqrt(ChiSquared.upperQuantile(params.alpha1, params.m))

  /** α2 from Eq. 10 arithmetic: cdf_{χ²(m)}(t²/c²). */
  val alpha2Eq10: Double = ChiSquared.cdf(t * t / (params.c * params.c), params.m)

  /** β = 2·α2 from Eq. 10 (Lemma 5). */
  val betaEq10: Double = 2.0 * alpha2Eq10

  /** Effective α2/β. §6.1 states α2 = 0.1405 and β = 0.2809 at the default
    * parameters; our Eq. 10 arithmetic yields 0.048/0.097 (the paper does
    * not show the intermediate steps — see DESIGN.md). `paperBeta` selects
    * the paper's stated operating point, which fixes the candidate budget
    * the Table-4 numbers were measured under.
    */
  val alpha2: Double = if (params.paperBeta) 0.1405 else alpha2Eq10
  val beta: Double = if (params.paperBeta) 0.2809 else betaEq10

  /** The points, repartitioned once: the sample and every partition index
    * read the same shuffle output. */
  private val rows: RDD[Point] = points.repartition(params.partitions).rdd

  /** Sample used for pivots and for the empirical distance CDF, checked
    * like every indexed point before it is projected. */
  private val sample: Array[Point] = rows.take(math.max(params.pivotSample, params.distSample))
  sample.foreach(p => Slots.requireRow(p.id, "vector", p.vec, d))

  val pivots: Array[Array[Double]] =
    PMTree.selectPivots(sample.take(params.pivotSample).map(p => family.project(p.vec)), params.s)
  private val bcPivots = sc.broadcast(pivots)

  /** Empirical original-space distance distribution F (Eq. 4). */
  val distances: EmpiricalDistances =
    EmpiricalDistances.fromSample(sample.take(params.distSample).map(_.vec), seed = params.seed)

  /** One index per partition, kept live: a round's tasks probe the cached
    * objects in place. */
  val indexes: RDD[PartIndex] = {
    // local copies: a lambda referencing a field would capture `this`
    // (which holds the SparkSession) and fail task serialization
    val cap = params.capacity
    val pm = usePmTree
    val bf = bcFamily
    val bp = bcPivots
    Points.indexed[PartIndex](rows, d) { pts =>
      val f = bf.value
      // huge coordinates can overflow to ∞
      val proj = pts.flatMap(p => Slots.requireRow(p.id, "projection", f.project(p.vec), f.m))
      if (pm) new PMTreePart(PMTree.build(pts, proj, bp.value, cap))
      else new RTreePart(RTree.build(pts, proj, f.m, cap))
    }
  }

  /** Dataset cardinality, computed while materializing the index. */
  val n: Long = indexes.map(_.size.toLong).reduce(_ + _)

  /** βn + k — the candidate budget of Algorithms 1/2. */
  def betaNk(k: Int): Long = math.ceil(beta * n).toLong + k

  /** §4.5 radius selection: r with n·F(r) = βn + k, shrunk slightly. */
  def rMin(k: Int): Double = {
    val target = math.min(1.0, betaNk(k).toDouble / n)
    math.max(params.rminShrink * distances.quantile(target), 1e-9)
  }

  /** Each partition's share of the candidate budget βn + k. Algorithm 2
    * line 7 stops searching at βn + k points; with random partitioning each
    * partition holds ~1/P of any candidate set, so an even per-partition
    * share (with 20% headroom for imbalance) realizes the same early stop
    * distributively. Summed in `Long` and clamped, so a huge k cannot wrap
    * it negative. */
  private[core] def partCap(k: Int): Int =
    math.min(math.ceil(1.2 * betaNk(k).toDouble / params.partitions).toLong + k, Int.MaxValue.toLong).toInt

  /** Batched (c,k)-ANN (Algorithm 2) for all queries at once: each round
    * range-searches every partition at t·r, one round per job. Both
    * workloads stop in the first round (`rangelsh.rounds_per_query` is 1),
    * so a job over several radii would search and verify the wider balls
    * for nothing. */
  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    val tt = t
    val cap = partCap(k)
    val f = family
    TopK.radiusRounds(indexes, queries, k, n, betaNk(k), rMin(k), params.c, levels = 1)(f.project) {
      (part, q, qp, rs, crs) => Array.tabulate(rs.length)(j => part.probe(q, qp, tt * rs(j), cap, k, crs(j)))
    }
  }

  /** Algorithm 1 — the (r, c)-BC query. Returns the closest candidate when
    * the ball-cover conditions fire, otherwise None.
    */
  def ballCover(q: Array[Double], r: Double): Option[Neighbor] = {
    val qp = TopK.projectBatch(Array(q), 1)(family.project).head
    val cap = partCap(1)
    // each partition ships its candidate count and its closest candidate
    val rows = TopK.gather(indexes, Array((q, qp, t * r, params.c * r))) { part =>
      { case (qv, qpp, rr, cr) => part.probe(qv, qpp, rr, cap, 1, cr) }
    }
    val res = TopK.merge(rows.head, 1)
    Option.when(res.count >= betaNk(1) || res.withinCr >= 1)(res.neighbors.head)
  }

  def unpersist(): Unit = indexes.unpersist()
}
