package repro.data

import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core.Point
import scala.util.Random

/** Synthetic substitute for one of the paper's real datasets (Table 3).
  *
  * Each cluster is a Gaussian blob living on a random `intrinsicDim`-
  * dimensional subspace of R^d (real image/audio descriptors concentrate
  * on low-dimensional manifolds — that is what the LID statistic of
  * Table 3 measures), plus a `noiseFrac` of uniform points. Knobs per
  * dataset:
  *   - `intrinsicDim` ≈ target LID,
  *   - `clusterStd` sets the cluster radius relative to the unit-cube
  *     center spread, controlling RC (tighter clusters ⇒ nearer NNs ⇒
  *     higher relative contrast),
  *   - `clusters`/`noiseFrac` shape homogeneity (HV).
  * Cardinality is scaled ~50× down from the paper, dimensionality kept
  * (DESIGN.md).
  *
  * Paper-reported reference values (n in thousands, HV, RC, LID) ride
  * along so benches print paper vs measured side by side.
  */
case class HighDimConfig(
    name: String,
    n: Long,
    d: Int,
    clusters: Int,
    intrinsicDim: Int,
    clusterStd: Double,
    noiseFrac: Double,
    seed: Long,
    paperN: Double,
    paperHV: Double,
    paperRC: Double,
    paperLID: Double) {
  def scaled(scale: Double): HighDimConfig =
    copy(n = math.max(64L, math.round(n * scale)))
}

/** Deterministic generator: vec(id) depends only on (seed, id), so the
  * same points come out on every executor, every run, and for the query
  * generator (ids beyond n draw fresh points from the same distribution).
  */
object HighDim {

  /** splitmix64 — cheap deterministic hash driving the subspace bases. */
  private def mix(x: Long): Long = {
    var z = x + 0x9E3779B97F4A7C15L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    z ^ (z >>> 31)
  }

  /** Unit-variance uniform in [-√3, √3] from a hash of (seed, c, j, i). */
  private def basisEntry(seed: Long, cluster: Int, j: Int, i: Int): Double = {
    val h = mix(seed ^ (cluster.toLong * 0x51_7C_C1_B7_27_22_0A_95L) ^ (j.toLong << 32) ^ i.toLong)
    (((h >>> 11).toDouble / (1L << 53).toDouble) * 2.0 - 1.0) * math.sqrt(3.0)
  }

  /** Cluster centers on a sphere of radius √(d/12) around (0.5, …, 0.5):
    * the same pairwise-distance scale as uniform cube centers
    * (E||c1−c2||² = d/6) but with constant norm, so every viewpoint sees
    * the same distance distribution — real descriptors (GIST, deep
    * features) are typically L2-normalized, which is what gives the
    * paper's datasets their HV ≥ 0.92.
    */
  def centers(cfg: HighDimConfig): Array[Array[Double]] = {
    val rng = new Random(cfg.seed)
    val radius = math.sqrt(cfg.d / 12.0)
    Array.fill(cfg.clusters) {
      val g = Array.fill(cfg.d)(rng.nextGaussian())
      val norm = math.sqrt(g.map(x => x * x).sum)
      g.map(x => 0.5 + x / norm * radius)
    }
  }

  /** The vector of point `id` (any id ≥ 0, also used for query points).
    * The raw cluster/noise draw is renormalized onto the sphere of radius
    * √(d/12) around (0.5, …, 0.5) — the synthetic analogue of the L2
    * normalization of real descriptors, which is what gives the paper's
    * datasets HV ≥ 0.92: with one shared norm, every viewpoint sees the
    * same distance distribution.
    */
  def pointVec(cfg: HighDimConfig, cs: Array[Array[Double]], id: Long): Array[Double] = {
    val rng = new Random(cfg.seed * 1000003L + id * 7919L + 17L)
    val raw: Array[Double] =
      if (rng.nextDouble() < cfg.noiseFrac) {
        Array.fill(cfg.d)(rng.nextDouble())
      } else {
        val c = rng.nextInt(cfg.clusters)
        val r = cfg.intrinsicDim
        // 8 subspace variants per cluster: neighbors split across variants,
        // so no query's whole neighborhood shares one flat subspace that a
        // fixed projection family could amplify wholesale (curved-manifold
        // surrogate; bounds correlated recall loss per query)
        val variant = rng.nextInt(8)
        // log-uniform per-point scale in [1/e, e]: spreads neighborhood
        // radii smoothly (real data has a smooth local distance spectrum; a
        // single scale concentrates all non-NN distances into one shell,
        // which makes every radius choice borderline)
        val spread = math.exp((rng.nextDouble() - 0.5) * 2.0)
        val sigma = cfg.clusterStd * spread
        // decaying subspace spectrum: ~r dominant directions out of 5r
        // (participation ratio ≈ r, so LID ≈ r) instead of a flat r-dim
        // subspace — globally flat subspaces let one fixed projection
        // family systematically amplify a whole cluster, which real curved
        // manifolds do not exhibit
        val rSub = math.min(cfg.d, 5 * r)
        val w = Array.tabulate(rSub)(j => math.exp(-j.toDouble / r))
        val wNorm = math.sqrt(w.map(x => x * x).sum)
        val z = Array.tabulate(rSub)(j => rng.nextGaussian() * sigma * w(j) / wNorm)
        // isotropic jitter of half the cluster scale: difference vectors of
        // real descriptors span the full space generically
        val jitter = sigma * 0.5
        val center = cs(c)
        Array.tabulate(cfg.d) { i =>
          var disp = 0.0
          var j = 0
          while (j < rSub) { disp += z(j) * basisEntry(cfg.seed, c * 8 + variant, j, i); j += 1 }
          center(i) + disp + rng.nextGaussian() * jitter
        }
      }
    val radius = math.sqrt(cfg.d / 12.0)
    var sq = 0.0
    var i = 0
    while (i < cfg.d) { val o = raw(i) - 0.5; sq += o * o; i += 1 }
    val scale = radius / math.max(math.sqrt(sq), 1e-12)
    i = 0
    while (i < cfg.d) { raw(i) = 0.5 + (raw(i) - 0.5) * scale; i += 1 }
    raw
  }

  def generate(spark: SparkSession, cfg: HighDimConfig): Dataset[Point] = {
    import spark.implicits._
    val bcCenters = spark.sparkContext.broadcast(centers(cfg))
    spark.range(cfg.n).map(id => Point(id, pointVec(cfg, bcCenters.value, id)))
  }

  /** `count` query vectors drawn from the same distribution (ids n, n+1, …,
    * outside the dataset id range).
    */
  def queryVecs(cfg: HighDimConfig, count: Int): Array[Array[Double]] = {
    val cs = centers(cfg)
    Array.tabulate(count)(i => pointVec(cfg, cs, cfg.n + i))
  }

  /** The 7 datasets of Table 3, cardinality scaled ~50× down, original
    * dimensionality kept. intrinsicDim ≈ the paper's LID; clusterStd tuned
    * so RC orders like the paper (NUS/GIST hardest, Audio/Trevi easiest).
    */
  val benchConfigs: Seq[HighDimConfig] = Seq(
    HighDimConfig("Audio", 5400,  192, 12,  6, 0.20, 0.02, 101, 54,   0.9273, 2.97, 5.6),
    HighDimConfig("Deep",  20000, 256, 30,  8, 0.30, 0.05, 102, 1000, 0.9393, 1.96, 12.1),
    HighDimConfig("NUS",   5380,  500, 10, 14, 0.38, 0.08, 103, 269,  0.9995, 1.67, 24.5),
    HighDimConfig("MNIST", 6000,  784, 12,  6, 0.24, 0.03, 104, 60,   0.9531, 2.38, 6.5),
    HighDimConfig("GIST",  19660, 960, 30, 12, 0.35, 0.06, 105, 983,  0.9670, 1.94, 18.9),
    HighDimConfig("Cifar", 5000, 1024, 10,  6, 0.28, 0.04, 106, 50,   0.9457, 1.97, 9.0),
    HighDimConfig("Trevi", 2000, 4096,  5,  6, 0.18, 0.02, 107, 100,  0.9432, 2.95, 9.2),
  )

  /** Small clustered dataset for unit tests. */
  def testConfig(n: Long, d: Int, seed: Long): HighDimConfig =
    HighDimConfig(s"test-$n-$d", n, d, 10, 6, 0.10, 0.05, seed, 0, 0, 0, 0)
}
