package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** Validates the 2-stable projection facts the whole framework rests on:
  * Lemma 1 (r'²/r² ~ χ²(m)) and the Eq. 2 collision probability.
  */
class GaussianLshSpec extends AnyFunSuite {

  test("projection family is deterministic in seed") {
    val f1 = new ProjectionFamily(16, 8, 123)
    val f2 = new ProjectionFamily(16, 8, 123)
    val f3 = new ProjectionFamily(16, 8, 124)
    assert(f1.a.flatten.toSeq == f2.a.flatten.toSeq)
    assert(f1.a.flatten.toSeq != f3.a.flatten.toSeq)
  }

  test("projection is linear") {
    val f = new ProjectionFamily(8, 5, 7)
    val rng = new Random(1)
    val a = Array.fill(8)(rng.nextDouble())
    val b = Array.fill(8)(rng.nextDouble())
    val sum = a.zip(b).map { case (x, y) => x + y }
    val pa = f.project(a); val pb = f.project(b); val ps = f.project(sum)
    for (i <- 0 until 5) assert(math.abs(pa(i) + pb(i) - ps(i)) < 1e-9)
  }

  test("projection rejects wrong dimensionality") {
    val f = new ProjectionFamily(8, 5, 7)
    intercept[IllegalArgumentException](f.project(Array.fill(9)(0.0)))
  }

  test("Lemma 1: r'^2 / r^2 has mean ~ m across many families") {
    val d = 24
    val rng = new Random(42)
    val o1 = Array.fill(d)(rng.nextDouble())
    val o2 = Array.fill(d)(rng.nextDouble())
    val r2 = Vec.sqDist(o1, o2)
    val m = 15
    val samples = (0 until 400).map { s =>
      val f = new ProjectionFamily(d, m, 1000 + s)
      Vec.sqDist(f.project(o1), f.project(o2)) / r2
    }
    val mean = samples.sum / samples.length
    // mean of chi2(15) is 15; 400 samples => std of mean ~ 0.27
    assert(math.abs(mean - m) < 1.5, s"mean=$mean")
    // variance of chi2(m) is 2m
    val varr = samples.map(x => (x - mean) * (x - mean)).sum / samples.length
    assert(varr > m.toDouble && varr < 4.0 * m, s"var=$varr expected ~${2 * m}")
  }

  test("Lemma 1: r'^2 / r^2 follows chi2(m), KS distance below the alpha = 0.001 critical value") {
    val d = 24
    val m = 15
    val families = 2000
    val rng = new Random(3)
    // fixed pairs, each projected by the same 2 000 fixed-seed families
    for (pair <- 0 until 3) {
      val o1 = Array.fill(d)(rng.nextDouble())
      val o2 = Array.fill(d)(rng.nextDouble() * (pair + 1))
      val r2 = Vec.sqDist(o1, o2)
      val ratios = Array.tabulate(families) { s =>
        val f = new ProjectionFamily(d, m, 5000 + s)
        Vec.sqDist(f.project(o1), f.project(o2)) / r2
      }
      java.util.Arrays.sort(ratios)
      // the empirical CDF steps from i/N to (i + 1)/N at the i-th ratio
      val ks = ratios.indices.map { i =>
        val c = ChiSquared.cdf(ratios(i), m)
        math.max((i + 1).toDouble / families - c, c - i.toDouble / families)
      }.max
      assert(ks < 1.95 / math.sqrt(families.toDouble), s"pair $pair: KS distance $ks")
    }
  }

  test("Lemma 2: r-hat = r'/sqrt(m) is unbiased within sampling error") {
    val d = 24
    val rng = new Random(9)
    val o1 = Array.fill(d)(rng.nextDouble())
    val o2 = Array.fill(d)(rng.nextDouble())
    val r = Vec.dist(o1, o2)
    val m = 100 // large m: estimator concentrates
    val f = new ProjectionFamily(d, m, 77)
    val rHat = Vec.dist(f.project(o1), f.project(o2)) / math.sqrt(m)
    assert(math.abs(rHat - r) / r < 0.25, s"rHat=$rHat r=$r")
  }

  /** The bucket key G(v) = (⌊(a_i·v + b_i)/w⌋)_i; Multi-Probe floors the
    * same coordinates as it builds its tables. */
  private def buckets(lsh: BucketedLsh, v: Array[Double]): Array[Int] = lsh.coords(v).map(x => math.floor(x).toInt)

  test("bucketed hash: floor of shifted projection") {
    val f = new ProjectionFamily(6, 4, 3)
    val lsh = new BucketedLsh(f, 2.0, 11)
    val v = Array.fill(6)(0.3)
    val c = lsh.coords(v)
    val b = buckets(lsh, v)
    for (i <- 0 until 4) {
      assert(b(i) <= c(i) && c(i) < b(i) + 1)
      assert(math.abs(c(i) - (Vec.dot(f.a(i), v) + lsh.b(i)) / 2.0) < 1e-12)
    }
  }

  test("bucketed hash rejects non-positive width") {
    val f = new ProjectionFamily(6, 4, 3)
    intercept[IllegalArgumentException](new BucketedLsh(f, 0.0, 1))
  }

  test("collision probability decreases with distance") {
    val w = 4.0
    var prev = 1.0
    for (tau <- Seq(0.1, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0)) {
      val p = Eq2.collisionProb(tau, w)
      assert(p < prev + 1e-12 && p > 0 && p < 1, s"tau=$tau p=$p")
      prev = p
    }
  }

  test("collision probability approaches 1 as tau -> 0") {
    assert(Eq2.collisionProb(1e-6, 4.0) > 0.999)
    assert(Eq2.collisionProb(0.0, 4.0) == 1.0)
  }

  test("closed-form collision probability matches numeric integral of Eq. 2") {
    val w = 4.0
    for (tau <- Seq(0.5, 1.0, 2.0, 5.0)) {
      // p(tau) = int_0^w (1/tau) f(t/tau) (1 - t/w) dt, f the N(0,1) pdf, doubled
      // (collision requires |delta| < w where delta ~ N(0, tau^2) conditioned on offset)
      val steps = 20000
      val dt = w / steps
      var integral = 0.0
      var i = 0
      while (i < steps) {
        val t = (i + 0.5) * dt
        integral += (1.0 / tau) * Eq2.normalPdf(t / tau) * (1.0 - t / w) * dt
        i += 1
      }
      val numeric = 2.0 * integral // Eq. 2 integrates the positive side
      val closed = Eq2.collisionProb(tau, w)
      assert(math.abs(numeric - closed) < 1e-4, s"tau=$tau numeric=$numeric closed=$closed")
    }
  }

  test("query-aware collision probability: monotone, correct endpoints") {
    val w = 2.41
    assert(GaussianLsh.queryAwareCollisionProb(0.0, w) == 1.0)
    var prev = 1.0
    for (tau <- Seq(0.2, 0.5, 1.0, 2.0, 5.0)) {
      val p = GaussianLsh.queryAwareCollisionProb(tau, w)
      assert(p < prev && p > 0 && p < 1, s"tau=$tau")
      prev = p
    }
  }

  test("(r, cr, p1, p2)-sensitivity: p1 > p2 for c > 1") {
    val w = 4.0
    val p1 = Eq2.collisionProb(1.0, w)
    val p2 = Eq2.collisionProb(1.5, w)
    assert(p1 > p2)
    val q1 = GaussianLsh.queryAwareCollisionProb(1.0, w)
    val q2 = GaussianLsh.queryAwareCollisionProb(1.5, w)
    assert(q1 > q2)
  }
}

/** Eq. 2's collision probability for bucketed hashes and the normal pdf its
  * integral form needs; no engine reads them, so they live with the tests
  * that check them. */
private object Eq2 {

  /** Standard normal pdf φ(x). */
  def normalPdf(x: Double): Double =
    math.exp(-x * x / 2.0) / math.sqrt(2.0 * math.Pi)

  /** Collision probability p(τ) of Eq. 2 for bucketed hashes, in the Datar
    * et al. closed form for the 2-stable case:
    * p(τ) = 2Φ(w/τ) − 1 − (2τ/(√(2π)·w))·(1 − e^{−w²/(2τ²)}).
    */
  def collisionProb(tau: Double, w: Double): Double = {
    require(w > 0, "w must be positive")
    if (tau <= 0) 1.0
    else {
      val t = w / tau
      2 * ChiSquared.normalCdf(t) - 1 -
        (2.0 / (math.sqrt(2 * math.Pi) * t)) * (1 - math.exp(-t * t / 2.0))
    }
  }
}
