package repro.core

/** χ² and normal distribution numerics, built from scratch (the offline
  * image ships no statistics library).
  *
  * Provides exactly what PM-LSH's tunable confidence interval (Lemma 3,
  * Eq. 10) and SRS's early-termination test need: the χ²(m) CDF, its upper
  * quantile χ²_α(m) (P[X > q] = α), and the standard normal CDF.
  *
  * Implementation: Lanczos log-gamma + regularized incomplete gamma
  * P(a, x) via the classic series / continued-fraction split (Numerical
  * Recipes `gammp`), quantiles by bisection (monotone CDF, ~60 iterations
  * to ~1e-12 — negligible cost, called O(1) times per query plan).
  */
object ChiSquared {

  private val LanczosG = 7.0
  private val LanczosCoefs = Array(
    0.99999999999980993, 676.5203681218851, -1259.1392167224028,
    771.32342877765313, -176.61502916214059, 12.507343278686905,
    -0.13857109526572012, 9.9843695780195716e-6, 1.5056327351493116e-7)

  /** Natural log of the gamma function, x > 0. */
  def logGamma(x: Double): Double = {
    require(x > 0, s"logGamma requires x > 0, got $x")
    if (x < 0.5) {
      // reflection
      math.log(math.Pi / math.sin(math.Pi * x)) - logGamma(1.0 - x)
    } else {
      val z = x - 1.0
      var a = LanczosCoefs(0)
      val t = z + LanczosG + 0.5
      var i = 1
      while (i < LanczosCoefs.length) { a += LanczosCoefs(i) / (z + i); i += 1 }
      0.5 * math.log(2 * math.Pi) + (z + 0.5) * math.log(t) - t + math.log(a)
    }
  }

  private val Eps = 1e-14
  private val MaxIter = 500

  /** Regularized lower incomplete gamma P(a, x) = γ(a,x)/Γ(a) ∈ [0,1]. */
  def regularizedGammaP(a: Double, x: Double): Double = {
    require(a > 0, s"regularizedGammaP requires a > 0, got $a")
    if (x <= 0.0) 0.0
    else if (x < a + 1.0) {
      // series representation converges fast here
      var ap = a
      var sum = 1.0 / a
      var del = sum
      var i = 0
      while (i < MaxIter && math.abs(del) > math.abs(sum) * Eps) {
        ap += 1.0
        del *= x / ap
        sum += del
        i += 1
      }
      sum * math.exp(-x + a * math.log(x) - logGamma(a))
    } else {
      // continued fraction for Q(a, x), Lentz's method
      var b = x + 1.0 - a
      var c = 1.0 / 1e-300
      var d = 1.0 / b
      var h = d
      var i = 1
      var break = false
      while (i <= MaxIter && !break) {
        val an = -i * (i - a)
        b += 2.0
        d = an * d + b; if (math.abs(d) < 1e-300) d = 1e-300
        c = b + an / c; if (math.abs(c) < 1e-300) c = 1e-300
        d = 1.0 / d
        val del = d * c
        h *= del
        if (math.abs(del - 1.0) < Eps) break = true
        i += 1
      }
      1.0 - h * math.exp(-x + a * math.log(x) - logGamma(a))
    }
  }

  /** CDF of a χ² distribution with m degrees of freedom at x. */
  def cdf(x: Double, m: Int): Double = {
    require(m > 0, s"chi-squared needs m > 0, got $m")
    if (x <= 0) 0.0 else regularizedGammaP(m / 2.0, x / 2.0)
  }

  /** Upper quantile χ²_α(m): the x with P[X > x] = α (paper's notation). */
  def upperQuantile(alpha: Double, m: Int): Double = {
    require(alpha > 0 && alpha < 1, s"alpha must be in (0,1), got $alpha")
    val target = 1.0 - alpha // cdf(x) = 1 - alpha
    var lo = 0.0
    var hi = math.max(10.0, m + 20.0 * math.sqrt(2.0 * m))
    while (cdf(hi, m) < target) hi *= 2
    var i = 0
    while (i < 200 && hi - lo > 1e-12 * math.max(1.0, hi)) {
      val mid = 0.5 * (lo + hi)
      if (cdf(mid, m) < target) lo = mid else hi = mid
      i += 1
    }
    0.5 * (lo + hi)
  }

  /** Standard normal CDF Φ(x), via the incomplete gamma relation to erf. */
  def normalCdf(x: Double): Double = {
    val p = regularizedGammaP(0.5, x * x / 2.0) // = erf(|x|/√2)
    if (x >= 0) 0.5 * (1.0 + p) else 0.5 * (1.0 - p)
  }
}
