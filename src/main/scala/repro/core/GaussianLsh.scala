package repro.core

import scala.util.Random

/** The 2-stable (Gaussian) LSH family of the paper (§2.2, §3.2).
  *
  * `h*(o) = a·o` with a ~ N(0, I_d) projects a point into one dimension of
  * the m-dimensional projected space; `h(o) = ⌊(a·o + b)/w⌋` is the
  * bucketed variant used by E2LSH-style methods (Multi-Probe).
  *
  * Deterministic in (d, m, seed) so executors rebuilt from a broadcast see
  * identical hash functions.
  */
final class ProjectionFamily(val d: Int, val m: Int, val seed: Long) extends Serializable {

  /** m × d Gaussian projection matrix (the vectors ~a of Eq. 1/Eq. 3).
    * The seed is scrambled (splitmix64 finalizer) so that a caller reusing
    * one seed value for both data generation and hashing cannot hand the
    * family the same java.util.Random stream the data was drawn from —
    * correlated projections silently break the 2-stable distance model.
    */
  val a: Array[Array[Double]] = {
    var z = seed ^ 0x6A09E667F3BCC909L
    z = (z ^ (z >>> 30)) * 0xBF58476D1CE4E5B9L
    z = (z ^ (z >>> 27)) * 0x94D049BB133111EBL
    val rng = new Random(z ^ (z >>> 31))
    Array.fill(m)(Array.fill(d)(rng.nextGaussian()))
  }

  /** All m projections h*_1(v), …, h*_m(v) — the point in projected space. */
  def project(v: Array[Double]): Array[Double] = {
    require(v.length == d, s"expected dimension $d, got ${v.length}")
    val out = new Array[Double](m)
    var i = 0
    while (i < m) { out(i) = Vec.dot(a(i), v); i += 1 }
    out
  }
}

/** Bucketed compound hash G(o) = (h_1(o), …, h_m(o)) with h_i = ⌊(a_i·o+b_i)/w⌋. */
final class BucketedLsh(val family: ProjectionFamily, val w: Double, bSeed: Long)
    extends Serializable {
  require(w > 0, s"bucket width must be positive, got $w")

  val b: Array[Double] = {
    val rng = new Random(bSeed)
    Array.fill(family.m)(rng.nextDouble() * w)
  }

  /** Real-valued (pre-floor) coordinates (a_i·o + b_i)/w — Multi-Probe
    * derives its boundary distances from these. */
  def coords(v: Array[Double]): Array[Double] = {
    val p = family.project(v)
    var i = 0
    while (i < p.length) { p(i) = (p(i) + b(i)) / w; i += 1 }
    p
  }
}

object GaussianLsh {

  /** Query-aware collision probability used by QALSH: the probability that
    * |a·(o − q)| ≤ w/2 at distance τ, i.e. 2Φ(w/(2τ)) − 1.
    */
  def queryAwareCollisionProb(tau: Double, w: Double): Double = {
    require(w > 0, "w must be positive")
    if (tau <= 0) 1.0 else 2 * ChiSquared.normalCdf(w / (2 * tau)) - 1
  }
}
