package repro.core

import scala.util.Random

/** Empirical distance distribution F(x) = Pr[||o_i, o_j|| ≤ x] (Eq. 4),
  * estimated from pairwise distances of a sample. Used to pick r_min for
  * Algorithm 2 (§4.5: find r with n·F(r) = βn + k, then shrink slightly),
  * the Table-2 query radius (the "nearest 8%" quantile), and the cost
  * models. The paper justifies using one global F per dataset by the high
  * homogeneity of viewpoints (HV ≥ 0.9) of all datasets.
  *
  * Over one sorted column of projected coordinates instead of pair
  * distances, the same class is the per-dimension CDF G_i of the R-tree
  * cost model (Eq. 8, `CostModel.cdfPerDim`).
  */
final class EmpiricalDistances(val sorted: Array[Double]) extends Serializable {
  require(sorted.nonEmpty, "empty distance sample")

  /** F(x): fraction of sampled pair distances ≤ x. */
  def cdf(x: Double): Double = StableOrder.bound(sorted, x, upper = true).toDouble / sorted.length

  /** F⁻¹(q): the q-quantile of pair distances, q ∈ [0, 1]. */
  def quantile(q: Double): Double = {
    val qq = math.max(0.0, math.min(1.0, q))
    sorted(math.min(sorted.length - 1, math.round(qq * (sorted.length - 1)).toInt))
  }

  def mean: Double = sorted.sum / sorted.length
}

object EmpiricalDistances {

  private val MaxPairs = 50000

  /** Pairwise distances among `vecs`, subsampled to at most `MaxPairs`
    * pairs drawn with `seed`. */
  def fromSample(vecs: Array[Array[Double]], seed: Long): EmpiricalDistances = {
    require(vecs.length >= 2, s"need >= 2 vectors, got ${vecs.length}")
    val n = vecs.length
    val totalPairs = n.toLong * (n - 1) / 2
    val rng = new Random(seed)
    val dists =
      if (totalPairs <= MaxPairs) {
        val out = new Array[Double](totalPairs.toInt)
        var idx = 0
        var i = 0
        while (i < n) {
          var j = i + 1
          while (j < n) { out(idx) = Vec.dist(vecs(i), vecs(j)); idx += 1; j += 1 }
          i += 1
        }
        out
      } else {
        Array.fill(MaxPairs) {
          val i = rng.nextInt(n)
          var j = rng.nextInt(n)
          while (j == i) j = rng.nextInt(n)
          Vec.dist(vecs(i), vecs(j))
        }
      }
    java.util.Arrays.sort(dists)
    new EmpiricalDistances(dists)
  }
}
