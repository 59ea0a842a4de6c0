package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The Fig.-3-style estimator comparison backing Lemma 2: the paper's L2
  * estimator must beat L1, QD, and Rand on mean squared error of the
  * estimated distances (and hence on candidate ranking quality).
  */
class EstimatorsSpec extends AnyFunSuite {

  private val d = 32
  private val m = 15
  private val fam = new ProjectionFamily(d, m, 5)
  private val rng = new Random(31)
  private val pairs: Seq[(Array[Double], Array[Double])] =
    Seq.fill(300)((Array.fill(d)(rng.nextDouble()), Array.fill(d)(rng.nextDouble())))

  private def mse(est: (Array[Double], Array[Double], Long) => Double): Double = {
    val errs = pairs.zipWithIndex.map { case ((a, b), i) =>
      val r = Vec.dist(a, b)
      val e = est(fam.project(a), fam.project(b), i.toLong)
      (e - r) * (e - r)
    }
    errs.sum / errs.length
  }

  test("L2 estimator is nearly unbiased") {
    val rel = pairs.map { case (a, b) =>
      Estimators.l2(fam.project(a), fam.project(b)) / Vec.dist(a, b)
    }
    val mean = rel.sum / rel.length
    assert(math.abs(mean - 1.0) < 0.1, s"mean ratio $mean")
  }

  test("L1 estimator is nearly unbiased") {
    val rel = pairs.map { case (a, b) =>
      Estimators.l1(fam.project(a), fam.project(b)) / Vec.dist(a, b)
    }
    val mean = rel.sum / rel.length
    assert(math.abs(mean - 1.0) < 0.12, s"mean ratio $mean")
  }

  test("L2 beats Rand by a wide margin") {
    val scale = pairs.map { case (a, b) => Vec.dist(a, b) }.max * 1.5
    val mseL2 = mse((a, b, _) => Estimators.l2(a, b))
    val mseRand = mse((_, _, i) => Estimators.rand(99, i, scale))
    assert(mseL2 < mseRand / 3.0, s"l2=$mseL2 rand=$mseRand")
  }

  test("L2 beats or matches L1 (the MLE property)") {
    val mseL2 = mse((a, b, _) => Estimators.l2(a, b))
    val mseL1 = mse((a, b, _) => Estimators.l1(a, b))
    assert(mseL2 < mseL1 * 1.15, s"l2=$mseL2 l1=$mseL1")
  }

  test("L2 beats QD (bucket granularity loses precision)") {
    val w = 2.0
    val mseL2 = mse((a, b, _) => Estimators.l2(a, b))
    val mseQd = mse((a, b, _) => Estimators.qd(a, b, w))
    assert(mseL2 < mseQd, s"l2=$mseL2 qd=$mseQd")
  }

  test("QD is a lower bound of the per-dimension distance") {
    val (a, b) = pairs.head
    val pa = fam.project(a); val pb = fam.project(b)
    assert(Estimators.qd(pa, pb, 2.0) <= Estimators.l2(pa, pb) + 1e-12)
  }

  test("QD of identical points is 0; rejects bad width") {
    val p = fam.project(pairs.head._1)
    assert(Estimators.qd(p, p, 2.0) == 0.0)
    intercept[IllegalArgumentException](Estimators.qd(p, p, 0.0))
  }

  test("ranking quality: top-T by L2 estimate recalls true NNs better than Rand") {
    val base = pairs.map(_._1).toArray
    val q = Array.fill(d)(rng.nextDouble())
    val qp = fam.project(q)
    val trueTop = base.zipWithIndex.sortBy { case (v, _) => Vec.dist(q, v) }.take(20).map(_._2).toSet
    val byL2 = base.zipWithIndex.sortBy { case (v, _) => Estimators.l2(qp, fam.project(v)) }
      .take(60).map(_._2).toSet
    val byRand = base.zipWithIndex.sortBy { case (_, i) => Estimators.rand(7, i.toLong, 1.0) }
      .take(60).map(_._2).toSet
    val recallL2 = trueTop.intersect(byL2).size
    val recallRand = trueTop.intersect(byRand).size
    assert(recallL2 > recallRand, s"l2=$recallL2 rand=$recallRand")
  }
}
