package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

class VecSpec extends AnyFunSuite {

  test("dot of orthogonal unit vectors is 0") {
    assert(Vec.dot(Array(1.0, 0.0), Array(0.0, 1.0)) == 0.0)
  }

  test("dist of identical vectors is 0") {
    val v = Array(1.5, -2.5, 3.0)
    assert(Vec.dist(v, v) == 0.0)
    assert(Vec.sqDist(v, v) == 0.0)
  }

  test("3-4-5 triangle") {
    assert(Vec.dist(Array(0.0, 0.0), Array(3.0, 4.0)) == 5.0)
  }

  test("mean is element-wise") {
    assert(Vec.mean(Seq(Array(0.0, 2.0), Array(2.0, 0.0))).toSeq == Seq(1.0, 1.0))
  }

  test("mean of empty set rejected") {
    intercept[IllegalArgumentException](Vec.mean(Seq.empty))
  }

  private val vecGen: Gen[Array[Double]] =
    Gen.containerOfN[Array, Double](8, Gen.choose(-100.0, 100.0))

  test("triangle inequality (scalacheck)") {
    val prop = Prop.forAll(vecGen, vecGen, vecGen) { (a, b, c) =>
      Vec.dist(a, c) <= Vec.dist(a, b) + Vec.dist(b, c) + 1e-9
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)
  }

  test("symmetry and non-negativity (scalacheck)") {
    val prop = Prop.forAll(vecGen, vecGen) { (a, b) =>
      Vec.dist(a, b) >= 0.0 && math.abs(Vec.dist(a, b) - Vec.dist(b, a)) < 1e-12
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)
  }

  test("sqDist consistent with dist (scalacheck)") {
    val prop = Prop.forAll(vecGen, vecGen) { (a, b) =>
      math.abs(math.sqrt(Vec.sqDist(a, b)) - Vec.dist(a, b)) < 1e-9
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop).passed)
  }

  test("dist against a row of a flat array equals dist against the row, bit for bit (scalacheck)") {
    val gen = for {
      d <- Gen.choose(0, 20)
      rows <- Gen.choose(1, 6)
      q <- Gen.containerOfN[Array, Double](d, Gen.choose(-1e3, 1e3))
      flat <- Gen.containerOfN[Array, Double](d * rows, Gen.choose(-1e3, 1e3))
      i <- Gen.choose(0, rows - 1)
    } yield (q, flat, i)
    val prop = Prop.forAll(gen) { case (q, flat, i) =>
      val d = q.length
      val row = flat.slice(i * d, i * d + d)
      java.lang.Double.doubleToRawLongBits(Vec.dist(q, flat, i * d)) ==
        java.lang.Double.doubleToRawLongBits(Vec.dist(q, row)) &&
        java.lang.Double.doubleToRawLongBits(Vec.sqDist(q, flat, i * d)) ==
        java.lang.Double.doubleToRawLongBits(Vec.sqDist(q, row))
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }
}
