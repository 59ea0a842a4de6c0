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

  /** ||a − b||² summed term by term in index order: the order `sqDist`
    * promises, kept here so a change to the kernel's arithmetic shows. */
  private def sequentialSqDist(a: Array[Double], b: Array[Double]): Double = {
    var s = 0.0
    for (i <- a.indices) { val d = a(i) - b(i); s += d * d }
    s
  }

  private def bits(x: Double): Long = java.lang.Double.doubleToRawLongBits(x)

  /** Up to 9 rows of one length 0–19 in a flat array, a query of that
    * length, and as many row offsets, drawn with repeats. */
  private val rowsGen = for {
    d <- Gen.choose(0, 19)
    rows <- Gen.choose(0, 9)
    q <- Gen.containerOfN[Array, Double](d, Gen.choose(-1e3, 1e3))
    flat <- Gen.containerOfN[Array, Double](d * rows, Gen.choose(-1e3, 1e3))
    picks <- Gen.listOfN(rows, Gen.choose(0, math.max(0, rows - 1)))
  } yield (q, flat, picks.toArray.map(_ * d))

  test("sqDist sums in index order: equal to a sequential loop, bit for bit, at lengths 0-19 (scalacheck)") {
    val prop = Prop.forAll(rowsGen) { case (q, flat, offs) =>
      offs.forall(o => bits(Vec.sqDist(q, flat, o)) == bits(sequentialSqDist(q, flat.slice(o, o + q.length))))
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }

  test("sqDist4 gives each of its four rows the bits of sqDist, at lengths 0-19 (scalacheck)") {
    val prop = Prop.forAll(rowsGen) { case (q, flat, offs) =>
      offs.length < 4 || {
        val out = Array.fill(6)(Double.NaN)
        Vec.sqDist4(q, flat, offs(0), offs(1), offs(2), offs(3), out, 1)
        out(0).isNaN && out(5).isNaN && (0 until 4).forall(j => bits(out(j + 1)) == bits(Vec.sqDist(q, flat, offs(j))))
      }
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }

  test("Slots.verify's distances are dist's, bit for bit, for every count of slots mod 4 (scalacheck)") {
    val prop = Prop.forAll(rowsGen) { case (q, flat, offs) =>
      val d = q.length
      val n = if (d == 0) 0 else flat.length / d
      val pts = new Slots(Array.tabulate(n)(_.toLong + 100), Array.emptyDoubleArray, flat, 0, d)
      val slots = if (d == 0) Array.emptyIntArray else offs.map(_ / d)
      val top = pts.verify(q, slots, slots.length, slots.length, Double.PositiveInfinity)
      top.count == slots.length && top.withinCr == slots.length &&
        top.ids.zip(top.dists.map(bits)).sorted.toSeq ==
          slots.map(s => (s + 100L, bits(Vec.dist(q, flat, s * d)))).sorted.toSeq
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }
}
