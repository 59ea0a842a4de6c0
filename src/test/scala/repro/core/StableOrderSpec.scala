package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite

/** `StableOrder.bound`, the one binary search behind the empirical CDFs
  * (F of Eq. 4, G_i of Eq. 8) and QALSH's window search, against the two
  * loops it replaced, on inputs full of ties, ±0.0, ±∞ and NaN. */
class StableOrderSpec extends AnyFunSuite {

  /** The empirical CDF's former loop: how many of the sorted entries are ≤ x. */
  private def cdfLoop(sorted: Array[Double], x: Double): Int = {
    var lo = 0
    var hi = sorted.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (sorted(mid) <= x) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** QALSH's former window search: the first index whose value is ≥ x
    * (`inclusive`) or > x (not). */
  private def windowLoop(a: Array[Double], x: Double, inclusive: Boolean): Int = {
    var lo = 0; var hi = a.length
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (a(mid) < x || (!inclusive && a(mid) == x)) lo = mid + 1 else hi = mid
    }
    lo
  }

  private val special = Seq(Double.NaN, 0.0, -0.0, Double.PositiveInfinity, Double.NegativeInfinity,
    Double.MinPositiveValue, -Double.MinPositiveValue, Double.MaxValue, 1.0, -1.0)
  // few distinct values, so ties are common
  private val valueGen: Gen[Double] = Gen.frequency(
    3 -> Gen.oneOf(special), 3 -> Gen.choose(-4, 4).map(_ * 0.5), 1 -> Gen.choose(-1e3, 1e3))
  private val caseGen = Gen.zip(Gen.choose(0, 40).flatMap(Gen.listOfN(_, valueGen)), valueGen)

  test("bound agrees with the CDF loop and the window search it replaced, NaN and ±0.0 included (scalacheck)") {
    val prop = Prop.forAll(caseGen) { case (raw, y) =>
      val values = raw.toArray
      // the CDFs sort with Arrays.sort, QALSH's windows with StableOrder.of
      val sorted = values.clone(); java.util.Arrays.sort(sorted)
      val windows = StableOrder.of(values).map(values)
      (y +: values.toSeq).forall { x =>
        StableOrder.bound(sorted, x, upper = true) == cdfLoop(sorted, x) &&
          (sorted.isEmpty || new EmpiricalDistances(sorted).cdf(x) == cdfLoop(sorted, x).toDouble / sorted.length) &&
          StableOrder.bound(windows, x, upper = false) == windowLoop(windows, x, inclusive = true) &&
          StableOrder.bound(windows, x, upper = true) == windowLoop(windows, x, inclusive = false)
      }
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(2000), prop).passed)
  }

  test("bound: lower and upper ends of a run of equal values, -0.0 equal to 0.0") {
    val a = Array(-1.0, -0.0, 0.0, 0.0, 2.0)
    assert(StableOrder.bound(a, 0.0, upper = false) == 1)
    assert(StableOrder.bound(a, -0.0, upper = true) == 4)
    assert(StableOrder.bound(a, 5.0, upper = false) == 5)
    assert(StableOrder.bound(a, Double.NaN, upper = true) == 0)
    assert(StableOrder.bound(Array.emptyDoubleArray, 1.0, upper = true) == 0)
  }
}
