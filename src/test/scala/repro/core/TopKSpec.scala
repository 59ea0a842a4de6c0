package repro.core

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop, Test => SCTest}

/** The per-partition top-k plus counts that the query rounds ship: summing
  * the counts and merging the partitions' top-k lists must give the same
  * answer as shipping every candidate and sorting them all on the driver.
  */
class TopKSpec extends AnyFunSuite {

  // few distinct distances, so ties are common; empty partitions included
  private val partGen: Gen[List[(Long, Double)]] =
    Gen.choose(0, 25).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(0L, 1000L), Gen.choose(0, 8).map(_ * 0.25))))
  private val caseGen = Gen.zip(Gen.choose(0, 6).flatMap(Gen.listOfN(_, partGen)),
    Gen.choose(0, 30), Gen.choose(0, 8).map(_ * 0.25))

  test("merged per-partition top-k and summed counts equal sorting every candidate (scalacheck)") {
    val prop = Prop.forAll(caseGen) { case (parts, k, cr) =>
      val all = parts.flatten
      val expected = all.sortBy(_._2).take(k)
      val merged = TopK.merge(parts.map(p => TopK.of(p.map(_._1).toArray, p.map(_._2).toArray, k, cr)), k)
      merged.count == all.length &&
        merged.withinCr == all.count(_._2 <= cr) &&
        merged.ids.toSeq == expected.map(_._1) &&
        merged.dists.toSeq == expected.map(_._2)
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }

  test("a partition keeps its k nearest, equal distances in input order") {
    val top = TopK.of(Array(10L, 11L, 12L, 13L, 14L), Array(2.0, 1.0, 2.0, 1.0, 0.5), 3, 1.0)
    assert(top.ids.toSeq == Seq(14L, 11L, 13L))
    assert(top.count == 5 && top.withinCr == 3)
    assert(top.neighbors.toSeq == Seq(Neighbor(14L, 0.5), Neighbor(11L, 1.0), Neighbor(13L, 1.0)))
  }

  test("non-finite query coordinates are rejected") {
    Vec.requireFinite(Array(Array(0.0, -1.5)))
    intercept[IllegalArgumentException](Vec.requireFinite(Array(Array(0.0), Array(Double.NaN))))
    intercept[IllegalArgumentException](Vec.requireFinite(Array(Array(Double.NegativeInfinity))))
  }
}
