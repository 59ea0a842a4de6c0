package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** The Table-2 cost models (Eqs. 4–9). */
class CostModelSpec extends AnyFunSuite {

  test("G_i: empirical per-dimension CDF") {
    val g = CostModel.cdfPerDim(Array(4.0, 1.0, 3.0, 2.0).map(Array(_))).head
    assert(g.cdf(0.5) == 0.0)
    assert(g.cdf(1.0) == 0.25)
    assert(g.cdf(2.5) == 0.5)
    assert(g.cdf(10.0) == 1.0)
  }

  test("G_i rejects an empty sample") {
    intercept[IllegalArgumentException](new EmpiricalDistances(Array.empty))
    intercept[IllegalArgumentException](CostModel.cdfPerDim(Array.empty))
  }

  test("cdfPerDim builds one CDF per dimension") {
    val projs = Array(Array(1.0, 10.0), Array(2.0, 20.0), Array(3.0, 30.0))
    val gs = CostModel.cdfPerDim(projs)
    assert(gs.length == 2)
    assert(gs(0).cdf(1.5) == 1.0 / 3 && gs(1).cdf(15.0) == 1.0 / 3)
  }

  test("isochoric cube side: exact in 1 and 2 dimensions") {
    // 1-ball of radius r is a segment of length 2r -> cube side 2r
    assert(math.abs(CostModel.isochoricCubeSide(1, 3.0) - 6.0) < 1e-9)
    // 2-ball area pi r^2 -> square side sqrt(pi) r
    assert(math.abs(CostModel.isochoricCubeSide(2, 1.0) - math.sqrt(math.Pi)) < 1e-9)
  }

  test("isochoric cube side shrinks relative to r as m grows") {
    val sides = Seq(2, 5, 15, 30).map(m => CostModel.isochoricCubeSide(m, 1.0))
    sides.sliding(2).foreach {
      case Seq(a, b) => assert(b < a)
      case _         =>
    }
  }

  private def randomItems(n: Int, m: Int, seed: Long): Array[IndexedPoint] = {
    val rng = new Random(seed)
    val centers = Array.fill(8)(Array.fill(m)(rng.nextDouble() * 10))
    Array.tabulate(n) { i =>
      val c = centers(rng.nextInt(centers.length))
      IndexedPoint(i.toLong, Array.tabulate(m)(j => c(j) + rng.nextGaussian() * 0.5), Array.empty)
    }
  }

  test("tiny tree (root only): cost equals n for both models") {
    val items = randomItems(10, 4, 1)
    val pm = PMTree.build(items, PMTree.selectPivots(items.map(_.proj), 2), 16)
    val rt = RTree.build(items, 16)
    val f = EmpiricalDistances.fromSample(items.map(_.proj), seed = 7)
    val gs = CostModel.cdfPerDim(items.map(_.proj))
    assert(CostModel.pmTreeCost(pm.nodeSummaries, f, 1.0) == 10.0)
    assert(CostModel.rTreeCost(rt.nodeSummaries, gs, 1.0) == 10.0)
  }

  test("costs are positive and bounded by total entry count") {
    val items = randomItems(2000, 15, 2)
    val pm = PMTree.build(items, PMTree.selectPivots(items.take(200).map(_.proj), 5), 16)
    val rt = RTree.build(items, 16)
    val f = EmpiricalDistances.fromSample(items.take(400).map(_.proj), seed = 7)
    val gs = CostModel.cdfPerDim(items.map(_.proj))
    val rq = f.quantile(0.08)
    val ccPm = CostModel.pmTreeCost(pm.nodeSummaries, f, rq)
    val ccR = CostModel.rTreeCost(rt.nodeSummaries, gs, rq)
    val pmEntries = pm.nodeSummaries.map(_.nEntries).sum
    val rEntries = rt.nodeSummaries.map(_.nEntries).sum
    assert(ccPm > 0 && ccPm <= pmEntries, s"ccPm=$ccPm entries=$pmEntries")
    assert(ccR > 0 && ccR <= rEntries, s"ccR=$ccR entries=$rEntries")
  }

  test("cost grows with the query radius") {
    val items = randomItems(1500, 15, 3)
    val pm = PMTree.build(items, PMTree.selectPivots(items.take(200).map(_.proj), 5), 16)
    val f = EmpiricalDistances.fromSample(items.take(400).map(_.proj), seed = 7)
    val small = CostModel.pmTreeCost(pm.nodeSummaries, f, f.quantile(0.02))
    val large = CostModel.pmTreeCost(pm.nodeSummaries, f, f.quantile(0.5))
    assert(large > small, s"small=$small large=$large")
  }

  test("Table-2 shape on clustered 15-dim data: PM-tree cost not above R-tree's") {
    val items = randomItems(3000, 15, 4)
    val pm = PMTree.build(items, PMTree.selectPivots(items.take(300).map(_.proj), 5), 16)
    val rt = RTree.build(items, 16)
    val f = EmpiricalDistances.fromSample(items.take(500).map(_.proj), seed = 7)
    val gs = CostModel.cdfPerDim(items.map(_.proj))
    val rq = f.quantile(0.08)
    val ccPm = CostModel.pmTreeCost(pm.nodeSummaries, f, rq)
    val ccR = CostModel.rTreeCost(rt.nodeSummaries, gs, rq)
    assert(ccPm <= ccR * 1.2, s"ccPm=$ccPm ccR=$ccR")
  }

  test("model correlates with measured distance computations (PM-tree)") {
    val items = randomItems(3000, 15, 6)
    val pm = PMTree.build(items, PMTree.selectPivots(items.take(300).map(_.proj), 5), 16)
    val f = EmpiricalDistances.fromSample(items.take(500).map(_.proj), seed = 7)
    val rq = f.quantile(0.08)
    val modeled = CostModel.pmTreeCost(pm.nodeSummaries, f, rq)
    pm.resetDistCount()
    val rng = new Random(8)
    val trials = 10
    for (_ <- 0 until trials) pm.range(items(rng.nextInt(items.length)).proj, rq)
    val measured = pm.distCount.toDouble / trials
    // same order of magnitude (the model is an estimate, not an oracle)
    assert(measured < modeled * 10 && modeled < measured * 10,
      s"modeled=$modeled measured=$measured")
  }
}
