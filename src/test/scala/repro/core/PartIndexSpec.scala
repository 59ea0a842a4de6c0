package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** A partition index's primitive probe against a boxed reference: the
  * points within r (membership checked by brute force), kept whole when
  * they fit the cap, else stable-sorted by projected distance and cut to
  * the cap, then verified and summarized by `TopK.of`. The reference takes
  * equal projected distances in the order `range` returns them.
  */
class PartIndexSpec extends AnyFunSuite {

  private val (m, d) = (4, 6)

  /** Coordinates on a coarse grid, so equal projected and true distances
    * are common, and every fourth point duplicates an earlier one. */
  private def randomItems(rng: Random, n: Int): Array[IndexedPoint] = {
    val items = Array.tabulate(n) { i =>
      IndexedPoint(i.toLong, Array.fill(m)(rng.nextInt(6).toDouble), Array.fill(d)(rng.nextInt(6).toDouble))
    }
    (1 until n by 4).foreach(i => items(i) = items(rng.nextInt(i)).copy(id = i.toLong))
    items
  }

  private def bits(xs: Array[Double]): Seq[Long] = xs.toSeq.map(java.lang.Double.doubleToRawLongBits)

  private def checkAgainstReference(build: Array[IndexedPoint] => (PartIndex, (Array[Double], Double) => IndexedSeq[(IndexedPoint, Double)])): Unit = {
    val rng = new Random(17)
    var truncated = 0
    for (trial <- 0 until 40) {
      val items = randomItems(rng, 50 + rng.nextInt(250))
      val (part, range) = build(items)
      for (_ <- 0 until 5) {
        val qp = Array.fill(m)(rng.nextDouble() * 6)
        val q = Array.fill(d)(rng.nextDouble() * 6)
        val r = 1.0 + rng.nextDouble() * 4
        val cap = if (rng.nextBoolean()) Int.MaxValue else 1 + rng.nextInt(30)
        val k = 1 + rng.nextInt(12)
        val cr = rng.nextDouble() * 8

        val inRange = range(qp, r)
        assert(inRange.map(_._1.id).sorted == items.filter(p => Vec.dist(qp, p.proj) <= r).map(_.id).toSeq.sorted)
        val kept = if (inRange.length <= cap) inRange else inRange.sortBy(_._2).take(cap)
        if (kept.length < inRange.length) truncated += 1
        val want = TopK.of(kept.map(_._1.id).toArray, kept.map(c => Vec.dist(q, c._1.vec)).toArray, k, cr)

        val got = part.probe(q, qp, r, cap, k, cr)
        assert(got.count == want.count && got.withinCr == want.withinCr, s"trial $trial")
        assert(got.ids.toSeq == want.ids.toSeq && bits(got.dists) == bits(want.dists), s"trial $trial")
        val cands = part.rangeSearch(qp, r, cap).toSeq
        assert(cands.map(_._1.id) == kept.map(_._1.id) && cands.map(_._2) == kept.map(_._2))
      }
    }
    assert(truncated > 0, "no trial cut a range result at its cap")
  }

  test("PMTreePart.probe equals the reference, with duplicates and truncating caps") {
    checkAgainstReference { items =>
      val tree = PMTree.build(items, PMTree.selectPivots(items.take(50).map(_.proj), 3), 4)
      (new PMTreePart(tree), tree.range _)
    }
  }

  test("RTreePart.probe equals the reference, with duplicates and truncating caps") {
    checkAgainstReference { items =>
      val tree = RTree.build(items, 4)
      (new RTreePart(tree), tree.range _)
    }
  }

  test("a built tree numbers its slots in leaf order and keeps every point") {
    val items = randomItems(new Random(3), 200)
    val pm = PMTree.build(items, PMTree.selectPivots(items.map(_.proj), 3), 4)
    val rt = RTree.build(items, 4)
    val byId = items.map(p => p.id -> p).toMap
    Seq(pm.items -> pm.points, rt.items -> rt.points).foreach { case (leafOrder, pts) =>
      assert(leafOrder.map(_.id).toSeq == pts.ids.toSeq)
      leafOrder.foreach(p => assert(p.proj.sameElements(byId(p.id).proj) && p.vec.sameElements(byId(p.id).vec)))
      assert(pts.ids.sorted.toSeq == items.map(_.id).toSeq)
    }
  }

  test("the payload rejects a short row or a non-finite coordinate, naming the point") {
    val ok = IndexedPoint(1L, Array(0.0, 1.0), Array(1.0, 2.0, 3.0))
    Seq(ok.copy(id = 7L, vec = Array(1.0, 2.0)), ok.copy(id = 7L, proj = Array(0.0)),
        ok.copy(id = 7L, vec = Array(1.0, Double.NaN, 3.0)),
        ok.copy(id = 7L, proj = Array(Double.PositiveInfinity, 0.0))).foreach { bad =>
      Seq[Array[IndexedPoint] => Any](PMTree.build(_, Array(Array(0.0, 0.0)), 4), RTree.build(_, 4)).foreach { build =>
        val e = intercept[IllegalArgumentException](build(Array(ok, bad)))
        assert(e.getMessage.contains("point 7"), e.getMessage)
      }
    }
  }
}
