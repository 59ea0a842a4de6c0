package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** A partition index's primitive probe against a boxed reference: the
  * points within r (membership checked by brute force), kept whole when
  * they fit the cap, else the first `cap` of a stable sort by projected
  * distance, kept in traversal order, then verified and summarized by
  * `TopK.of`. The reference takes equal projected distances in the order
  * `range` returns them.
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
        if (inRange.length > cap) truncated += 1
        checkProbe(part, inRange, q, qp, r, cap, k, cr, s"trial $trial")
      }
    }
    assert(truncated > 0, "no trial cut a range result at its cap")
  }

  /** `part.probe` and `part.rangeSearch` against the reference built from
    * `inRange`, the ball in traversal order. */
  private def checkProbe(part: PartIndex, inRange: IndexedSeq[(IndexedPoint, Double)], q: Array[Double],
                         qp: Array[Double], r: Double, cap: Int, k: Int, cr: Double, clue: String): Unit = {
    val nearest = inRange.indices.sortBy(inRange(_)._2).take(cap).toSet
    val kept = inRange.indices.filter(nearest).map(inRange)
    val want = TopK.of(kept.map(_._1.id).toArray, kept.map(c => Vec.dist(q, c._1.vec)).toArray, k, cr)
    val got = part.probe(q, qp, r, cap, k, cr)
    assert(got.count == want.count && got.withinCr == want.withinCr, clue)
    assert(got.ids.toSeq == want.ids.toSeq && bits(got.dists) == bits(want.dists), clue)
    val cands = part.rangeSearch(qp, r, cap).toSeq
    assert(cands.map(_._1.id) == kept.map(_._1.id) && cands.map(_._2) == kept.map(_._2), clue)
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

  test("the cap at ties: hits at the cap-th distance are taken in traversal order") {
    // 60 points on three projected spheres around qp (distances 1, 2, 3 for
    // 15, 30 and 15 of them) and on four true distances, so both the cap and
    // TopK's order meet long runs of equal distances
    val rng = new Random(5)
    val qp = Array(0.0, 0.0, 0.0, 0.0)
    val q = Array.fill(d)(0.0)
    val axes = Array.tabulate(8)(j => Array.tabulate(m)(i => if (i == j / 2) (if (j % 2 == 0) 1.0 else -1.0) else 0.0))
    val items = Array.tabulate(60) { i =>
      val radius = if (i < 15) 1.0 else if (i < 45) 2.0 else 3.0
      val vec = Array.fill(d)(0.0); vec(i % d) = (1 + rng.nextInt(4)).toDouble
      IndexedPoint(i.toLong, axes(rng.nextInt(8)).map(_ * radius), vec)
    }
    val pm = PMTree.build(items, PMTree.selectPivots(items.map(_.proj), 3), 4)
    val rt = RTree.build(items, 4)
    Seq[(PartIndex, IndexedSeq[(IndexedPoint, Double)])](new PMTreePart(pm) -> pm.range(qp, 3.0),
        new RTreePart(rt) -> rt.range(qp, 3.0)).foreach { case (part, inRange) =>
      assert(inRange.length == 60)
      for (cap <- Seq(1, 14, 15, 16, 30, 44, 45, 59, 60, 61); k <- Seq(1, 7, 60))
        checkProbe(part, inRange, q, qp, 3.0, cap, k, 2.5, s"cap $cap, k $k")
    }
  }

  test("Hits.keepWithin keeps, in traversal order, the first cap of a stable sort (scalacheck)") {
    val gen = for {
      n <- Gen.choose(0, 60)
      dists <- Gen.listOfN(n, Gen.choose(0, 5).map(_ * 0.5))
      cap <- Gen.choose(1, 70)
    } yield (dists.toArray, cap)
    val prop = Prop.forAll(gen) { case (dists, cap) =>
      val hits = new Hits
      dists.indices.foreach(i => hits.add(1000 + i, dists(i)))
      val rank = new Array[Int](dists.length)
      StableOrder.of(dists).zipWithIndex.foreach { case (pos, r) => rank(pos) = r }
      val want = dists.indices.filter(rank(_) < cap)
      hits.keepWithin(cap)
      hits.slots.take(hits.size).toSeq == want.map(1000 + _) &&
        hits.dists.take(hits.size).toSeq == want.map(dists(_))
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }

  test("Hits.select finds the j-th smallest (scalacheck)") {
    val gen = for {
      xs <- Gen.nonEmptyListOf(Gen.choose(-3, 3).map(_.toDouble))
      j <- Gen.choose(0, xs.length - 1)
    } yield (xs.toArray, j)
    val prop = Prop.forAll(gen) { case (xs, j) => Hits.select(xs.clone(), xs.length, j) == xs.sorted.apply(j) }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
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
