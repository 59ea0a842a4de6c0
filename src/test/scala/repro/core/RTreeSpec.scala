package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** R-tree correctness: ball range = brute force, the bounded incremental
  * NN fill emits the exact distance-sorted order (what SRS's incSearch
  * relies on) and stops visiting nodes once it has its count, MBRs cover
  * their subtrees.
  */
class RTreeSpec extends AnyFunSuite {

  private def randomItems(n: Int, m: Int, seed: Long, clustered: Boolean = false): Array[IndexedPoint] = {
    val rng = new Random(seed)
    if (!clustered)
      Array.tabulate(n)(i => IndexedPoint(i.toLong, Array.fill(m)(rng.nextDouble() * 10), Array.empty))
    else {
      val centers = Array.fill(6)(Array.fill(m)(rng.nextDouble() * 10))
      Array.tabulate(n) { i =>
        val c = centers(rng.nextInt(centers.length))
        IndexedPoint(i.toLong, Array.tabulate(m)(j => c(j) + rng.nextGaussian() * 0.4), Array.empty)
      }
    }
  }

  /** The first `count` of SRS's incSearch order from `nearest`, each slot
    * read as its point. */
  private def incSearch(tree: RTree, q: Array[Double], count: Int): Array[(IndexedPoint, Double)] = {
    val (slots, pds, _) = firstNearest(tree, q, count)
    slots.map(tree.points.point).zip(pds)
  }

  /** The first `count` slots of the incSearch order with their projected
    * distances, and the `Hits` the search counted into. */
  private def firstNearest(tree: RTree, q: Array[Double], count: Int): (Array[Int], Array[Double], Hits) = {
    val hits = new Hits
    tree.nearest(q, count, hits)
    (hits.slots.take(hits.size), hits.dists.take(hits.size), hits)
  }

  private val configs = for {
    (n, m, cap) <- Seq((40, 3, 4), (200, 5, 8), (500, 15, 16), (1000, 15, 16), (300, 8, 6),
                       (120, 2, 4))
    clustered <- Seq(false, true)
  } yield (n, m, cap, clustered)

  for (((n, m, cap, clustered), ci) <- configs.zipWithIndex) {
    test(s"range query equals brute force (n=$n m=$m cap=$cap clustered=$clustered)") {
      val items = randomItems(n, m, 200 + ci, clustered)
      val tree = RTree.build(items, cap)
      assert(tree.size == n)
      assert(tree.invariantViolations == 0)
      val rng = new Random(555 + ci)
      for (t <- 0 until 4) {
        val q = Array.fill(m)(rng.nextDouble() * 10)
        val r = rng.nextDouble() * 6 + 0.5
        val got = tree.range(q, r).map(_._1.id).toSet
        val want = items.filter(it => Vec.dist(it.proj, q) <= r).map(_.id).toSet
        assert(got == want, s"trial $t: got ${got.size}, want ${want.size}")
      }
    }
  }

  test("a point at exactly distance r is in the ball, as Vec.dist <= r says, though d² > fl(r·r)") {
    val q = Array(0.0, 0.0, 0.0)
    val o = Array(1.0, 1.0, 1.0)
    val r = math.sqrt(3.0)
    assert(Vec.dist(q, o) == r && r * r < Vec.sqDist(q, o))
    val tree = RTree.build(Array(IndexedPoint(7L, o, Array.empty), IndexedPoint(8L, Array(5.0, 5.0, 5.0), Array.empty)), 4)
    assert(tree.range(q, r).map(h => (h._1.id, h._2)).toSeq == Seq((7L, r)))
  }

  test("range at the radius of one point's own distance equals the brute-force filter, distance bits too (scalacheck)") {
    val gen = for {
      m <- Gen.choose(1, 8)
      n <- Gen.choose(1, 80)
      // coordinates on a coarse grid, so distances tie and points repeat
      grid <- Gen.listOfN(n, Gen.listOfN(m, Gen.choose(-6, 6)))
      scale <- Gen.oneOf(1.0, 0.1, 1.7)
      cap <- Gen.choose(4, 9)
      q <- Gen.listOfN(m, Gen.choose(-60, 60))
      at <- Gen.choose(0, n - 1)
    } yield (grid.map(_.map(_ * scale).toArray).toArray, cap, q.map(_ / 10.0 * scale).toArray, at)
    val prop = Prop.forAll(gen) { case (projs, cap, q, at) =>
      val items = projs.zipWithIndex.map { case (p, i) => IndexedPoint(i.toLong, p, Array.empty) }
      val tree = RTree.build(items, cap)
      val r = Vec.dist(q, projs(at))
      def bits(x: Double) = java.lang.Double.doubleToLongBits(x)
      val got = tree.range(q, r).map { case (it, d) => (it.id, bits(d)) }
      val want = items.map(it => (it.id, Vec.dist(q, it.proj))).filter(_._2 <= r).map { case (id, d) => (id, bits(d)) }
      got.length == want.length && got.toSet == want.toSet
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(300), prop)
    assert(res.passed, res.status)
  }

  for ((n, m, cap) <- Seq((100, 4, 4), (400, 15, 16), (800, 8, 8))) {
    test(s"incSearch yields the exact sorted-by-distance order (n=$n m=$m cap=$cap)") {
      val items = randomItems(n, m, 321 + n)
      val tree = RTree.build(items, cap)
      val q = Array.fill(m)(5.0)
      val got = incSearch(tree, q, n)
      assert(got.length == n, "incSearch must enumerate every point")
      // distances are non-decreasing and correct
      got.sliding(2).foreach {
        case Array(a, b) => assert(a._2 <= b._2 + 1e-12)
        case _           =>
      }
      got.foreach { case (it, pd) => assert(math.abs(pd - Vec.dist(q, it.proj)) < 1e-9) }
      val want = items.map(it => Vec.dist(q, it.proj)).sorted
      got.map(_._2).zip(want).foreach { case (a, b) => assert(math.abs(a - b) < 1e-9) }
    }
  }

  test("incSearch is bounded: the first 10 cost far fewer than n point distances") {
    val items = randomItems(5000, 8, 77, clustered = true)
    val tree = RTree.build(items, 16)
    val (top10, _, hits) = firstNearest(tree, items(3).proj, 10)
    assert(top10.length == 10)
    assert(hits.distCount < 5000, s"distCount=${hits.distCount}")
    assert(hits.nodeAccesses > 0 && tree.distCount == 0 && tree.nodeAccesses == 0)
  }

  test("incSearch's first slots, distances and counts for seeded queries (pinned digest)") {
    val items = randomItems(3000, 15, 613, clustered = true)
    val tree = RTree.build(items, 16)
    val rng = new Random(713)
    val words = Seq(1, 10, 50, 600, 3000).iterator.flatMap { count =>
      val q = Array.fill(15)(rng.nextDouble() * 10)
      val (slots, pds, hits) = firstNearest(tree, q, count)
      assert(slots.length == count)
      slots.map(_.toLong) ++ pds.map(java.lang.Double.doubleToLongBits) ++ Seq(hits.distCount, hits.nodeAccesses)
    }
    assert(Digest.of(words) == "7e7e92750fe4ba1f518a903e")
  }

  test("empty tree: empty range, empty incSearch") {
    val tree = RTree.build(Array.empty[IndexedPoint], 8)
    assert(tree.size == 0)
    assert(tree.range(Array(0.0), 10.0).isEmpty)
    assert(incSearch(tree, Array(0.0), 1).isEmpty)
  }

  test("single item tree") {
    val tree = RTree.build(Array(IndexedPoint(7L, Array(1.0, 2.0), Array.empty)), 8)
    assert(tree.size == 1)
    assert(tree.range(Array(1.0, 2.0), 0.1).map(_._1.id).toSeq == Seq(7L))
    assert(incSearch(tree, Array(0.0, 0.0), 2).toSeq.map(_._1.id) == Seq(7L))
  }

  test("duplicate points all returned") {
    val items = Array.tabulate(30)(i => IndexedPoint(i.toLong, Array(2.0, 2.0), Array.empty))
    val tree = RTree.build(items, 4)
    assert(tree.range(Array(2.0, 2.0), 0.0).length == 30)
  }

  test("items preserved through build") {
    val items = randomItems(250, 6, 9)
    val tree = RTree.build(items, 8)
    assert(tree.items.map(_.id).toSet == items.map(_.id).toSet)
  }

  test("nodeSummaries: one root, bounded fan-out, mbr sanity") {
    val items = randomItems(700, 15, 31)
    val tree = RTree.build(items, 16)
    val sums = tree.nodeSummaries
    assert(sums.count(_.isRoot) == 1)
    sums.foreach { s =>
      assert(s.nEntries > 0 && s.nEntries <= 16)
      s.lo.zip(s.hi).foreach { case (lo, hi) => assert(lo <= hi + 1e-12) }
    }
    // leaf-level entry counts sum to n
    val leafSum = sums.filter(s => s.lo.length > 0).map(_.nEntries).sum
    assert(leafSum >= 700, "entries across nodes must cover all points")
  }

  test("range pruning beats brute force on clustered data") {
    val items = randomItems(4000, 15, 13, clustered = true)
    val tree = RTree.build(items, 16)
    tree.resetCounters()
    tree.range(items(5).proj, 1.0)
    assert(tree.distCount < 4000, s"distCount=${tree.distCount}")
  }

  test("a seeded build with duplicate points keeps its leaf order, boxes and searches (pinned digest)") {
    val configs = Seq((900, 15, 16, true), (400, 4, 4, false), (300, 8, 6, true), (2000, 15, 16, false))
    val words = configs.zipWithIndex.iterator.flatMap { case ((n, m, cap, clustered), ci) =>
      val base = randomItems(n, m, 611 + ci, clustered)
      // every fifth point twice in a row, and one point 30 times more
      val items = base.flatMap { it =>
        if (it.id % 5 == 0) Seq(it, IndexedPoint(it.id + 100000L, it.proj.clone(), Array.empty)) else Seq(it)
      } ++ Array.tabulate(30)(i => IndexedPoint(200000L + i, base(1).proj.clone(), Array.empty))
      val tree = RTree.build(items, cap)
      val rng = new Random(711 + ci)
      val searches = (0 until 5).iterator.flatMap { _ =>
        val hits = new Hits
        tree.search(Array.fill(m)(rng.nextDouble() * 10), rng.nextDouble() * 4 + 0.5, hits)
        hits.slots.take(hits.size).map(_.toLong) ++ hits.dists.take(hits.size).map(java.lang.Double.doubleToLongBits) ++
          Seq(hits.distCount, hits.nodeAccesses)
      }
      tree.points.ids.iterator ++ tree.nodeSummaries.iterator.flatMap { s =>
        Iterator(s.nEntries.toLong, if (s.isRoot) 1L else 0L) ++ (s.lo ++ s.hi).map(java.lang.Double.doubleToLongBits)
      } ++ searches
    }
    assert(Digest.of(words) == "bfee2de8309bfec4171b7ed3")
  }
}
