package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

/** PM-tree correctness: range queries must return exactly the brute-force
  * ball contents for arbitrary data, and structural invariants (covering
  * radii, hyper-rings) must hold after any insertion/split sequence.
  */
class PMTreeSpec extends AnyFunSuite {

  private def randomItems(n: Int, m: Int, seed: Long, clustered: Boolean = false): Array[IndexedPoint] = {
    val rng = new Random(seed)
    if (!clustered)
      Array.tabulate(n)(i => IndexedPoint(i.toLong, Array.fill(m)(rng.nextDouble() * 10), Array.empty))
    else {
      val centers = Array.fill(8)(Array.fill(m)(rng.nextDouble() * 10))
      Array.tabulate(n) { i =>
        val c = centers(rng.nextInt(centers.length))
        IndexedPoint(i.toLong, Array.tabulate(m)(j => c(j) + rng.nextGaussian() * 0.4), Array.empty)
      }
    }
  }

  private def bruteRange(items: Array[IndexedPoint], q: Array[Double], r: Double): Set[Long] =
    items.filter(it => Vec.dist(it.proj, q) <= r).map(_.id).toSet

  private val configs = for {
    (n, m, cap) <- Seq((50, 4, 4), (200, 4, 8), (300, 8, 16), (500, 15, 16), (800, 15, 8),
                       (150, 2, 4), (400, 6, 6), (1000, 15, 16))
    clustered <- Seq(false, true)
  } yield (n, m, cap, clustered)

  for (((n, m, cap, clustered), ci) <- configs.zipWithIndex) {
    test(s"range query equals brute force (n=$n m=$m cap=$cap clustered=$clustered)") {
      val items = randomItems(n, m, 100 + ci, clustered)
      val pivots = PMTree.selectPivots(items.take(100).map(_.proj), 5)
      val tree = PMTree.build(items, pivots, cap)
      assert(tree.size == n)
      assert(tree.invariantViolations == 0, "structural invariants violated")
      val rng = new Random(999 + ci)
      for (t <- 0 until 4) {
        val q = Array.fill(m)(rng.nextDouble() * 10)
        val r = rng.nextDouble() * 6 + 0.5
        val got = tree.range(q, r).map(_._1.id).toSet
        val want = bruteRange(items, q, r)
        assert(got == want, s"trial $t: got ${got.size}, want ${want.size}")
      }
    }
  }

  test("range returns correct projected distances") {
    val items = randomItems(200, 6, 5)
    val pivots = PMTree.selectPivots(items.map(_.proj), 3)
    val tree = PMTree.build(items, pivots, 8)
    val q = Array.fill(6)(5.0)
    tree.range(q, 4.0).foreach { case (it, pd) =>
      assert(math.abs(pd - Vec.dist(q, it.proj)) < 1e-9)
      assert(pd <= 4.0)
    }
  }

  test("all items are retrievable with a huge radius") {
    val items = randomItems(300, 5, 6)
    val tree = PMTree.build(items, PMTree.selectPivots(items.map(_.proj), 4), 8)
    assert(tree.range(Array.fill(5)(0.0), 1e6).map(_._1.id).toSet == items.map(_.id).toSet)
    assert(tree.items.map(_.id).toSet == items.map(_.id).toSet)
  }

  test("empty tree answers empty range") {
    val tree = new PMTree(Array(Array(0.0, 0.0)), 4)
    assert(tree.range(Array(1.0, 1.0), 100.0).isEmpty)
    assert(tree.size == 0)
  }

  test("duplicate points are all stored and returned") {
    val p = Array(1.0, 2.0, 3.0)
    val items = Array.tabulate(40)(i => IndexedPoint(i.toLong, p.clone(), Array.empty))
    val tree = PMTree.build(items, Array(Array(0.0, 0.0, 0.0)), 4)
    assert(tree.size == 40)
    assert(tree.range(p, 0.0).length == 40)
  }

  test("pruning reduces distance computations on clustered data") {
    val items = randomItems(2000, 15, 21, clustered = true)
    val pivots = PMTree.selectPivots(items.take(200).map(_.proj), 5)
    val tree = PMTree.build(items, pivots, 16)
    tree.resetDistCount()
    val q = items(0).proj
    tree.range(q, 1.0)
    // brute force would need 2000 point distances; pruning must do better
    assert(tree.distCount < 1800, s"distCount=${tree.distCount}")
  }

  test("distCount resets") {
    val items = randomItems(100, 4, 3)
    val tree = PMTree.build(items, PMTree.selectPivots(items.map(_.proj), 2), 8)
    tree.range(Array.fill(4)(1.0), 2.0)
    assert(tree.distCount > 0)
    tree.resetDistCount()
    assert(tree.distCount == 0)
  }

  test("range counts node accesses on both trees, as their search does; resetCounters zeroes both counters") {
    val items = randomItems(300, 4, 5)
    val pm = PMTree.build(items, PMTree.selectPivots(items.map(_.proj), 3), 6)
    val rt = RTree.build(items, 6)
    Seq[(SlotTree, Int)](pm -> pm.nodeSummaries.length, rt -> rt.nodeSummaries.length).foreach { case (tree, nodes) =>
      val q = Array.fill(4)(5.0)
      val hits = new Hits
      tree.search(q, 3.0, hits)
      tree.range(q, 3.0)
      assert(tree.nodeAccesses > 0 && tree.distCount > 0)
      assert((tree.distCount, tree.nodeAccesses) == ((hits.distCount, hits.nodeAccesses)))
      // a ball around every point visits every node once
      tree.range(q, 1e6)
      assert(tree.nodeAccesses == hits.nodeAccesses + nodes)
      tree.resetCounters()
      assert(tree.distCount == 0 && tree.nodeAccesses == 0)
    }
  }

  test("nodeSummaries: one root, entry counts bounded by capacity, sane radii") {
    val items = randomItems(600, 8, 17)
    val tree = PMTree.build(items, PMTree.selectPivots(items.take(100).map(_.proj), 5), 16)
    val sums = tree.nodeSummaries
    assert(sums.count(_.isRoot) == 1)
    sums.foreach { s =>
      assert(s.nEntries > 0 && s.nEntries <= 16)
      assert(s.isRoot || s.radius >= 0)
      if (!s.isRoot) s.hrMin.zip(s.hrMax).foreach { case (lo, hi) => assert(lo <= hi + 1e-12) }
    }
    // leaf entry counts sum to n
    val leafEntryTotal = {
      // leaves are the nodes whose entries are points; count via items
      tree.items.length
    }
    assert(leafEntryTotal == 600)
  }

  test("selectPivots: requested count, distinct, spread out") {
    val rng = new Random(3)
    val sample = Array.fill(200)(Array.fill(6)(rng.nextDouble()))
    val pivots = PMTree.selectPivots(sample, 5)
    assert(pivots.length == 5)
    assert(pivots.map(_.toSeq).distinct.length == 5)
  }

  test("selectPivots pads when the sample is smaller than s") {
    val sample = Array(Array(1.0, 1.0), Array(2.0, 2.0))
    val pivots = PMTree.selectPivots(sample, 5)
    assert(pivots.length == 5)
  }

  test("a seeded build with duplicate points keeps its leaf order, radii, rings and searches (pinned digest)") {
    val words = Seq((900, 15, 16, true), (400, 4, 4, false), (300, 8, 6, true)).zipWithIndex.iterator.flatMap {
      case ((n, m, cap, clustered), ci) =>
        val base = randomItems(n, m, 611 + ci, clustered)
        // every fifth point twice in a row, and one point 30 times more
        val items = base.flatMap { it =>
          if (it.id % 5 == 0) Seq(it, IndexedPoint(it.id + 100000L, it.proj.clone(), Array.empty)) else Seq(it)
        } ++ Array.tabulate(30)(i => IndexedPoint(200000L + i, base(1).proj.clone(), Array.empty))
        val tree = PMTree.build(items, PMTree.selectPivots(items.take(100).map(_.proj), 5), cap)
        val rng = new Random(711 + ci)
        val searches = (0 until 5).iterator.flatMap { _ =>
          val hits = new Hits
          tree.search(Array.fill(m)(rng.nextDouble() * 10), rng.nextDouble() * 4 + 0.5, hits)
          hits.slots.take(hits.size).map(_.toLong) ++ hits.dists.take(hits.size).map(java.lang.Double.doubleToLongBits) :+
            hits.distCount
        }
        tree.points.ids.iterator ++ tree.nodeSummaries.iterator.flatMap { s =>
          Iterator(s.nEntries.toLong, java.lang.Double.doubleToLongBits(s.radius), if (s.isRoot) 1L else 0L) ++
            (s.hrMin ++ s.hrMax).map(java.lang.Double.doubleToLongBits)
        } ++ searches
    }
    assert(Digest.of(words) == "b1531919a7706ed4fa9a5a28")
  }

  test("capacity below 4 rejected") {
    intercept[IllegalArgumentException](new PMTree(Array(Array(0.0)), 2))
  }
}
