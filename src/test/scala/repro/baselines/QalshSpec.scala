package repro.baselines

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.core._
import repro.data.HighDim

/** QALSH: parameter derivation, collision counting, virtual rehashing. */
class QalshSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private val cfg = HighDim.testConfig(n = 800, d = 24, seed = 41)
  private val k = 10
  private lazy val points = HighDim.generate(spark, cfg).persist()
  private lazy val queries = HighDim.queryVecs(cfg, 8)
  private lazy val gt = GroundTruth.knnBatch(spark, points, queries, k)
  private lazy val qalsh = new Qalsh(spark, points, partitions = 4, seed = 3)

  test("parameter derivation: w, p1 > p2, l <= K <= cap") {
    assert(qalsh.w > 0)
    assert(qalsh.p1 > qalsh.p2, s"p1=${qalsh.p1} p2=${qalsh.p2}")
    assert(qalsh.numHashes >= 8 && qalsh.numHashes <= 128)
    assert(qalsh.l >= 1 && qalsh.l <= qalsh.numHashes)
    // the collision threshold sits strictly between p2*K and p1*K
    assert(qalsh.l > qalsh.p2 * qalsh.numHashes)
    assert(qalsh.l < qalsh.p1 * qalsh.numHashes + 1)
  }

  test("w matches the QALSH closed form for c = 1.5") {
    val c = 1.5
    val expected = math.sqrt(8.0 * c * c * math.log(c) / (c * c - 1.0))
    assert(math.abs(qalsh.w - expected) < 1e-12)
  }

  test("index covers the dataset") {
    assert(qalsh.n == 800)
    assert(qalsh.index.count() == 4)
  }

  test("QalshPart window search counts collisions correctly") {
    val part = new QalshPart(Slots.of(Array.tabulate(20)(i => Point(i.toLong, Array.empty))),
      Array.tabulate(20)(i => Array(i.toDouble, -i.toDouble)), 2)
    // query hash (10, -10): with w*r/2 = 2.5, hashes within +-2.5 on both
    // dims are items 8..12 (both dims collide simultaneously here)
    val cands = part.collisionCandidates(Array(10.0, -10.0), 1.0, 5.0, 2)
    assert(cands.map(part.points.ids(_)).toSet == Set(8L, 9L, 10L, 11L, 12L))
    // threshold 1 with a single colliding dim widens nothing here (dims mirror)
    val cands1 = part.collisionCandidates(Array(10.0, -10.0), 1.0, 5.0, 1)
    assert(cands1.length >= cands.length)
  }

  test("a hash exactly on either edge of the window w*r/2 collides") {
    // query hash 1.0, w*r/2 = 2.0*0.5/2 = 0.5: the window is [0.5, 1.5]
    val hashes = Array(0.5, 1.0, 1.5, 1.5 + math.ulp(1.5), 0.5 - math.ulp(0.5), 2.0)
    val part = new QalshPart(Slots.of(Array.tabulate(hashes.length)(i => Point(i.toLong, Array.empty))),
      hashes.map(h => Array(h)), 1)
    val cands = part.collisionCandidates(Array(1.0), 2.0, 0.5, 1)
    assert(cands.map(part.points.ids(_)).toSeq == Seq(0L, 1L, 2L))
  }

  test("reasonable recall against exact ground truth") {
    val res = qalsh.knn(queries, k).map(_.neighbors)
    val recall = Metrics.meanOver(res, gt)(Metrics.recall)
    assert(recall >= 0.5, s"recall=$recall")
  }

  test("overall ratio sane") {
    val res = qalsh.knn(queries, k).map(_.neighbors)
    val ratio = Metrics.meanOver(res, gt)(Metrics.overallRatio)
    assert(ratio >= 1.0 - 1e-9 && ratio <= 1.5, s"ratio=$ratio")
  }

  test("results sorted, unique, at most k") {
    val res = qalsh.knn(queries, k)
    res.foreach { qr =>
      assert(qr.neighbors.length <= k)
      assert(qr.neighbors.map(_.id).distinct.length == qr.neighbors.length)
      qr.neighbors.sliding(2).foreach {
        case Array(a, b) => assert(a.dist <= b.dist + 1e-12)
        case _           =>
      }
      assert(qr.rounds >= 1 && qr.rounds <= 40)
    }
  }

  test("candidate budget: terminates near betaCount + k verified candidates") {
    val res = qalsh.knn(queries, k)
    res.foreach { qr =>
      // the final round may overshoot, but not by more than the dataset
      assert(qr.candidates <= qalsh.n)
    }
  }

  test("empty query batch") {
    assert(qalsh.knn(Array.empty, k).isEmpty)
  }

  test("knn rejects NaN query coordinates instead of growing r forever") {
    val e = qalsh
    val q = queries(0).clone(); q(3) = Double.NaN
    failAfter(20.seconds)(intercept[IllegalArgumentException](e.knn(Array(q), k)))
  }

  test("knn rejects k < 1, naming k") {
    val err = intercept[IllegalArgumentException](qalsh.knn(queries.take(1), 0))
    assert(err.getMessage.contains("k must be at least 1, got 0"), err)
  }

  test("collision candidates at radius r are a subset of those at c*r") {
    // knn carries no candidates across rounds; this nesting is why it need not
    val parts = qalsh.index.collect()
    val rnd = new scala.util.Random(7)
    val lo = qalsh.distances.quantile(0.01) / (qalsh.c * qalsh.c)
    val hi = qalsh.distances.quantile(0.5)
    var grew = 0
    (0 until 40).foreach { i =>
      val q = if (i < queries.length) queries(i) else Array.fill(cfg.d)(rnd.nextGaussian())
      val qh = qalsh.family.project(q)
      val r = lo * math.pow(hi / lo, rnd.nextDouble())
      parts.foreach { part =>
        val small = part.collisionCandidates(qh, qalsh.w, r, qalsh.l).toSet
        val large = part.collisionCandidates(qh, qalsh.w, qalsh.c * r, qalsh.l).toSet
        assert(small.subsetOf(large), s"query $i, r = $r")
        if (large.size > small.size && small.nonEmpty) grew += 1
      }
    }
    assert(grew > 0, "no case where the candidate set was non-empty and grew")
  }

  test("with more partitions than points, k = n returns the exact answer") {
    val tiny = HighDim.generate(spark, HighDim.testConfig(n = 5, d = 24, seed = 41))
    val e = new Qalsh(spark, tiny, partitions = 8, seed = 3)
    val sizes = e.index.map(_.size).collect()
    assert(e.n == 5 && sizes.sum == 5 && sizes.count(_ == 0) >= 3, sizes.toSeq)
    val want = GroundTruth.knnBatch(spark, tiny, queries, 5).map(_.toSeq).toSeq
    assert(e.knn(queries, 5).map(_.neighbors.toSeq).toSeq == want)
    e.unpersist()
  }

  test("unpersist drops the cached index") {
    val e = new Qalsh(spark, points, partitions = 4, seed = 3)
    assert(spark.sparkContext.getPersistentRDDs.contains(e.index.id))
    e.unpersist()
    assert(!spark.sparkContext.getPersistentRDDs.contains(e.index.id))
  }

  test("building over a point with a NaN coordinate fails, naming the point") {
    val bad = Point(123456L, Array.tabulate(cfg.d)(i => if (i == 5) Double.NaN else 0.1 * i))
    assertBuildRejects(points, bad)(new Qalsh(spark, _, partitions = 4, seed = 3))
  }

  test("building over a point with a short vector fails, naming the point") {
    assertBuildRejects(points, Point(123457L, Array.fill(cfg.d - 1)(0.5)))(new Qalsh(spark, _, partitions = 4, seed = 3))
  }

  test("building over empty data fails, saying the data is empty") {
    assertRejectsEmpty(new Qalsh(spark, _, partitions = 4, seed = 3))
  }
}
