package repro.baselines

import org.scalacheck.{Gen, Prop, Test => SCTest}
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
    val cands = part.levelCandidates(Array(10.0, -10.0), 1.0, Array(5.0), 2)._1
    assert(cands.map(part.points.ids(_)).toSet == Set(8L, 9L, 10L, 11L, 12L))
    // threshold 1 with a single colliding dim widens nothing here (dims mirror)
    val cands1 = part.levelCandidates(Array(10.0, -10.0), 1.0, Array(5.0), 1)._1
    assert(cands1.length >= cands.length)
  }

  test("a hash exactly on either edge of the window w*r/2 collides") {
    // query hash 1.0 and w = 2.0, so w*r/2 = r: the windows of the radii
    // 0.5, 0.75 and 1.125 are [0.5, 1.5], [0.25, 1.75] and [-0.125, 2.125]
    val radii = Array(0.5, 0.75, 1.125)
    val hashes = Array(
      0.5, 1.0, 1.5, // level 0, two of them on its edges
      1.5 + math.ulp(1.5), 0.5 - math.ulp(0.5), 1.75, 0.25, // level 1: one ulp outside level 0, and its edges
      1.75 + math.ulp(1.75), 0.25 - math.ulp(0.25), 2.125, -0.125, // level 2
      2.125 + math.ulp(2.125), -0.125 - math.ulp(0.125), 3.0) // outside every window
    val part = new QalshPart(Slots.of(Array.tabulate(hashes.length)(i => Point(i.toLong, Array.empty))),
      hashes.map(h => Array(h)), 1)
    val (cands, first) = part.levelCandidates(Array(1.0), 2.0, radii, 1)
    assert(cands.map(part.points.ids(_)).toSeq == (0L to 10L))
    assert(first.toSeq == Seq(0, 0, 0, 1, 1, 1, 1, 2, 2, 2, 2))
    // each radius alone gives the candidates whose first level is at most its own
    radii.indices.foreach { j =>
      val alone = part.levelCandidates(Array(1.0), 2.0, Array(radii(j)), 1)
      assert(alone._1.toSeq == cands.indices.filter(first(_) <= j).map(cands(_)), s"level $j")
      assert(alone._2.forall(_ == 0))
    }
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
        val small = part.levelCandidates(qh, qalsh.w, Array(r), qalsh.l)._1.toSet
        val large = part.levelCandidates(qh, qalsh.w, Array(qalsh.c * r), qalsh.l)._1.toSet
        assert(small.subsetOf(large), s"query $i, r = $r")
        // one pass over both windows finds the same two sets
        val (both, first) = part.levelCandidates(qh, qalsh.w, Array(r, qalsh.c * r), qalsh.l)
        assert(both.indices.filter(first(_) == 0).map(both(_)).toSet == small && both.toSet == large)
        if (large.size > small.size && small.nonEmpty) grew += 1
      }
    }
    assert(grew > 0, "no case where the candidate set was non-empty and grew")
  }

  test("several rounds per job answer exactly as one job per round (scalacheck)") {
    val s = spark
    import s.implicits._
    val gen = for {
      n <- Gen.choose(60, 300)
      dim <- Gen.choose(2, 8)
      parts <- Gen.oneOf(1, 4)
      seed <- Gen.choose(0L, 1000000L)
    } yield (n, dim, parts, seed)
    var answers = 0
    var maxRounds = 0
    val prop = Prop.forAll(gen) { case (n, dim, parts, seed) =>
      val rng = new scala.util.Random(seed)
      val data = Seq.tabulate(n)(i => Point(i.toLong, Array.fill(dim)(rng.nextDouble()))).toDS()
      // queries inside the data and far from it, the far ones needing more
      // rounds than one job runs
      val qs = Array.tabulate(8)(i => Array.fill(dim)(rng.nextDouble() * (if (i < 4) 1.0 else 30.0 * i)))
      val e = new Qalsh(spark, data, partitions = parts, seed = seed)
      val ok = Seq(1, 10, 40).forall { kk =>
        val (got, want) = (e.knn(qs, kk), QalshSpec.oneRoundPerJob(e, qs, kk))
        answers += qs.length
        maxRounds = math.max(maxRounds, want.map(_.rounds).max)
        got.map(QalshSpec.key).toSeq == want.map(QalshSpec.key).toSeq
      }
      e.unpersist()
      ok
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(8).withWorkers(1), prop).passed)
    info(s"compared $answers answers; the slowest took $maxRounds rounds")
    assert(maxRounds > 2 * qalsh.levelsPerJob, s"no answer needed a third job: $maxRounds rounds")
  }

  test("a query far outside the data terminates with min(k, n) neighbours") {
    val e = qalsh
    val far = Array.fill(cfg.d)(1e6 * points.collect().map(_.vec.map(math.abs).max).max)
    failAfter(20.seconds) {
      assert(e.knn(Array(far, queries(0)), k).map(_.neighbors.length).toSeq == Seq(k, k))
      assert(e.knn(Array(far), 1000).head.neighbors.length == e.n)
    }
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

  test("building over a point whose projection overflows fails, naming the point") {
    assertBuildRejects(points, Point(123458L, Array.fill(cfg.d)(1.7e308)))(new Qalsh(spark, _, partitions = 4, seed = 3))
  }

  test("building over empty data fails, saying the data is empty") {
    assertRejectsEmpty(new Qalsh(spark, _, partitions = 4, seed = 3))
  }
}

object QalshSpec {

  /** An answer as the benchmark digests it, with every distance's bits. */
  def key(r: QueryResult): (Int, Long, Seq[(Long, Long)]) =
    (r.rounds, r.candidates, r.neighbors.toSeq.map(nb => (nb.id, java.lang.Double.doubleToRawLongBits(nb.dist))))

  /** The window search of one round at radius r, as it ran before rounds
    * shared a job: slots of points with ≥ l hashes in
    * [h_i(q) − w·r/2, h_i(q) + w·r/2], ascending. */
  def windowCandidates(part: QalshPart, qHash: Array[Double], w: Double, r: Double, l: Int): Array[Int] = {
    val counts = new Array[Int](part.size)
    val half = w * r / 2.0
    for (i <- 0 until part.k) {
      val lo = StableOrder.bound(part.vals(i), qHash(i) - half, upper = false)
      val hi = StableOrder.bound(part.vals(i), qHash(i) + half, upper = true)
      (lo until hi).foreach(j => counts(part.sortedIdx(i)(j)) += 1)
    }
    counts.indices.filter(counts(_) >= l).toArray
  }

  /** `Qalsh.knn` as one Spark job per radius round: the loop it ran before
    * a job ran several rounds. */
  def oneRoundPerJob(e: Qalsh, queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    val budget = e.betaCount.toLong + k
    val r0 = math.max(e.distances.quantile(math.min(1.0, budget.toDouble / e.n)) / (e.c * e.c), 1e-9)
    val (w, l, c) = (e.w, e.l, e.c)
    val radii = Array.fill(queries.length)(r0)
    val results = new Array[QueryResult](queries.length)
    var active = queries.indices.toArray
    var round = 0
    while (active.nonEmpty) {
      round += 1
      val batch = active.map(qi => (queries(qi), e.family.project(queries(qi)), radii(qi), c * radii(qi)))
      val rows = TopK.gather(e.index, batch) { part =>
        { case (q, qh, r, cr) =>
          val cands = windowCandidates(part, qh, w, r, l)
          part.points.verify(q, cands, cands.length, k, cr)
        }
      }
      active = active.zip(rows).filter { case (qi, qRows) =>
        val res = TopK.merge(qRows, k)
        val done = res.count >= budget || res.count >= e.n || res.withinCr >= k
        if (done) results(qi) = QueryResult(res.neighbors, round, res.count) else radii(qi) *= c
        !done
      }.map(_._1)
    }
    results
  }
}
