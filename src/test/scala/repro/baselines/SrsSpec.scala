package repro.baselines

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.core._
import repro.data.HighDim

/** SRS: incremental-NN replay order, budget, early termination, accuracy. */
class SrsSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private val cfg = HighDim.testConfig(n = 800, d = 24, seed = 41)
  private val k = 10
  private lazy val points = HighDim.generate(spark, cfg).persist()
  private lazy val queries = HighDim.queryVecs(cfg, 8)
  private lazy val gt = GroundTruth.knnBatch(spark, points, queries, k)
  private lazy val rEngine =
    new RangeLsh(spark, points, LshParams(partitions = 4, seed = 3), usePmTree = false)
  private lazy val srs = new Srs(spark, rEngine)

  test("rejects a PM-tree engine") {
    lazy val pmEngine = new RangeLsh(spark, points, LshParams(partitions = 4, seed = 3), usePmTree = true)
    intercept[IllegalArgumentException](new Srs(spark, pmEngine))
  }

  test("high recall against exact ground truth") {
    val res = srs.knn(queries, k).map(_.neighbors)
    val recall = Metrics.meanOver(res, gt)(Metrics.recall)
    assert(recall >= 0.7, s"recall=$recall")
  }

  test("overall ratio close to 1") {
    val res = srs.knn(queries, k).map(_.neighbors)
    val ratio = Metrics.meanOver(res, gt)(Metrics.overallRatio)
    assert(ratio >= 1.0 - 1e-9 && ratio <= 1.2, s"ratio=$ratio")
  }

  test("access budget respected: at most T*n + k points per query") {
    val res = srs.knn(queries, k)
    val budget = math.ceil(srs.tFrac * rEngine.n).toLong + k
    res.foreach { qr =>
      assert(qr.candidates <= budget, s"${qr.candidates} > $budget")
      assert(qr.candidates >= k)
    }
  }

  test("results are k unique ids sorted by distance") {
    val res = srs.knn(queries, k)
    res.foreach { qr =>
      assert(qr.neighbors.length == k)
      assert(qr.neighbors.map(_.id).distinct.length == k)
      qr.neighbors.sliding(2).foreach {
        case Array(a, b) => assert(a.dist <= b.dist + 1e-12)
        case _           =>
      }
    }
  }

  test("early termination fires: SRS examines far fewer than T*n on easy data") {
    val res = srs.knn(queries, k)
    val budget = math.ceil(srs.tFrac * rEngine.n).toLong + k
    // clustered test data is easy; at least some queries should stop early
    assert(res.exists(_.candidates < budget), "no query terminated early")
  }

  test("the global access order equals the boxed stable sortBy on streams with tied projected distances") {
    val rng = new scala.util.Random(5)
    for (trial <- 0 until 200) {
      // one ascending stream per partition (unsorted in odd trials, as the
      // sort takes any input), projected distances drawn from a few levels so
      // that ties fall inside and across partitions
      val levels = 1 + trial % 7
      val streams = Array.fill(1 + rng.nextInt(8)) {
        val s = Array.fill(rng.nextInt(40))(rng.nextInt(levels) * 0.25)
        if (trial % 2 == 0) s.sorted else s
      }
      val pds = streams.flatten
      assert(StableOrder.of(pds).toSeq == pds.indices.sortBy(pds(_)), s"trial $trial")
    }
    // within one stream, equal distances keep their stream order
    val tied = Array(0.5, 0.5, 0.5, 0.0, 0.5, 0.0)
    assert(StableOrder.of(tied).toSeq == Seq(3, 5, 0, 1, 2, 4))
  }

  test("the replay answers the first k of a stable sort of its accesses by verified distance: ties in access order") {
    val rng = new scala.util.Random(23)
    for (trial <- 0 until 300) {
      // verified distances on a few levels, so ties fall inside the k
      // kept and at the k-th place
      val pds = Array.fill(1 + rng.nextInt(40))(rng.nextInt(6) * 0.5)
      val dds = pds.map(_ => (1 + rng.nextInt(1 + trial % 4)) * 0.25)
      val ids = pds.indices.map(i => 1000L + i).toArray
      val kk = 1 + rng.nextInt(12)
      val budget = 1L + rng.nextInt(pds.length + 1)
      val res = Srs.replay(ids, pds, dds, kk, budget, _ => false)
      val accessed = StableOrder.of(pds).take(res.candidates)
      assert(res.candidates == math.min(budget, pds.length.toLong), s"trial $trial")
      val want = accessed.sortBy(dds(_)).take(kk).map(i => Neighbor(ids(i), dds(i)))
      assert(res.neighbors.toSeq == want.toSeq, s"trial $trial")
    }
    // one stream of five equal verified distances: the first three accessed
    val tied = Srs.replay(Array(5L, 6L, 7L, 8L, 9L), Array(0.1, 0.2, 0.3, 0.4, 0.5), Array.fill(5)(1.0), 3, 5, _ => false)
    assert(tied.neighbors.map(_.id).toSeq == Seq(5L, 6L, 7L))
  }

  test("the stop bound skips only cdf calls that could not fire: replays stop at the same access") {
    val rng = new scala.util.Random(17)
    var early = 0
    for (trial <- 0 until 300) {
      val m = Seq(15, 1, 2, 8, 30)(trial % 5)
      val pTau = Seq(srs.pTau, 0.5, 0.99)(trial % 3)
      val kk = 1 + rng.nextInt(12)
      // one ascending stream of projected distances per partition; verified
      // distances a random multiple of pd/√m, so z² = (pd/d_k)² sweeps past
      // the p'_τ quantile of χ²(m) at varying accesses
      val streams = Array.fill(1 + rng.nextInt(6)) {
        val pds = Array.fill(rng.nextInt(60))(rng.nextDouble() * 10).sorted
        (pds, pds.map(pd => pd / math.sqrt(m) * (0.3 + 2 * rng.nextDouble())))
      }
      val pds = streams.flatMap(_._1)
      val dds = streams.flatMap(_._2)
      val ids = pds.indices.map(_.toLong).toArray
      val budget = 1L + rng.nextInt(pds.length + 1)
      val old = Srs.replay(ids, pds, dds, kk, budget, z2 => ChiSquared.cdf(z2, m) >= pTau)
      val cut = Srs.replay(ids, pds, dds, kk, budget, Srs.stopRule(pTau, m))
      assert(cut.candidates == old.candidates, s"trial $trial")
      assert(cut.neighbors.toSeq == old.neighbors.toSeq, s"trial $trial")
      if (old.candidates < math.min(budget, pds.length.toLong)) early += 1
    }
    assert(early >= 50, s"only $early replays stopped on the chi2 test")
    // and pointwise, around the bound and far from it
    for (m <- Seq(1, 15, 30); pTau <- Seq(srs.pTau, 0.5, 0.99)) {
      val rule = Srs.stopRule(pTau, m)
      val q = ChiSquared.upperQuantile(1 - pTau, m)
      val z2s = (0 to 400).map(i => q * (1 + (i - 200) * 1e-8)) ++ (0 to 400).map(_ * q / 100)
      z2s.foreach(z2 => assert(rule(z2) == (ChiSquared.cdf(z2, m) >= pTau), s"m=$m pTau=$pTau z2=$z2"))
    }
  }

  test("the answers and access counts of 28 queries at k = 10 and 50 (pinned digest)") {
    val qs = HighDim.queryVecs(cfg, 28)
    val words = Seq(10, 50).iterator.flatMap { kk =>
      srs.knn(qs, kk).iterator.flatMap { r =>
        r.neighbors.iterator.flatMap(nb => Iterator(nb.id, java.lang.Double.doubleToLongBits(nb.dist))) ++
          Iterator(r.candidates.toLong)
      }
    }
    assert(Digest.of(words) == "ce79033bff16896b1325eded")
  }

  test("empty query batch") {
    assert(srs.knn(Array.empty, k).isEmpty)
  }

  test("knn rejects NaN query coordinates") {
    val e = srs
    val q = queries(0).clone(); q(3) = Double.NaN
    failAfter(20.seconds)(intercept[IllegalArgumentException](e.knn(Array(q), k)))
  }

  test("knn rejects k < 1, naming k, instead of failing on an empty heap") {
    val err = intercept[IllegalArgumentException](srs.knn(queries.take(1), 0))
    assert(err.getMessage.contains("k must be at least 1, got 0"), err)
  }
}
