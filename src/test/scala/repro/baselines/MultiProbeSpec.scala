package repro.baselines

import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.core._
import repro.data.HighDim

/** Multi-Probe: query-directed probing sequence and bucket retrieval. */
class MultiProbeSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private val cfg = HighDim.testConfig(n = 800, d = 24, seed = 41)
  private val k = 10
  private lazy val points = HighDim.generate(spark, cfg).persist()
  private lazy val queries = HighDim.queryVecs(cfg, 8)
  private lazy val gt = GroundTruth.knnBatch(spark, points, queries, k)
  private lazy val mp = new MultiProbe(spark, points, partitions = 4, seed = 3,
    probesPerTable = 300)

  test("bucket widths are data-driven and positive") {
    assert(mp.widths.length == mp.numTables)
    assert(mp.widths.forall(_ > 0))
  }

  test("index covers the dataset") {
    assert(mp.n == 800)
    assert(mp.index.count() == 4)
  }

  test("probe sequence starts at the home bucket and has unique keys") {
    val q = queries.head
    for (t <- 0 until mp.numTables) {
      val seq = mp.probeSequence(mp.lshs(t), q, 100)
      assert(seq.nonEmpty && seq.length <= 100)
      assert(seq.head == mp.lshs(t).buckets(q).mkString(","))
      assert(seq.distinct.length == seq.length, "probe keys must be unique")
    }
  }

  test("probe sequence respects maxProbes = 1") {
    val seq = mp.probeSequence(mp.lshs(0), queries.head, 1)
    assert(seq.length == 1)
  }

  test("probed buckets differ from the home bucket by single-step perturbations") {
    val lsh = mp.lshs(0)
    val home = lsh.buckets(queries.head)
    val seq = mp.probeSequence(lsh, queries.head, 50)
    seq.drop(1).foreach { key =>
      val b = key.split(",").map(_.toInt)
      val deltas = b.zip(home).map { case (x, h) => x - h }
      assert(deltas.forall(d => d >= -1 && d <= 1), s"key $key")
      assert(deltas.exists(_ != 0), "non-home probes must perturb something")
    }
  }

  test("longer probe sequences reach more candidates") {
    val few = new MultiProbe(spark, points, partitions = 4, seed = 3, probesPerTable = 5)
    val many = mp
    val cFew = few.knn(queries.take(3), k).map(_.candidates).sum
    val cMany = many.knn(queries.take(3), k).map(_.candidates).sum
    assert(cMany >= cFew, s"many=$cMany few=$cFew")
    few.unpersist()
  }

  test("reasonable recall against exact ground truth") {
    val res = mp.knn(queries, k).map(_.neighbors)
    val recall = Metrics.meanOver(res, gt)(Metrics.recall)
    assert(recall >= 0.4, s"recall=$recall")
  }

  test("results sorted, unique, at most k; distances are true distances") {
    val res = mp.knn(queries, k)
    val data = points.collect().map(p => p.id -> p.vec).toMap
    queries.zip(res).foreach { case (q, qr) =>
      assert(qr.neighbors.length <= k)
      assert(qr.neighbors.map(_.id).distinct.length == qr.neighbors.length)
      qr.neighbors.foreach(nb => assert(math.abs(nb.dist - Vec.dist(q, data(nb.id))) < 1e-9))
    }
  }

  test("empty query batch") {
    assert(mp.knn(Array.empty, k).isEmpty)
  }

  test("knn rejects NaN query coordinates") {
    val e = mp
    val q = queries(0).clone(); q(3) = Double.NaN
    failAfter(20.seconds)(intercept[IllegalArgumentException](e.knn(Array(q), k)))
  }

  test("unpersist drops the cached index") {
    val e = new MultiProbe(spark, points, partitions = 4, seed = 3, probesPerTable = 5)
    assert(spark.sparkContext.getPersistentRDDs.contains(e.index.id))
    e.unpersist()
    assert(!spark.sparkContext.getPersistentRDDs.contains(e.index.id))
  }

  test("building over a point with a NaN coordinate fails, naming the point") {
    val bad = Point(123456L, Array.tabulate(cfg.d)(i => if (i == 5) Double.NaN else 0.1 * i))
    assertBuildRejects(points, bad)(new MultiProbe(spark, _, partitions = 4, seed = 3))
  }

  test("building over a point with a short vector fails, naming the point") {
    assertBuildRejects(points, Point(123457L, Array.fill(cfg.d - 1)(0.5)))(new MultiProbe(spark, _, partitions = 4, seed = 3))
  }
}
