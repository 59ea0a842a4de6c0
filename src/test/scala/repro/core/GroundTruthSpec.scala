package repro.core

import repro.{Oracle, SparkSpec}
import repro.data.HighDim

/** Exact-kNN ground truth (the R* of Eqs. 11–12) validated against DuckDB
  * on low-dimensional data where SQL can express the distance.
  */
class GroundTruthSpec extends SparkSpec {

  private val cfg = HighDim.testConfig(n = 250, d = 4, seed = 23)
  private lazy val points = HighDim.generate(spark, cfg)
  private lazy val queries = HighDim.queryVecs(cfg, 3)

  private def sqlDist(p: String, q: String): String =
    (0 until 4).map(i =>
      s"(CAST($p.x$i AS DOUBLE)-CAST($q.x$i AS DOUBLE))*(CAST($p.x$i AS DOUBLE)-CAST($q.x$i AS DOUBLE))")
      .mkString(" + ")

  private def ptsDf = {
    import spark.implicits._
    points.map(p => (p.id, p.vec(0), p.vec(1), p.vec(2), p.vec(3)))
      .toDF("id", "x0", "x1", "x2", "x3")
  }

  private def qsDf = {
    import spark.implicits._
    queries.zipWithIndex.map { case (v, i) => (i, v(0), v(1), v(2), v(3)) }
      .toSeq.toDF("qid", "x0", "x1", "x2", "x3")
  }

  test("knnBatch matches DuckDB top-k distances (oracle)") {
    import spark.implicits._
    val k = 5
    val gt = GroundTruth.knnBatch(spark, points, queries, k)
    val sparkDf = gt.zipWithIndex
      .flatMap { case (nbs, qi) => nbs.map(nb => (qi, nb.dist)) }
      .toSeq.toDF("qid", "dist")
    Oracle.assertEquivalent(
      sparkDf,
      s"""WITH d AS (
         |  SELECT q.qid AS qid, sqrt(${sqlDist("p", "q")}) AS dist
         |  FROM pts p, qs q
         |), r AS (
         |  SELECT qid, dist, row_number() OVER (PARTITION BY qid ORDER BY dist) AS rn FROM d
         |)
         |SELECT qid, dist FROM r WHERE rn <= $k""".stripMargin,
      "pts" -> ptsDf, "qs" -> qsDf)
  }

  test("knnBatch neighbor count within a radius matches DuckDB (oracle)") {
    import spark.implicits._
    val r = 0.9
    // brute-force range counts via the same distributed scan machinery:
    // k = n ensures every point is ranked, then filter by radius
    val all = GroundTruth.knnBatch(spark, points, queries, 250)
    val sparkDf = all.zipWithIndex
      .map { case (nbs, qi) => (qi, nbs.count(_.dist <= r).toLong) }
      .toSeq.toDF("qid", "cnt")
    Oracle.assertEquivalent(
      sparkDf,
      s"""SELECT q.qid AS qid, COUNT(p.id) AS cnt
         |FROM qs q LEFT JOIN pts p ON ${sqlDist("p", "q")} <= ${r * r}
         |GROUP BY q.qid""".stripMargin,
      "pts" -> ptsDf, "qs" -> qsDf)
  }

  test("knnBatch distances are sorted and ids unique") {
    val gt = GroundTruth.knnBatch(spark, points, queries, 10)
    gt.foreach { nbs =>
      assert(nbs.length == 10)
      assert(nbs.map(_.id).distinct.length == 10)
      nbs.sliding(2).foreach {
        case Array(a, b) => assert(a.dist <= b.dist + 1e-12)
        case _           =>
      }
    }
  }

  test("knnBatch with k larger than n returns all points") {
    val gt = GroundTruth.knnBatch(spark, points, queries.take(1), 10000)
    assert(gt.head.length == 250)
  }

  test("knnBatch of a dataset point returns itself first") {
    val somePoint = points.head()
    val gt = GroundTruth.knnBatch(spark, points, Array(somePoint.vec), 3)
    assert(gt.head.head.id == somePoint.id)
    assert(gt.head.head.dist == 0.0)
  }

  test("empty query batch") {
    assert(GroundTruth.knnBatch(spark, points, Array.empty, 5).isEmpty)
  }

  test("knnBatch and LinearScan reject k < 1, naming k") {
    Seq[Int => Any](GroundTruth.knnBatch(spark, points, queries, _), LinearScan.knn(spark, points, queries, _)).foreach { run =>
      val err = intercept[IllegalArgumentException](run(0))
      assert(err.getMessage.contains("k must be at least 1, got 0"), err)
    }
  }

  /** knnBatch over `qs` fails with an IllegalArgumentException (possibly
    * wrapped by Spark) whose message contains `msg`. */
  private def assertRejects(qs: Array[Array[Double]], msg: String): Unit = {
    val e = intercept[Exception](GroundTruth.knnBatch(spark, points, qs, 3))
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.exists(_.getMessage.contains(msg)), e)
  }

  test("knnBatch rejects a query shorter than the data instead of comparing its first coordinates") {
    assertRejects(Array(queries(0), queries(1).take(3)), "a query has 3 coordinates, the data has 4")
  }

  test("knnBatch rejects a query longer than the data") {
    assertRejects(Array(queries(0) :+ 0.5), "a query has 5 coordinates, the data has 4")
  }

  test("knnBatch rejects NaN and infinite query coordinates") {
    Seq(Double.NaN, Double.NegativeInfinity).foreach { x =>
      val q = queries(1).clone(); q(2) = x
      assertRejects(Array(queries(0), q), "query 1 has a non-finite coordinate")
    }
  }

  /** knnBatch over the first 100 points by id plus `bad` fails, naming it. */
  private def rejectsRow(bad: Point): Unit =
    assertBuildRejects(points, bad)(GroundTruth.knnBatch(spark, _, queries, 3))

  test("knnBatch rejects a data row shorter than the data's dimension, naming the point") {
    rejectsRow(Point(9001L, Array(0.1, 0.2, 0.3)))
  }

  test("knnBatch rejects a data row longer than the data's dimension instead of comparing its first coordinates") {
    rejectsRow(Point(9002L, Array(0.1, 0.2, 0.3, 0.4, 0.5)))
  }

  test("knnBatch rejects a data row with a NaN coordinate instead of ranking it last") {
    rejectsRow(Point(9003L, Array(0.1, Double.NaN, 0.3, 0.4)))
  }
}
