package repro

import org.apache.spark.sql.Dataset
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import repro.baselines.{MultiProbe, Qalsh, Srs}
import repro.core._
import repro.data.HighDim

/** What every engine's `knn` shares: one Spark job of P tasks per job of
  * radius rounds (`TopK.gather`), and answers of min(k, n) neighbours at
  * their true distances, also on data made mostly of one repeated point.
  */
class EnginesSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private val cfg = HighDim.testConfig(n = 800, d = 24, seed = 41)
  private val (k, parts) = (10, 4)

  /** `body` over every engine built on `data`: its name, its `knn`, and
    * the number of jobs a call should run for its largest `rounds`. */
  private def withEngines(data: Dataset[Point])(
      body: Seq[(String, (Array[Array[Double]], Int) => Array[QueryResult], Int => Int)] => Unit): Unit = {
    val params = LshParams(partitions = parts, seed = 3)
    val pm = new RangeLsh(spark, data, params, usePmTree = true)
    val r = new RangeLsh(spark, data, params, usePmTree = false)
    val qalsh = new Qalsh(spark, data, partitions = parts, seed = 3)
    val mp = new MultiProbe(spark, data, partitions = parts, seed = 3)
    try body(Seq(
      ("PM-LSH", pm.knn, rounds => rounds),
      ("R-LSH", r.knn, rounds => rounds),
      ("QALSH", qalsh.knn, rounds => (rounds + qalsh.levelsPerJob - 1) / qalsh.levelsPerJob),
      ("SRS", new Srs(spark, r).knn, _ => 1),
      ("Multi-Probe", mp.knn, _ => 1)))
    finally { pm.unpersist(); r.unpersist(); qalsh.unpersist(); mp.unpersist() }
  }

  test("a knn call runs one job of P tasks per radius job: max(rounds) for PM-LSH and R-LSH, ⌈max(rounds)/3⌉ for QALSH, 1 for SRS and Multi-Probe, none for an empty batch") {
    val points = HighDim.generate(spark, cfg).persist()
    // a query far outside the data needs many radius rounds
    val far = Array.fill(cfg.d)(1e3 * points.collect().map(_.vec.map(math.abs).max).max)
    val batch = HighDim.queryVecs(cfg, 8) :+ far
    withEngines(points)(_.foreach { case (name, knn, jobs) =>
      val (res, tasks) = tasksPerJob(knn(batch, k))
      val rounds = res.map(_.rounds).max
      assert(tasks == Seq.fill(jobs(rounds))(parts), s"$name: $rounds rounds")
      if (name != "SRS" && name != "Multi-Probe") assert(tasks.length > 1, name)
      assert(tasksPerJob(knn(Array.empty, k))._2.isEmpty, name)
    })
    points.unpersist()
  }

  test("a finite query whose projection overflows is rejected, naming it, by every engine's knn and by ballCover") {
    val points = HighDim.generate(spark, cfg).persist()
    val batch = Array(HighDim.queryVecs(cfg, 1).head, Array.fill(cfg.d)(1.7e308))
    def rejects(name: String)(call: => Any): Unit = {
      val e = intercept[IllegalArgumentException](call)
      assert(e.getMessage.contains("query 1 has a non-finite projection"), s"$name: ${e.getMessage}")
    }
    failAfter(20.seconds) {
      withEngines(points)(_.foreach { case (name, knn, _) => rejects(name)(knn(batch, k)) })
      val pm = new RangeLsh(spark, points, LshParams(partitions = parts, seed = 3), usePmTree = true)
      val e = intercept[IllegalArgumentException](pm.ballCover(batch(1), 1.0))
      assert(e.getMessage.contains("non-finite projection"), e.getMessage)
      pm.unpersist()
    }
    points.unpersist()
  }

  test("200 copies of one point among 20 others: every engine returns min(k, n) neighbours at their true distances") {
    val s = spark
    import s.implicits._
    val rng = new scala.util.Random(7)
    val dup = Array.fill(cfg.d)(rng.nextGaussian())
    val data = Seq.tabulate(200)(i => Point(i.toLong, dup.clone())) ++
      Seq.tabulate(20)(i => Point(200L + i, Array.fill(cfg.d)(rng.nextGaussian())))
    val vecs = data.map(p => p.id -> p.vec).toMap
    // the repeated point, a query next to it, one next to another point,
    // and one between the two
    val queries = Array(dup, dup.map(_ + 1e-3), vecs(205L).map(_ + 1e-3), dup.zip(vecs(210L)).map(p => (p._1 + p._2) / 2))
    failAfter(60.seconds) {
      withEngines(data.toDS())(engines =>
        for ((name, knn, _) <- engines; kk <- Seq(k, 500); (res, q) <- knn(queries, kk).zip(queries)) {
          val nbs = res.neighbors
          assert(nbs.length == math.min(kk, data.length), s"$name, k = $kk")
          assert(nbs.map(_.id).distinct.length == nbs.length, s"$name, k = $kk")
          nbs.foreach(nb => assert(nb.dist == Vec.dist(q, vecs(nb.id)), s"$name, k = $kk, id ${nb.id}"))
          assert(nbs.map(_.dist).sameElements(nbs.map(_.dist).sorted), s"$name, k = $kk")
        })
    }
  }
}
