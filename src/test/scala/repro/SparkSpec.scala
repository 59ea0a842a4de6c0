package repro

import java.util.concurrent.{ConcurrentHashMap, CountDownLatch, TimeUnit}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}
import org.apache.spark.sql.{Dataset, SparkSession}
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Point
import scala.jdk.CollectionConverters._

/** Base for every test: one local-mode SparkSession for the whole run.
  *
  * Driver heap is set via ``Test / javaOptions`` in build.sbt from
  * SPARK_DRIVER_MEM (the image exports it, or derives ~75% of the cgroup
  * limit). Broadcast joins are disabled so shuffle/join papers actually
  * exercise the shuffle path at SF~=0.1; re-enable per-query if the
  * paper's contribution is the broadcast side.
  */
trait SparkSpec extends AnyFunSuite with BeforeAndAfterAll {
  lazy val spark: SparkSession = SparkSpec.shared

  override def afterAll(): Unit = { super.afterAll() }

  /** Building an engine with `build` over the first 100 `points` by id plus
    * `bad` fails with an IllegalArgumentException (possibly wrapped by
    * Spark) naming `bad`. */
  def assertBuildRejects(points: Dataset[Point], bad: Point)(build: Dataset[Point] => Any): Unit = {
    val s = spark
    import s.implicits._
    val data = (points.collect().sortBy(_.id).take(100) :+ bad).toSeq.toDS()
    val e = intercept[Exception](build(data))
    val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
      .collectFirst { case iae: IllegalArgumentException => iae }
    assert(cause.exists(_.getMessage.contains(s"point ${bad.id}:")), e)
  }

  /** `body`'s value and the Spark jobs it ran, as each job's count of
    * finished tasks, in job order. Only jobs started from this thread while
    * `body` runs count. */
  def tasksPerJob[A](body: => A): (A, Seq[Int]) = {
    val sc = spark.sparkContext
    val (group, marker) = (s"tasksPerJob-${System.nanoTime}", s"tasksPerJob-end-${System.nanoTime}")
    val tasks = new ConcurrentHashMap[Int, Int] // job id -> finished tasks
    val stageJob = new ConcurrentHashMap[Int, Int]
    val markerSeen = new CountDownLatch(1)
    val listener = new SparkListener {
      override def onJobStart(e: SparkListenerJobStart): Unit =
        Option(e.properties).map(_.getProperty("spark.jobGroup.id")).foreach {
          case `group` => tasks.put(e.jobId, 0); e.stageIds.foreach(stageJob.put(_, e.jobId))
          case `marker` => markerSeen.countDown()
          case _ =>
        }
      override def onTaskEnd(e: SparkListenerTaskEnd): Unit =
        if (stageJob.containsKey(e.stageId)) tasks.merge(stageJob.get(e.stageId), 1, _ + _)
    }
    sc.addSparkListener(listener)
    try {
      sc.setJobGroup(group, group)
      val value = try body finally sc.clearJobGroup()
      // the listener sees events in the order they were posted: once it has
      // seen a later job start, it has seen every event of body's jobs
      sc.setJobGroup(marker, marker)
      try sc.parallelize(Seq(0), 1).count() finally sc.clearJobGroup()
      assert(markerSeen.await(30, TimeUnit.SECONDS), "the listener never saw the marker job")
      (value, tasks.asScala.toSeq.sortBy(_._1).map(_._2))
    } finally sc.removeSparkListener(listener)
  }

  /** Building an engine with `build` over no points fails with an
    * IllegalArgumentException that says the data is empty. */
  def assertRejectsEmpty(build: Dataset[Point] => Any): Unit = {
    val s = spark
    import s.implicits._
    val e = intercept[IllegalArgumentException](build(Seq.empty[Point].toDS()))
    assert(e.getMessage.contains("data is empty"), e)
  }
}

object SparkSpec {
  lazy val shared: SparkSession = {
    val s = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("repro")
      .config("spark.sql.shuffle.partitions",
              sys.env.getOrElse("SPARK_SHUFFLE_PARTITIONS", "64"))
      .getOrCreate()
    // One line in test output that tells the driver whether the cgroup
    // derivation saw the real limit (README § Spark target).
    Console.err.println(
      s"[SparkSpec] driverMem=${sys.env.getOrElse("SPARK_DRIVER_MEM", "(unset)")} " +
      s"master=${s.sparkContext.master} " +
      s"defaultParallelism=${s.sparkContext.defaultParallelism}"
    )
    s
  }
}
