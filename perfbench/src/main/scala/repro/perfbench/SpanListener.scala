package repro.perfbench

import org.apache.spark.scheduler._
import scala.collection.mutable

/** `spark.job` and `spark.task` spans from the scheduler's own events.
  *
  * Each job is attributed to the span named by the `perfbench.span` local
  * property of the thread that started it (a request id, `build`, or a
  * probe); jobs without the property are ignored. Times are epoch ms as
  * stamped by the scheduler; task metrics come from `TaskMetrics`.
  */
final class SpanListener extends SparkListener {
  import SpanListener._

  private val jobTag = mutable.HashMap.empty[Int, String]
  private val stageJob = mutable.HashMap.empty[Int, Int]
  private val stageSubmit = mutable.HashMap.empty[Int, Long]
  private val jobStart = mutable.HashMap.empty[Int, Long]
  private val jobsDone = mutable.ArrayBuffer.empty[JobSpan]
  private val tasksDone = mutable.ArrayBuffer.empty[TaskSpan]
  @volatile private var lastEvent = System.currentTimeMillis()

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    lastEvent = System.currentTimeMillis()
    val tag = Option(e.properties).flatMap(p => Option(p.getProperty(Property)))
    tag.foreach { t =>
      jobTag(e.jobId) = t
      jobStart(e.jobId) = e.time
      e.stageIds.foreach(s => stageJob(s) = e.jobId)
    }
  }

  override def onJobEnd(e: SparkListenerJobEnd): Unit = synchronized {
    lastEvent = System.currentTimeMillis()
    jobStart.remove(e.jobId).foreach { t0 =>
      jobsDone += JobSpan(jobTag(e.jobId), e.jobId, t0, e.time)
    }
  }

  override def onStageSubmitted(e: SparkListenerStageSubmitted): Unit = synchronized {
    lastEvent = System.currentTimeMillis()
    e.stageInfo.submissionTime.foreach(t => stageSubmit(e.stageInfo.stageId) = t)
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    lastEvent = System.currentTimeMillis()
    for (job <- stageJob.get(e.stageId); tag <- jobTag.get(job)) {
      val info = e.taskInfo
      val m = e.taskMetrics
      val submitted = stageSubmit.getOrElse(e.stageId, info.launchTime)
      tasksDone += TaskSpan(tag, job, e.stageId, info.launchTime, info.finishTime,
        info.launchTime - submitted,
        if (m == null) 0L else m.executorRunTime,
        if (m == null) 0L else m.executorDeserializeTime,
        if (m == null) 0L else m.jvmGCTime,
        if (m == null) 0L else m.resultSize)
    }
  }

  /** Wait until every tagged job has ended and the event stream has been
    * quiet for a moment (events arrive asynchronously), at most `maxMs`. */
  def awaitQuiet(maxMs: Long = 10000L): Unit = {
    val deadline = System.currentTimeMillis() + maxMs
    def busy = synchronized(jobStart.nonEmpty) || System.currentTimeMillis() - lastEvent < 300
    while (busy && System.currentTimeMillis() < deadline) Thread.sleep(50)
  }

  def jobs: Seq[JobSpan] = synchronized(jobsDone.toList)
  def tasks: Seq[TaskSpan] = synchronized(tasksDone.toList)
}

object SpanListener {
  val Property = "perfbench.span"

  final case class JobSpan(tag: String, jobId: Int, startMs: Long, endMs: Long) {
    def toJson: Map[String, Any] =
      Map("tag" -> tag, "job" -> jobId, "start_ms" -> startMs, "end_ms" -> endMs)
  }

  final case class TaskSpan(
      tag: String, jobId: Int, stageId: Int, launchMs: Long, finishMs: Long,
      waitMs: Long, runMs: Long, deserializeMs: Long, gcMs: Long, resultBytes: Long) {
    def toJson: Map[String, Any] = Map(
      "tag" -> tag, "job" -> jobId, "stage" -> stageId, "start_ms" -> launchMs,
      "end_ms" -> finishMs, "wait_ms" -> waitMs, "run_ms" -> runMs,
      "deserialize_ms" -> deserializeMs, "gc_ms" -> gcMs, "result_bytes" -> resultBytes)
  }
}
