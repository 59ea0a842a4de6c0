package repro.perfbench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import java.security.MessageDigest
import java.util.concurrent.atomic.AtomicReference
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.baselines.{MultiProbe, Qalsh, Srs}
import repro.core._
import repro.data.{HighDim, HighDimConfig}
import scala.collection.mutable

/** One benchmark run: generate a workload's data and queries, build its
  * engines, warm them, drive a closed loop from one client thread for a
  * fixed time, check every answer, and write the raw measurements as JSON.
  * run.py turns the raw file into metrics; see README.md.
  *
  * Usage: Main --workload W --seed S --seconds T --trace 0|1 --out FILE
  *             --local-dir DIR [--data-seed D]
  */
object Main {

  val K = 50
  /** Engine builds per run; setup_s is their median, so the first, cold
    * build (class loading, JIT) does not set it. */
  val BuildReps = 4
  val WarmupSeconds = 8.0
  val RequestDeadlineMs = 30000L

  /** A query engine as the client sees it: a name and a batched kNN call. */
  final case class Engine(name: String, knn: Array[Array[Double]] => Array[QueryResult])

  /** Built engines, the RangeLsh engine whose layers the traced run replays,
    * and how to drop their cached indexes. */
  final case class Built(engines: Seq[Engine], rangeLsh: RangeLsh, release: () => Unit)

  final case class Workload(
      name: String,
      dataset: String,
      batch: Int, // queries per knn call
      poolCalls: Int, // distinct query batches per engine
      build: (SparkSession, Dataset[Point], HighDimConfig) => Built)

  private def lshParams(cfg: HighDimConfig) = LshParams(seed = cfg.seed + 7919)

  private def pmLsh(spark: SparkSession, pts: Dataset[Point], cfg: HighDimConfig): Built = {
    val e = new RangeLsh(spark, pts, lshParams(cfg), usePmTree = true)
    Built(Seq(Engine("PM-LSH", e.knn(_, K))), e, () => e.unpersist())
  }

  private def baselines(spark: SparkSession, pts: Dataset[Point], cfg: HighDimConfig): Built = {
    val r = new RangeLsh(spark, pts, lshParams(cfg), usePmTree = false)
    val srs = new Srs(spark, r)
    val qalsh = new Qalsh(spark, pts, seed = cfg.seed + 15401)
    val mp = new MultiProbe(spark, pts, seed = cfg.seed + 23911)
    Built(
      Seq(Engine("R-LSH", r.knn(_, K)), Engine("SRS", srs.knn(_, K)),
        Engine("QALSH", qalsh.knn(_, K)), Engine("Multi-Probe", mp.knn(_, K))),
      r, () => { r.unpersist(); qalsh.unpersist(); mp.unpersist() })
  }

  val workloads: Map[String, Workload] = Seq(
    Workload("deep-batch", "Deep", batch = 50, poolCalls = 8, pmLsh),
    Workload("nus-baselines", "NUS", batch = 50, poolCalls = 4, baselines),
  ).map(w => w.name -> w).toMap

  final case class Outcome(
      id: Int, engine: String, batch: Int, queries: Int, startMs: Double, ms: Double,
      traced: Boolean, answer: Option[Array[QueryResult]], error: Option[String]) {
    def toJson: Map[String, Any] = Map(
      "id" -> id, "engine" -> engine, "batch" -> batch, "queries" -> queries,
      "start_ms" -> startMs, "end_ms" -> (startMs + ms), "ms" -> ms, "traced" -> traced,
      "ok" -> answer.isDefined, "error" -> error)
  }

  /** Run one knn call on its own thread under a deadline. A throw or a
    * timeout is an outcome, not a crash: the jobs of a timed-out call are
    * cancelled and the thread is abandoned, so the loop never hangs. */
  def request(spark: SparkSession, id: Int, engine: Engine, batchNo: Int,
              qs: Array[Array[Double]], traced: Boolean): Outcome = {
    val sc = spark.sparkContext
    val tag = s"request-$id"
    val result = new AtomicReference[Either[String, Array[QueryResult]]]()
    val th = new Thread(() => {
      sc.setJobGroup(tag, engine.name, interruptOnCancel = true)
      sc.setLocalProperty(SpanListener.Property, if (traced) tag else null)
      try result.set(Right(engine.knn(qs)))
      catch { case t: Throwable => result.set(Left(t.toString)) }
    }, s"perfbench-$tag")
    th.setDaemon(true)
    val startMs = System.currentTimeMillis().toDouble
    val t0 = System.nanoTime()
    th.start()
    th.join(RequestDeadlineMs)
    val ms = (System.nanoTime() - t0) / 1e6
    val res: Either[String, Array[QueryResult]] =
      if (th.isAlive) {
        sc.cancelJobGroup(tag)
        th.interrupt()
        Left(s"deadline of $RequestDeadlineMs ms exceeded")
      } else result.get()
    Outcome(id, engine.name, batchNo, qs.length, startMs, ms, traced,
      res.toOption, res.left.toOption)
  }

  private def argMap(args: Array[String]): Map[String, String] =
    args.grouped(2).map {
      case Array(k, v) if k.startsWith("--") => k.drop(2) -> v
      case other => throw new IllegalArgumentException(s"bad arguments: ${other.mkString(" ")}")
    }.toMap

  def main(args: Array[String]): Unit = {
    val a = argMap(args)
    val w = workloads.getOrElse(a("workload"),
      throw new IllegalArgumentException(s"unknown workload ${a("workload")}; " +
        s"known: ${workloads.keys.toSeq.sorted.mkString(", ")}"))
    val querySeed = a("seed").toLong
    val seconds = a("seconds").toDouble
    val traced = a("trace") == "1"
    val base = HighDim.benchConfigs.find(_.name == w.dataset).get
    val cfg = base.copy(seed = a.get("data-seed").map(_.toLong).getOrElse(base.seed))
    val cores = math.min(4, Runtime.getRuntime.availableProcessors())

    val spark = SparkSession.builder
      .master(s"local[$cores]")
      .appName(s"perfbench-${w.name}")
      .config("spark.ui.enabled", "false")
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.sql.shuffle.partitions", "8")
      .config("spark.local.dir", a("local-dir"))
      .getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    val listener = new SpanListener
    if (traced) spark.sparkContext.addSparkListener(listener)
    try {
      val out = runWorkload(spark, w, cfg, querySeed, seconds, traced, listener, cores)
      Files.write(Paths.get(a("out")), Json.render(out).getBytes(StandardCharsets.UTF_8))
    } finally spark.stop()
  }

  def runWorkload(spark: SparkSession, w: Workload, cfg: HighDimConfig, querySeed: Long,
                  seconds: Double, traced: Boolean, listener: SpanListener,
                  cores: Int): Map[String, Any] = {
    val sc = spark.sparkContext
    var last = System.nanoTime()
    def phase(name: String): Unit = {
      val now = System.nanoTime()
      Console.err.println(f"[perfbench] $name%-28s ${(now - last) / 1e9}%7.2f s")
      last = now
    }
    // Queries: fresh draws from the dataset's distribution, on a stream set
    // by the query seed and disjoint from the data ids [0, n).
    val centers = HighDim.centers(cfg)
    val qBase = cfg.n + (java.lang.Math.floorMod(querySeed, 1L << 20) + 1) * (1L << 20)
    val pool: Array[Array[Double]] =
      Array.tabulate(w.poolCalls * w.batch)(i => HighDim.pointVec(cfg, centers, qBase + i))
    val batches = pool.grouped(w.batch).toArray

    val points = HighDim.generate(spark, cfg).persist()
    val n = points.count()
    phase("data")
    val truth = GroundTruth.knnBatch(spark, points, pool, K)
    phase("ground truth")

    // setup_s: engine construction on materialised points, timed BuildReps
    // times; all but the last build are released.
    val setupS = mutable.ArrayBuffer.empty[Double]
    var built: Built = null
    for (rep <- 1 to BuildReps) {
      if (built != null) built.release()
      sc.setLocalProperty(SpanListener.Property, s"build-$rep")
      val t0 = System.nanoTime()
      built = w.build(spark, points, cfg)
      setupS += (System.nanoTime() - t0) / 1e9
      sc.setLocalProperty(SpanListener.Property, null)
    }
    phase(s"setup x$BuildReps")
    points.unpersist(blocking = true)
    val persistent = sc.getPersistentRDDs.keySet
    val indexBytes = sc.getRDDStorageInfo.filter(i => persistent.contains(i.id))
      .map(i => i.memSize + i.diskSize).sum

    val engines = built.engines
    var nextId = 0
    def call(e: Engine, b: Int, tracedReq: Boolean): Outcome = {
      nextId += 1
      request(spark, nextId, e, b, batches(b), tracedReq)
    }

    // Warm-up: one untimed pass over the whole pool, which is the reference
    // answer set (quality, gates, digest), then more untimed rounds until
    // WarmupSeconds have passed, so JIT compilation settles before timing.
    val reference = mutable.LinkedHashMap.empty[String, Array[Option[Array[QueryResult]]]]
    val warm = mutable.ArrayBuffer.empty[Outcome]
    val warmStart = System.nanoTime()
    for (b <- batches.indices; e <- engines) {
      val o = call(e, b, tracedReq = false)
      warm += o
      reference.getOrElseUpdate(e.name, Array.fill(batches.length)(None))(b) = o.answer
    }
    var extra = 0
    while ((System.nanoTime() - warmStart) / 1e9 < WarmupSeconds) {
      engines.foreach(e => warm += call(e, extra % batches.length, tracedReq = false))
      extra += 1
    }

    phase(s"warm-up (${warm.length} calls)")
    // Timed closed loop: one client, next call only after the previous one
    // returns; engines take turns, batches cycle. In a traced run, passes
    // over the pool alternate between traced and untraced, so both halves
    // see the same batches and their difference is the tracing overhead.
    val timed = mutable.ArrayBuffer.empty[Outcome]
    val loopStart = System.nanoTime()
    var round = 0
    while ((System.nanoTime() - loopStart) / 1e9 < seconds) {
      val b = round % batches.length
      val tracedPass = traced && (round / batches.length) % 2 == 0
      engines.foreach(e => timed += call(e, b, tracedPass))
      round += 1
    }
    val loopMs = (System.nanoTime() - loopStart) / 1e6

    phase(s"timed loop (${timed.length} calls)")
    val checks = Checks.run(cfg, centers, n, K, batches, truth, reference, (warm ++ timed).toSeq)
    phase("checks")

    val counts = mutable.LinkedHashMap.empty[String, Double]
    def perQuery(engine: String)(f: QueryResult => Double): Double = {
      val rs = reference(engine).flatMap(_.toSeq).flatten
      if (rs.isEmpty) 0.0 else rs.map(f).sum / rs.length
    }
    val rangeName = if (built.rangeLsh.usePmTree) "PM-LSH" else "R-LSH"
    counts("rangelsh.rounds_per_query") = perQuery(rangeName)(_.rounds.toDouble)
    counts("rangelsh.candidates_per_query") = perQuery(rangeName)(_.candidates.toDouble)
    val answered = perQuery(rangeName)(_.neighbors.length.toDouble)
    counts("rangelsh.answer_yield") = answered / math.max(counts("rangelsh.candidates_per_query"), 1.0)
    def engineCount(engine: String)(f: QueryResult => Double): Double =
      if (reference.contains(engine)) perQuery(engine)(f) else 0.0
    counts("srs.candidates_per_query") = engineCount("SRS")(_.candidates.toDouble)
    counts("qalsh.rounds_per_query") = engineCount("QALSH")(_.rounds.toDouble)
    counts("qalsh.candidates_per_query") = engineCount("QALSH")(_.candidates.toDouble)
    counts("multiprobe.candidates_per_query") = engineCount("Multi-Probe")(_.candidates.toDouble)

    val trace: Map[String, Any] =
      if (!traced) Map.empty
      else {
        listener.awaitQuiet()
        val rec = new Replay.Recorder
        val replayQs = batches.flatten.take(50)
        val layers = Replay.run(spark, built.rangeLsh, replayQs, K, reps = 10, rec)
        listener.awaitQuiet()
        phase("replays")
        Map(
          "jobs" -> listener.jobs.map(_.toJson),
          "tasks" -> listener.tasks.map(_.toJson),
          "replay_spans" -> rec.spans.map(_.toJson),
          "replay_queries" -> replayQs.length,
          "layers" -> layers)
      }
    built.release()

    Map(
      "workload" -> w.name,
      "env" -> Map(
        "nproc" -> Runtime.getRuntime.availableProcessors(),
        "spark_master" -> sc.master,
        "spark_version" -> spark.version,
        "driver_heap_mb" -> Runtime.getRuntime.maxMemory() / (1L << 20),
        "jvm" -> s"${System.getProperty("java.vm.name")} ${System.getProperty("java.version")}",
        "gc" -> java.lang.management.ManagementFactory.getGarbageCollectorMXBeans.toArray
          .map(_.asInstanceOf[java.lang.management.GarbageCollectorMXBean].getName).mkString("+"),
        "dataset" -> cfg.name, "n" -> n, "d" -> cfg.d, "k" -> K,
        "data_seed" -> cfg.seed, "query_seed" -> querySeed,
        "queries_per_call" -> w.batch, "distinct_queries" -> pool.length,
        "partitions" -> built.rangeLsh.params.partitions, "cores" -> cores),
      "engines" -> engines.map(_.name),
      "setup_s" -> setupS,
      "index_bytes" -> indexBytes,
      "warmup_requests" -> warm.length,
      "loop_ms" -> loopMs,
      "requests" -> timed.map(_.toJson),
      "quality" -> checks.quality,
      "gates" -> checks.gates,
      "digest" -> checks.digest,
      "answers_changed" -> checks.answersChanged,
      "counts" -> counts,
      "trace" -> trace)
  }
}

/** Correctness gates over every answer of the run. */
object Checks {

  final case class Result(
      quality: Map[String, Map[String, Double]],
      gates: Seq[Map[String, Any]],
      digest: String,
      answersChanged: Int)

  /** Bands PM-LSH and every engine must stay in (as the Table-4 suite
    * asserts): PM-LSH recall ≥ 0.75 with overall ratio in [1, 1.06], every
    * engine's ratio in [1, 1.2). */
  def run(cfg: HighDimConfig, centers: Array[Array[Double]], n: Long, k: Int,
          batches: Array[Array[Array[Double]]], truth: Array[Array[Neighbor]],
          reference: collection.Map[String, Array[Option[Array[QueryResult]]]],
          outcomes: Seq[Main.Outcome]): Result = {
    val gates = mutable.ArrayBuffer.empty[Map[String, Any]]
    def gate(name: String, ok: Boolean, detail: String): Unit =
      gates += Map("name" -> name, "ok" -> ok, "detail" -> detail)
    val want = math.min(k.toLong, n).toInt
    val qOffset = batches.scanLeft(0)(_ + _.length)

    // Every answered query returns min(k, n) neighbours with valid ids.
    val badSize = outcomes.flatMap(_.answer.toSeq).flatten.count { r =>
      r.neighbors.length != want || r.neighbors.exists(nb => nb.id < 0 || nb.id >= n)
    }
    gate("answer_size", badSize == 0, s"$badSize answers without $want valid neighbours")

    // Reported distances are the true distances of the returned ids, ascending.
    val vecs = mutable.HashMap.empty[Long, Array[Double]]
    var badDist = 0
    var missing = 0
    val quality = reference.map { case (engine, perBatch) =>
      val rec = mutable.ArrayBuffer.empty[Double]
      val rat = mutable.ArrayBuffer.empty[Double]
      perBatch.indices.foreach { b =>
        perBatch(b) match {
          case None => missing += 1
          case Some(rs) => rs.indices.foreach { j =>
            val nbs = rs(j).neighbors
            val q = batches(b)(j)
            nbs.foreach { nb =>
              val v = vecs.getOrElseUpdate(nb.id, HighDim.pointVec(cfg, centers, nb.id))
              if (math.abs(Vec.dist(q, v) - nb.dist) > 1e-9 * math.max(1.0, nb.dist)) badDist += 1
            }
            if (nbs.indices.drop(1).exists(i => nbs(i).dist < nbs(i - 1).dist)) badDist += 1
            val t = truth(qOffset(b) + j)
            rec += Metrics.recall(nbs, t)
            rat += Metrics.overallRatio(nbs, t)
          }
        }
      }
      def mean(xs: Seq[Double]) = if (xs.isEmpty) Double.NaN else xs.sum / xs.length
      engine -> Map("recall" -> mean(rec.toSeq), "overall_ratio" -> mean(rat.toSeq),
        "queries" -> rec.length.toDouble)
    }.toMap
    gate("reference_answered", missing == 0, s"$missing warm-up calls failed")
    gate("true_distances", badDist == 0, s"$badDist neighbours with a wrong or unsorted distance")

    quality.foreach { case (engine, q) =>
      val ratio = q("overall_ratio")
      gate(s"$engine.ratio_band", ratio >= 1.0 - 1e-9 && ratio < 1.2,
        f"$engine overall ratio $ratio%.4f outside [1, 1.2)")
      if (engine == "PM-LSH") {
        gate("PM-LSH.recall_band", q("recall") >= 0.75, f"PM-LSH recall ${q("recall")}%.4f < 0.75")
        gate("PM-LSH.ratio_band", ratio <= 1.06, f"PM-LSH overall ratio $ratio%.4f > 1.06")
      }
    }

    // Digest of the reference answers' neighbour ids, engine by engine in
    // pool order: equal digests mean identical answers.
    val md = MessageDigest.getInstance("SHA-256")
    reference.foreach { case (engine, perBatch) =>
      md.update(engine.getBytes(StandardCharsets.UTF_8))
      perBatch.foreach(_.foreach(_.foreach(r => md.update(r.neighbors.map(_.id).mkString(",", ",", ";")
        .getBytes(StandardCharsets.UTF_8)))))
    }
    val digest = md.digest().take(12).map(b => f"${b & 0xff}%02x").mkString

    // Answers that differ from the reference for the same query (reported).
    val changed = outcomes.count { o =>
      o.answer.exists { rs =>
        reference(o.engine)(o.batch).exists { ref =>
          !rs.indices.forall(j => rs(j).neighbors.map(_.id).sameElements(ref(j).neighbors.map(_.id)))
        }
      }
    }
    Result(quality, gates.toSeq, digest, changed)
  }
}
