package repro.perfbench

import org.apache.spark.serializer.KryoSerializer
import org.apache.spark.sql.SparkSession
import repro.core._

/** Driver-side replays of the public layer functions on a collected copy of
  * an engine's partition indexes. Every replay runs single-threaded over all
  * partitions at the engine's first-round radius t·rMin(k), so the numbers
  * are per-layer costs, not request latencies.
  *
  * The replay builds whichever tree type the engine does not use from the
  * same projected points (R-trees for PM-LSH, PM-trees for R-LSH), so the
  * PM-tree and R-tree layers are measured on every workload.
  */
object Replay {

  /** Receives the replays' results so the JIT cannot drop the timed work. */
  @volatile var blackhole = 0.0

  final case class Span(name: String, startMs: Double, endMs: Double) {
    def toJson: Map[String, Any] = Map("name" -> name, "start_ms" -> startMs, "end_ms" -> endMs)
  }

  final class Recorder {
    val spans = scala.collection.mutable.ArrayBuffer.empty[Span]
    def apply[T](name: String)(f: => T): T = {
      val t0 = System.currentTimeMillis().toDouble
      val n0 = System.nanoTime()
      try f finally spans += Span(name, t0, t0 + (System.nanoTime() - n0) / 1e6)
    }
  }

  private def millis[T](f: => T): (T, Double) = {
    val t0 = System.nanoTime()
    val v = f
    (v, (System.nanoTime() - t0) / 1e6)
  }

  private def median(xs: Seq[Double]): Double = {
    val s = xs.sorted
    if (s.length % 2 == 1) s(s.length / 2) else (s(s.length / 2 - 1) + s(s.length / 2)) / 2
  }

  /** Per-layer figures of `eng` for `queries` at answer size `k`; `reps` is
    * the number of timed repetitions of each Spark probe job. */
  def run(spark: SparkSession, eng: RangeLsh, queries: Array[Array[Double]], k: Int,
          reps: Int, rec: Recorder): Map[String, Double] = {
    import spark.implicits._
    val sc = spark.sparkContext
    sc.setLocalProperty(SpanListener.Property, "probe")

    // Scheduling floor: a no-op action over a one-row Dataset.
    val tiny = Seq(0).toDS().cache()
    def emptyJob(): Unit = tiny.foreachPartition((it: Iterator[Int]) => it.foreach(_ => ()))
    emptyJob()
    val emptyMs = rec("replay.empty_job")(median(Seq.fill(reps)(millis(emptyJob())._2)))
    tiny.unpersist()

    // The same no-op over the engine's cached index: fetch + kryo decode.
    def noop(): Unit = eng.indexes.foreachPartition((it: Iterator[PartIndex]) => it.foreach(_ => ()))
    noop()
    val noopMs = rec("replay.index_noop_job")(median(Seq.fill(reps)(millis(noop())._2)))
    sc.setLocalProperty(SpanListener.Property, null)

    val parts: Array[PartIndex] = rec("replay.collect_indexes")(eng.indexes.collect())
    val items: Array[Array[IndexedPoint]] = parts.map {
      case p: PMTreePart => p.tree.items.toArray
      case r: RTreePart => r.tree.items.toArray
    }
    val n = items.map(_.length).sum
    val cap = eng.params.capacity

    items.foreach(PMTree.build(_, eng.pivots, cap)) // warms the JIT for the timed builds
    val builds = rec("replay.pmtree_build")(items.map(it => millis(PMTree.build(it, eng.pivots, cap))))
    val pmTrees: Array[PMTree] =
      if (eng.usePmTree) parts.map(_.asInstanceOf[PMTreePart].tree) else builds.map(_._1)
    val rTrees: Array[RTree] =
      if (eng.usePmTree) rec("replay.rtree_build")(items.map(RTree.build(_, cap)))
      else parts.map(_.asInstanceOf[RTreePart].tree)

    val kryo = new KryoSerializer(sc.getConf).newInstance()
    val pmBytes = pmTrees.map(t => kryo.serialize(new PMTreePart(t)).limit().toLong).sum

    // Engine's first-round radius and per-partition cap (RangeLsh.knn).
    val radius = eng.t * eng.rMin(k)
    val partCap = math.ceil(1.2 * eng.betaNk(k).toDouble / eng.params.partitions).toInt + k
    val qProjs = queries.map(eng.family.project)

    var pmMs, pmDist, rtMs, rtDist, rtNodes, rows, capped, verifyMs, verifyDists = 0.0
    var sink = 0.0
    // pass 0 warms the JIT; pass 1 is measured
    for (pass <- 0 to 1) {
      pmMs = 0; pmDist = 0; rtMs = 0; rtDist = 0; rtNodes = 0
      rows = 0; capped = 0; verifyMs = 0; verifyDists = 0
      rec(s"replay.layers.pass$pass") {
        queries.indices.foreach { qi =>
          val qp = qProjs(qi)
          pmTrees.foreach(_.resetDistCount())
          val (pmCounts, pmT) = millis(pmTrees.map(_.range(qp, radius).length))
          pmMs += pmT; pmDist += pmTrees.map(_.distCount).sum
          rTrees.foreach(_.resetCounters())
          val (rCounts, rT) = millis(rTrees.map(_.range(qp, radius).length))
          rtMs += rT; rtDist += rTrees.map(_.distCount).sum; rtNodes += rTrees.map(_.nodeAccesses).sum
          val uncapped = if (eng.usePmTree) pmCounts else rCounts
          capped += uncapped.count(_ > partCap)
          val cands = parts.flatMap(_.rangeSearch(qp, radius, partCap).map(_._1))
          rows += cands.length
          val q = queries(qi)
          val (s, vT) = millis { var acc = 0.0; cands.foreach(c => acc += Vec.dist(q, c.vec)); acc }
          sink += s; verifyMs += vT; verifyDists += cands.length
        }
      }
    }
    val projReps = 2000
    val (_, projMs) = rec("replay.project")(millis {
      var i = 0
      while (i < projReps) { sink += eng.family.project(queries(i % queries.length))(0); i += 1 }
    })
    blackhole = sink
    val nq = queries.length.toDouble
    Map(
      "spark.empty_job_ms" -> emptyMs,
      "rangelsh.index_noop_job_ms" -> noopMs,
      "rangelsh.index_fetch_ms" -> (noopMs - emptyMs),
      "partindex.rows_per_query" -> rows / nq,
      "partindex.capped_parts_per_query" -> capped / nq,
      "pmtree.range_ms_per_query" -> pmMs / nq,
      "pmtree.dist_per_query" -> pmDist / nq,
      "pmtree.build_ms_per_partition" -> builds.map(_._2).sum / builds.length,
      "pmtree.index_bytes_per_point" -> pmBytes.toDouble / n,
      "rtree.range_ms_per_query" -> rtMs / nq,
      "rtree.dist_per_query" -> rtDist / nq,
      "rtree.node_accesses_per_query" -> rtNodes / nq,
      "vec.verify_ms_per_query" -> verifyMs / nq,
      "vec.verify_dists_per_query" -> verifyDists / nq,
      "gaussianlsh.project_us_per_query" -> projMs * 1000.0 / projReps)
  }
}
