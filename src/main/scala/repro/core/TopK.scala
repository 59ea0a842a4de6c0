package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import scala.reflect.ClassTag

/** What one partition reports for one query in a round of Algorithms 1/2:
  * its candidate count |C_p|, how many of those lie within c·r, and its k
  * nearest verified candidates, ascending by distance, equal distances in
  * the order the candidates arrived (`PartIndex.probe`: traversal order).
  * The driver needs no more: the termination tests use the sums of the two
  * counts, and the answer (the k smallest of the union of the C_p) is the
  * k smallest of the union of the per-partition top-k.
  */
final case class TopK(count: Int, withinCr: Int, ids: Array[Long], dists: Array[Double]) {
  def neighbors: Array[Neighbor] = Array.tabulate(ids.length)(i => Neighbor(ids(i), dists(i)))
}

object TopK {

  /** Summary of one partition's verified candidates, given in range-result
    * order; `cr` is c·r, computed on the driver so every executor compares
    * against the same double. Equal distances keep input order. */
  def of(ids: Array[Long], dists: Array[Double], k: Int, cr: Double): TopK = {
    var within = 0
    dists.foreach(d => if (d <= cr) within += 1)
    val pos = smallest(dists, k)
    TopK(ids.length, within, pos.map(ids), pos.map(dists))
  }

  /** Merges one query's partition summaries, given in partition order: the
    * counts add up, and the k smallest of the concatenated top-k lists, ties
    * in concatenation order, are exactly the first k of a stable sort of all
    * partitions' candidates concatenated in partition order. */
  def merge(parts: Array[TopK], k: Int): TopK = {
    val ids = Array.concat(parts.map(_.ids).toSeq: _*)
    val dists = Array.concat(parts.map(_.dists).toSeq: _*)
    val pos = smallest(dists, k)
    TopK(parts.map(_.count).sum, parts.map(_.withinCr).sum, pos.map(ids), pos.map(dists))
  }

  /** One Spark action for a batch, the step every query runs: `batch` is
    * broadcast once; each partition holds exactly one element `part` (as
    * `Points.indexed` and `glom()` give), and its task calls `probe(part)`
    * once, so the function it returns may own per-task buffers, applies that
    * function to every entry in batch order, and ships its rows as one
    * array. Entry i's result is its rows in partition order, the order
    * `merge`'s ties rely on. The broadcast is destroyed even when the job
    * fails or is cancelled.
    *
    * The job goes straight to `SparkContext.runJob` with a function defined
    * here, so Spark's closure cleaner parses only this class's bytecode:
    * `RDD.collect`'s closures are defined in `RDD` and `SparkContext`,
    * whose bytecode (about 390 KB) it would inflate from the Spark jar on
    * every call. */
  def gather[P, B: ClassTag, R: ClassTag](parts: RDD[P], batch: Array[B])(probe: P => B => R): Array[Array[R]] = {
    if (batch.isEmpty) return Array.empty
    val sc = parts.sparkContext
    val bcBatch = sc.broadcast(batch)
    try {
      val rows = new Array[Array[R]](parts.getNumPartitions)
      sc.runJob(parts, (ctx: TaskContext, it: Iterator[P]) => bcBatch.value.map(probe(only(ctx.partitionId(), it))),
        rows.indices, (p: Int, row: Array[R]) => rows(p) = row)
      Array.tabulate(batch.length)(i => rows.map(_(i)))
    } finally bcBatch.destroy()
  }

  /** The one element of partition `p`; any other count is an
    * IllegalArgumentException that names the partition and its count. */
  private def only[P](p: Int, it: Iterator[P]): P = {
    val part = if (it.hasNext) Some(it.next()) else None
    val size = part.size + it.size
    require(size == 1, s"gather: partition $p holds $size elements, expected exactly 1")
    part.get
  }

  /** Algorithm 2's radius loop (§4.4), batched, `levels` radii per job:
    * every job is one `gather` of the still-active queries, each at its
    * own ladder r, c·r, …, c^(levels−1)·r, starting at r0. `project` maps a
    * query to the space the index searches, once per query, and the batch
    * is checked (`projectBatch`) before any job: a query with a non-finite
    * projection would fail every radius test, so no r would ever stop it.
    * `probe(part, q, q', radii, crs)` runs one query's ladder on one
    * partition and returns one `TopK` per radius; each radius's c·r
    * (`crs`) is computed here, on the driver, so every executor compares
    * against the same double. The driver merges the ladder level by level:
    * at the first radius whose candidates reach `budget` or n, or k of
    * which lie within c·r, the query finishes, and that radius counts as
    * its round (job·levels + level + 1); a query no radius stops goes on in
    * the next job at c^levels·r. Each rung is the r of r ← c·r applied that
    * many times, so for any `levels` the answers, rounds and candidate
    * counts are those of one job per radius (`levels` = 1). */
  def radiusRounds[P](parts: RDD[P], queries: Array[Array[Double]], k: Int, n: Long, budget: Long, r0: Double,
                      c: Double, levels: Int)(project: Array[Double] => Array[Double])(
                      probe: (P, Array[Double], Array[Double], Array[Double], Array[Double]) => Array[TopK]): Array[QueryResult] = {
    val projected = projectBatch(queries, k)(project)
    val radii = Array.fill(queries.length)(r0)
    val results = new Array[QueryResult](queries.length)
    var active = queries.indices.toArray
    var jobs = 0
    while (active.nonEmpty) {
      val ladders = active.map(qi => Array.iterate(radii(qi), levels)(_ * c))
      val batch = active.zip(ladders).map { case (qi, rs) => (queries(qi), projected(qi), rs, rs.map(c * _)) }
      val rows = gather(parts, batch)(part => { case (q, qp, rs, crs) => probe(part, q, qp, rs, crs) })
      val next = Array.newBuilder[Int]
      var i = 0
      while (i < active.length) {
        val qi = active(i)
        var level = 0
        while (level < levels && results(qi) == null) {
          val res = merge(rows(i).map(_(level)), k)
          if (res.count >= budget || res.count >= n || res.withinCr >= k)
            results(qi) = QueryResult(res.neighbors, jobs * levels + level + 1, res.count)
          level += 1
        }
        if (results(qi) == null) { radii(qi) = ladders(i)(levels - 1) * c; next += qi }
        i += 1
      }
      active = next.result()
      jobs += 1
    }
    results
  }

  /** The checks every kNN batch passes before any job, then its queries'
    * projections: k is at least 1, every query is finite, and so is every
    * projection, each failure naming k or the query. A query whose
    * projection has a NaN or ∞ entry fails every window and radius test. */
  def projectBatch(queries: Array[Array[Double]], k: Int)(project: Array[Double] => Array[Double]): Array[Array[Double]] = {
    requireK(k)
    Vec.requireFinite(queries)
    val projected = queries.map(project)
    Vec.requireFinite(projected, "projection")
    projected
  }

  /** Rejects an answer size k < 1: a kNN query asks for at least one
    * neighbour. */
  def requireK(k: Int): Unit = require(k >= 1, s"k must be at least 1, got $k")

  /** Positions of the k smallest `dists`, ascending, equal distances in
    * input order: the first k positions of a stable sort under the same
    * total order as `Ordering.Double`. */
  private[core] def smallest(dists: Array[Double], k: Int): Array[Int] = {
    val top = new Smallest(math.max(0, math.min(k, dists.length)))
    var i = 0
    while (i < dists.length) { top.offer(dists(i), i); i += 1 }
    top.positions
  }

  /** The `cap` smallest of the distances offered one at a time, each with a
    * position, ascending under `java.lang.Double.compare` in `dists` and
    * `positions` (0 until size), equal distances in offer order: a sorted
    * buffer that, once full, only a distance below its largest enters. */
  final class Smallest(cap: Int) {
    val dists = new Array[Double](cap)
    val positions = new Array[Int](cap)
    var size = 0

    def offer(d: Double, pos: Int): Unit =
      if (size < cap || (cap > 0 && java.lang.Double.compare(d, dists(size - 1)) < 0)) {
        // insert after every entry <= d; when full, the last entry drops out
        var j = if (size < cap) size else size - 1
        while (j > 0 && java.lang.Double.compare(dists(j - 1), d) > 0) { dists(j) = dists(j - 1); positions(j) = positions(j - 1); j -= 1 }
        dists(j) = d; positions(j) = pos
        if (size < cap) size += 1
      }
  }
}
