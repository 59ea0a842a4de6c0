package repro.core

import org.apache.spark.TaskContext
import org.apache.spark.rdd.RDD
import scala.reflect.ClassTag

/** What one partition reports for one query in a round of Algorithms 1/2:
  * its candidate count |C_p|, how many of those lie within c·r, and its k
  * nearest verified candidates, ascending by distance with ties in
  * range-result order (`PartIndex.probe`: a capped partition's by
  * projected distance first). The driver needs no more: the termination tests use
  * the sums of the two counts, and the answer (the k smallest of the union
  * of the C_p) is the k smallest of the union of the per-partition top-k.
  */
final case class TopK(count: Int, withinCr: Int, ids: Array[Long], dists: Array[Double]) {
  def neighbors: Array[Neighbor] = Array.tabulate(ids.length)(i => Neighbor(ids(i), dists(i)))
}

object TopK {

  /** Summary of one partition's verified candidates, given in range-result
    * order; `cr` is c·r, computed on the driver so every executor compares
    * against the same double. Equal distances keep input order, or, when
    * `ties` is given (one value per candidate), go by ascending `ties`
    * first. */
  def of(ids: Array[Long], dists: Array[Double], k: Int, cr: Double, ties: Array[Double] = null): TopK = {
    var within = 0
    dists.foreach(d => if (d <= cr) within += 1)
    val pos = smallest(dists, k, ties)
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
    * own ladder r, c·r, …, c^(levels−1)·r, starting at r0. `prepare` turns
    * a query into what the probes read (e.g. with its projection), once per
    * query, and `probe(part, query, radii, crs)` runs one query's ladder on
    * one partition and returns one `TopK` per radius; each radius's c·r
    * (`crs`) is computed here, on the driver, so every executor compares
    * against the same double. The driver merges the ladder level by level:
    * at the first radius whose candidates reach `budget` or n, or k of
    * which lie within c·r, the query finishes, and that radius counts as
    * its round (job·levels + level + 1); a query no radius stops goes on in
    * the next job at c^levels·r. Each rung is the r of r ← c·r applied that
    * many times, so for any `levels` the answers, rounds and candidate
    * counts are those of one job per radius (`levels` = 1). */
  def radiusRounds[P, Q: ClassTag](parts: RDD[P], queries: Array[Array[Double]], k: Int, n: Long,
                                   budget: Long, r0: Double, c: Double, levels: Int)(prepare: Array[Double] => Q)(
                                   probe: (P, Q, Array[Double], Array[Double]) => Array[TopK]): Array[QueryResult] = {
    requireK(k)
    Vec.requireFinite(queries)
    val prepared = queries.map(prepare)
    val radii = Array.fill(queries.length)(r0)
    val results = new Array[QueryResult](queries.length)
    var active = queries.indices.toArray
    var jobs = 0
    while (active.nonEmpty) {
      val ladders = active.map(qi => Array.iterate(radii(qi), levels)(_ * c))
      val rows = gather(parts, active.zip(ladders).map { case (qi, rs) => (prepared(qi), rs, rs.map(c * _)) }) {
        part => { case (q, rs, crs) => probe(part, q, rs, crs) }
      }
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

  /** Rejects an answer size k < 1: a kNN query asks for at least one
    * neighbour. */
  def requireK(k: Int): Unit = require(k >= 1, s"k must be at least 1, got $k")

  /** Positions of the k smallest `dists`, ascending, equal distances by
    * ascending `ties` when given, then in input order: the first k
    * positions of a stable sort under the same total order as
    * `Ordering.Double`, kept in a sorted buffer of at most k. */
  private[core] def smallest(dists: Array[Double], k: Int, ties: Array[Double] = null): Array[Int] = {
    // > 0 when position a goes after position b
    def cmp(a: Int, b: Int): Int = {
      val c = java.lang.Double.compare(dists(a), dists(b))
      if (c != 0 || ties == null) c else java.lang.Double.compare(ties(a), ties(b))
    }
    val buf = new Array[Int](math.max(0, math.min(k, dists.length)))
    var size = 0
    var i = 0
    while (i < dists.length && buf.length > 0) {
      if (size < buf.length || cmp(i, buf(size - 1)) < 0) {
        // insert after every entry <= i; when full, the last entry drops out
        var j = if (size < buf.length) size else size - 1
        while (j > 0 && cmp(buf(j - 1), i) > 0) { buf(j) = buf(j - 1); j -= 1 }
        buf(j) = i
        if (size < buf.length) size += 1
      }
      i += 1
    }
    buf
  }
}
