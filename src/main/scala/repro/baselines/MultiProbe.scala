package repro.baselines

import java.util.Arrays
import java.util.stream.IntStream
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._

/** One hash table of a Multi-Probe partition in flat arrays, its buckets in
  * lexicographic order of their coordinates, no two with the same ones.
  * Bucket b has the mB coordinates `coords(b·mB until b·mB + mB)` and the
  * member slots `members(offsets(b) until offsets(b + 1))`, ascending.
  */
final class BucketTable(val mB: Int, val coords: Array[Int], val offsets: Array[Int], val members: Array[Int])
    extends Serializable {
  def buckets: Int = offsets.length - 1

  /** The first bucket whose leading coordinate is at least c, or `buckets`. */
  def firstFrom(c: Long): Int = {
    var lo = 0
    var hi = buckets
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      if (coords(mid * mB) < c) lo = mid + 1 else hi = mid
    }
    lo
  }
}

object BucketTable {

  /** The table over slots 0 until n, slot j in the bucket with coordinates
    * `coords(j·mB until j·mB + mB)`. */
  def build(coords: Array[Int], n: Int, mB: Int): BucketTable = {
    def cmp(a: Int, b: Int): Int = {
      var i = 0
      while (i < mB && coords(a * mB + i) == coords(b * mB + i)) i += 1
      if (i == mB) 0 else Integer.compare(coords(a * mB + i), coords(b * mB + i))
    }
    // stable, so each bucket's members stay in ascending slot order
    val order = StableOrder(n, cmp(_, _))
    val starts = new Array[Int](n + 1)
    var buckets = 0
    var i = 0
    while (i < n) {
      if (i == 0 || cmp(order(i - 1), order(i)) != 0) { starts(buckets) = i; buckets += 1 }
      i += 1
    }
    starts(buckets) = n
    val bucketCoords = new Array[Int](buckets * mB)
    var b = 0
    while (b < buckets) {
      System.arraycopy(coords, order(starts(b)) * mB, bucketCoords, b * mB, mB)
      b += 1
    }
    new BucketTable(mB, bucketCoords, Arrays.copyOf(starts, buckets + 1), order)
  }
}

/** One query's probing sequence in one table, as the tasks receive it: the
  * home bucket's mB coordinates and, in probing order, each probe's offset
  * δ ∈ {−1, 0, 1}^mB from home as the base-3 code Σ_i (δ_i + 1)·3^i, the
  * home bucket first. A code takes 16 bits; `code` reads it unsigned.
  */
final class Probes(val home: Array[Int], val codes: Array[Short]) extends Serializable {
  def size: Int = codes.length
  def code(p: Int): Int = codes(p) & 0xFFFF
}

/** One partition of a Multi-Probe index: its points in input order, and
  * for each of the L hash tables the flat table from compound bucket G(o)
  * to the member points' slots.
  */
final class MultiProbePart(val points: Slots, val tables: Array[BucketTable]) extends Serializable {
  def size: Int = points.size

  /** Writes to `buf.found` the slots in the buckets `probes(t)` of every
    * table t, each once, in first-probed order, and returns how many.
    *
    * Each table's buckets are matched against the probes, not the probes
    * looked up: the probes' ranks go into `buf.rank` by code, and every
    * bucket whose leading coordinate lies within one step of home (a range
    * of the sorted buckets) computes its offset from home, skips if it is
    * more than one step away in some dimension, and else reads its rank.
    * The hits are emitted in rank order. Distinct buckets have distinct
    * offsets, so each probe matches at most one bucket, and the slots come
    * out as if each probe were looked up in turn. */
  def candidates(probes: Array[Probes], buf: MultiProbePart.Buffers): Int = {
    buf.stamp += 1
    val rank = buf.rank
    var size = 0
    var t = 0
    while (t < tables.length) {
      val table = tables(t)
      val mB = table.mB
      val ps = probes(t)
      val home = ps.home
      var p = 0
      while (p < ps.size) { rank(ps.code(p)) = p + 1; p += 1 }
      var hits = 0
      var b = table.firstFrom(home(0) - 1L)
      val end = table.firstFrom(home(0) + 2L)
      while (b < end) {
        var code = 0
        var unit = 1
        var i = 0
        while (i < mB && code >= 0) {
          // in Long, so no bucket at the Int range's edge wraps to the other
          val delta = table.coords(b * mB + i).toLong - home(i)
          code = if (delta < -1 || delta > 1) -1 else code + (delta.toInt + 1) * unit
          unit *= 3
          i += 1
        }
        if (code >= 0 && rank(code) > 0) { buf.hits(hits) = rank(code).toLong << 32 | b; hits += 1 }
        b += 1
      }
      p = 0
      while (p < ps.size) { rank(ps.code(p)) = 0; p += 1 }
      Arrays.sort(buf.hits, 0, hits)
      var h = 0
      while (h < hits) {
        val hb = buf.hits(h).toInt
        var i = table.offsets(hb)
        while (i < table.offsets(hb + 1)) {
          val s = table.members(i)
          if (buf.mark(s) != buf.stamp) { buf.mark(s) = buf.stamp; buf.found(size) = s; size += 1 }
          i += 1
        }
        h += 1
      }
      t += 1
    }
    size
  }
}

object MultiProbePart {

  /** One task's buffers for `candidates` on `part`, reused query after
    * query, so the index stays read-only: the candidates found (`found`);
    * slot s is seen in the current query once `mark(s) == stamp`; `rank`
    * holds each probe code's rank + 1 in the table being matched, 0 for
    * every code between tables; `hits` one table's matches as
    * (rank << 32 | bucket). */
  final class Buffers(part: MultiProbePart) {
    val found = new Array[Int](part.size)
    private[baselines] val mark = new Array[Int](part.size)
    private[baselines] var stamp = 0
    private[baselines] val rank = new Array[Int](MultiProbe.pow3(part.tables.foldLeft(0)(_ max _.mB)))
    private[baselines] val hits = new Array[Long](part.size)
  }

  /** `points` in slot order, hashed into one table per LSH; a point whose
    * hash coordinates overflow to ∞ or NaN is rejected, named. */
  def of(points: Array[Point], lshs: Array[BucketedLsh]): MultiProbePart = {
    val tables = lshs.map { lsh =>
      val mB = lsh.family.m
      val coords = new Array[Int](points.length * mB)
      var j = 0
      while (j < points.length) {
        val x = Slots.requireRow(points(j).id, "projection", lsh.coords(points(j).vec), mB)
        var i = 0
        while (i < mB) { coords(j * mB + i) = math.floor(x(i)).toInt; i += 1 }
        j += 1
      }
      BucketTable.build(coords, points.length, mB)
    }
    new MultiProbePart(Slots.of(points), tables)
  }
}

/** Multi-Probe LSH (Lv et al., §3.1) on Spark.
  *
  * L hash tables, each a compound of mB bucketed hashes h_i(o) =
  * ⌊(a_i·o + b_i)/w⌋. For a query, the classic query-directed probing
  * sequence (the perturbations with the lowest score Σ x_i(δ)², x_i(δ) the
  * distance from the query to the bucket boundary) yields the
  * probes-per-table most likely to hold near neighbors; probed buckets'
  * members are verified in the original space.
  *
  * w is data-driven (a multiple of the per-dimension interquartile range of
  * projected coordinates) since bucket widths must match the data scale.
  */
final class MultiProbe(
    spark: SparkSession,
    points: Dataset[Point],
    val probesPerTable: Int = 1500,
    val partitions: Int = 8,
    val seed: Long = 42) {
  require(probesPerTable >= 1, s"probesPerTable must be at least 1, got $probesPerTable")

  val numTables: Int = 4
  val numDims: Int = 8
  val wFactor: Double = 1.0
  val coordSample: Int = 400

  private val sc = spark.sparkContext

  val d: Int = Points.dimension(points)

  private val families: Array[ProjectionFamily] =
    Array.tabulate(numTables)(t => new ProjectionFamily(d, numDims, seed + 1000L * (t + 1)))

  /** Bucket width per table: wFactor × mean per-dimension IQR of projected
    * coordinates, from a driver-side sample, checked like the index's
    * points before it is hashed. Where a dimension's quartiles coincide, as
    * when half the sample is one repeated point, its full range stands in:
    * a width of 0 would give every other point a bucket of its own that no
    * probe reaches.
    */
  val widths: Array[Double] = {
    val sample = points.limit(coordSample).collect()
    sample.foreach(p => Slots.requireRow(p.id, "vector", p.vec, d))
    families.map { fam =>
      val projs = sample.map(p => Slots.requireRow(p.id, "projection", fam.project(p.vec), numDims))
      val iqrs = Array.tabulate(numDims) { i =>
        val col = projs.map(_(i)).sorted
        val iqr = col((col.length * 3) / 4) - col(col.length / 4)
        if (iqr > 0) iqr else col.last - col.head
      }
      math.max(iqrs.sum / numDims * wFactor, 1e-9)
    }
  }

  val lshs: Array[BucketedLsh] =
    Array.tabulate(numTables)(t => new BucketedLsh(families(t), widths(t), seed + 77L * (t + 1)))
  private val bcLshs = sc.broadcast(lshs)

  /** One index per partition, kept live: the query's tasks probe the cached
    * objects in place. Every vector is checked (d finite coordinates)
    * before it is hashed. */
  val index: RDD[MultiProbePart] = {
    // locals only inside the lambda: field access would capture `this`
    val bl = bcLshs
    Points.indexed(points.repartition(partitions).rdd, d)(MultiProbePart.of(_, bl.value))
  }

  val n: Long = index.map(_.size.toLong).reduce(_ + _)

  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    // each query's coordinates in every table, in units of w
    val coords = TopK.projectBatch(queries, k)(q => lshs.flatMap(_.coords(q))).map(_.grouped(numDims).toArray)
    // (query, its probes per table), computed on the driver
    TopK.gather(index, queries.zip(probeBatch(coords).grouped(numTables))) { part =>
      val buf = new MultiProbePart.Buffers(part)
      entry => {
        val (qv, probes) = entry
        val size = part.candidates(probes, buf)
        // one probing pass, no radius: the within-c·r count is unused
        part.points.verify(qv, buf.found, size, k, Double.NegativeInfinity)
      }
    }.map { rows =>
      val res = TopK.merge(rows, k)
      QueryResult(res.neighbors, 1, res.count)
    }
  }

  /** Every query's probing sequence in every table, from its coordinates
    * `coords(qi)(t)` in units of w; query qi's table t lands at qi·L + t.
    * Generated in parallel on the driver's cores (the common fork-join
    * pool), each sequence into its own entry. */
  def probeBatch(coords: Array[Array[Array[Double]]]): Array[Probes] = {
    val out = new Array[Probes](coords.length * numTables)
    IntStream.range(0, out.length).parallel().forEach { (i: Int) =>
      out(i) = MultiProbe.probes(coords(i / numTables)(i % numTables), lshs(i % numTables).w, probesPerTable)
    }
    out
  }

  def unpersist(): Unit = index.unpersist()
}

object MultiProbe {

  /** 3^m. */
  def pow3(m: Int): Int = {
    var r = 1
    var i = 0
    while (i < m) { r *= 3; i += 1 }
    r
  }

  /** Query-directed probing sequence for one table (Lv et al. 2007) of a
    * query at `coords`, its mB coordinates in units of the bucket width w:
    * the `maxProbes` cheapest perturbations δ ∈ {−1, 0, 1}^mB, or all 3^mB,
    * the home bucket first, then in ascending score Σ x_i(δ_i)², x_i(δ_i)
    * the distance from the query to the boundary crossed in dimension i.
    *
    * mB ≤ 10, so every code's score fits one array: one pass over the
    * dimensions gives code c + d·3^i (c < 3^i) the score of c plus frac_i²
    * for d = 0, nothing for d = 1 and (w − frac_i)² for d = 2. Home scores
    * below every other, so it stays first when a boundary distance is 0.
    * The cheapest are kept as `Hits.keepWithin` keeps them and ordered by
    * score, equal scores in code order.
    */
  def probes(coords: Array[Double], w: Double, maxProbes: Int): Probes = {
    val mB = coords.length
    require(mB >= 1 && mB <= 10, s"a 16-bit probe code holds 1 to 10 dimensions, got $mB")
    require(maxProbes >= 1, s"maxProbes must be at least 1, got $maxProbes")
    val home = new Array[Int](mB)
    val all = pow3(mB)
    val scores = new Array[Double](all)
    var unit = 1
    var i = 0
    while (i < mB) {
      home(i) = math.floor(coords(i)).toInt
      val frac = (coords(i) - home(i)) * w
      val down = frac * frac
      val up = (w - frac) * (w - frac)
      var c = 0
      while (c < unit) {
        val s = scores(c)
        scores(c) = s + down
        scores(c + unit) = s
        scores(c + 2 * unit) = s + up
        c += 1
      }
      unit *= 3
      i += 1
    }
    scores((all - 1) / 2) = -1.0 // every δ_i = 0
    val hits = new Hits
    hits.slots = Array.range(0, all)
    hits.dists = scores
    hits.size = all
    hits.keepWithin(maxProbes)
    val kept = Arrays.copyOf(hits.dists, hits.size)
    val codes = StableOrder.of(kept).map(p => hits.slots(p).toShort)
    new Probes(home, codes)
  }
}
