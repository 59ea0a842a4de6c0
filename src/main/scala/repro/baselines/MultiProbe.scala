package repro.baselines

import java.lang.{Long => JLong}
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
  * sequence (min-heap over perturbation sets with shift/expand, scored by
  * Σ x_i(δ)², x_i(δ) the distance from the query to the bucket boundary)
  * yields the probes-per-table most likely to hold near neighbors; probed
  * buckets' members are verified in the original space.
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
    TopK.requireK(k)
    Vec.requireFinite(queries)
    // each query's coordinates in every table, in units of w
    val coords = queries.map(q => lshs.map(_.coords(q)))
    Vec.requireFinite(coords.map(_.flatten), "projection")
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
    * up to `maxProbes` buckets, the home bucket first, then in ascending
    * score.
    *
    * The 2·mB boundary distances x_i(δ) are sorted ascending into z; a
    * perturbation set is a bitmask over z, scored by the sum of its squared
    * entries. From the start set {0} the min-heap grows sets by shift
    * (replace the largest index j by j + 1) and expand (add j + 1); a set
    * that perturbs one dimension twice is skipped. Beside each set the heap
    * keeps its probe's code: entry j moves the code by `step(j)`, so shift
    * and expand update it with the steps they swap in and out.
    */
  def probes(coords: Array[Double], w: Double, maxProbes: Int): Probes = {
    val mB = coords.length
    require(mB >= 1 && mB <= 10, s"a 16-bit probe code holds 1 to 10 dimensions, got $mB")
    val home = new Array[Int](mB)
    // boundary distances in projected units: entry 2i is δ = −1 on
    // dimension i, entry 2i + 1 is δ = +1
    val x = new Array[Double](2 * mB)
    var i = 0
    while (i < mB) {
      home(i) = math.floor(coords(i)).toInt
      val frac = (coords(i) - home(i)) * w
      x(2 * i) = frac
      x(2 * i + 1) = w - frac
      i += 1
    }
    // z(j) = x(zx(j)), ascending, equal distances in entry order
    val zx = StableOrder.of(x)
    val z = zx.map(x)
    // what perturbing z(j) adds to a code: ∓3^i for entry 2i or 2i + 1
    val step = zx.map(e => (if (e % 2 == 0) -1 else 1) * pow3(e / 2))

    var codes = new Array[Short](64)
    codes(0) = ((pow3(mB) - 1) / 2).toShort // every δ_i = 0
    var probes = 1
    val heap = new ProbeHeap
    heap.push(z(0) * z(0), 1L, codes(0) + step(0))
    while (probes < maxProbes && heap.size > 0) {
      val score = heap.topScore
      val set = heap.topSet
      val code = heap.topCode
      heap.pop()
      if (perturbsEachDimOnce(set, zx)) {
        if (probes == codes.length) codes = Arrays.copyOf(codes, 2 * probes)
        codes(probes) = code.toShort
        probes += 1
      }
      val jmax = 63 - JLong.numberOfLeadingZeros(set)
      if (jmax + 1 < z.length) {
        val zn = z(jmax + 1)
        val zo = z(jmax)
        heap.push(score - zo * zo + zn * zn, set ^ (1L << jmax) | (1L << (jmax + 1)),
          code - step(jmax) + step(jmax + 1)) // shift
        heap.push(score + zn * zn, set | (1L << (jmax + 1)), code + step(jmax + 1)) // expand
      }
    }
    new Probes(home, Arrays.copyOf(codes, probes))
  }

  /** Whether the set's entries, z(j) = x(zx(j)), touch distinct dimensions. */
  private def perturbsEachDimOnce(set: Long, zx: Array[Int]): Boolean = {
    var dims = 0L
    var rest = set
    while (rest != 0) {
      val dim = 1L << (zx(JLong.numberOfTrailingZeros(rest)) / 2)
      if ((dims & dim) != 0) return false
      dims |= dim
      rest &= rest - 1
    }
    true
  }

  /** A binary min-heap of (score, perturbation set, code) in parallel arrays. */
  private final class ProbeHeap {
    private var scores = new Array[Double](64)
    private var sets = new Array[Long](64)
    private var codes = new Array[Int](64)
    var size = 0

    def topScore: Double = scores(0)
    def topSet: Long = sets(0)
    def topCode: Int = codes(0)

    def push(score: Double, set: Long, code: Int): Unit = {
      if (size == scores.length) {
        scores = Arrays.copyOf(scores, 2 * size)
        sets = Arrays.copyOf(sets, 2 * size)
        codes = Arrays.copyOf(codes, 2 * size)
      }
      var i = size
      size += 1
      while (i > 0 && scores((i - 1) >>> 1) > score) {
        val parent = (i - 1) >>> 1
        scores(i) = scores(parent); sets(i) = sets(parent); codes(i) = codes(parent)
        i = parent
      }
      scores(i) = score; sets(i) = set; codes(i) = code
    }

    def pop(): Unit = {
      size -= 1
      val score = scores(size)
      val set = sets(size)
      val code = codes(size)
      var i = 0
      var done = false
      while (!done) {
        var child = 2 * i + 1
        if (child + 1 < size && scores(child + 1) < scores(child)) child += 1
        if (child < size && scores(child) < score) {
          scores(i) = scores(child); sets(i) = sets(child); codes(i) = codes(child)
          i = child
        } else done = true
      }
      scores(i) = score; sets(i) = set; codes(i) = code
    }
  }
}
