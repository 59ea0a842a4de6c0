package repro.baselines

import java.lang.{Long => JLong}
import java.util.Arrays
import java.util.stream.IntStream
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import repro.core._

/** One hash table of a Multi-Probe partition in flat arrays. Bucket b has
  * the fingerprint `keys(b)`, the exact mB coordinates
  * `coords(b·mB until b·mB + mB)` and the member slots
  * `members(offsets(b) until offsets(b + 1))`, ascending. Buckets that share
  * a fingerprint are told apart by their coordinates.
  */
final class BucketTable(val mB: Int, val keys: Array[Long], val coords: Array[Int],
                        val offsets: Array[Int], val members: Array[Int]) extends Serializable {

  /** Open addressing over the buckets, at most half full: each entry is a
    * bucket number or −1, and bucket b sits in the first free entry at or
    * after `BucketTable.mix(keys(b))`, wrapping around. */
  private val index: Array[Int] = {
    val slots = new Array[Int](Integer.highestOneBit(math.max(1, 2 * keys.length - 1)) << 1)
    Arrays.fill(slots, -1)
    var b = 0
    while (b < keys.length) {
      var h = BucketTable.mix(keys(b)) & (slots.length - 1)
      while (slots(h) >= 0) h = (h + 1) & (slots.length - 1)
      slots(h) = b
      b += 1
    }
    slots
  }

  /** The bucket with fingerprint `fp` and coordinates
    * `probe(off until off + mB)`, or −1 if no point hashed there. */
  def find(fp: Long, probe: Array[Int], off: Int): Int = {
    var h = BucketTable.mix(fp) & (index.length - 1)
    while (index(h) >= 0) {
      val b = index(h)
      if (keys(b) == fp && BucketTable.compare(coords, b * mB, probe, off, mB) == 0) return b
      h = (h + 1) & (index.length - 1)
    }
    -1
  }
}

object BucketTable {

  /** A 64-bit fingerprint of the mB bucket coordinates `c(off until off + mB)`:
    * a polynomial hash of the bucket vector, as E2LSH keys its buckets
    * (Datar et al. 2004). Equal buckets get equal fingerprints; the table
    * resolves the rare unequal pair that shares one. */
  def fingerprint(c: Array[Int], off: Int, mB: Int): Long = {
    var h = 0L
    var i = 0
    while (i < mB) { h = h * 0x9E3779B97F4A7C15L + c(off + i); i += 1 }
    h
  }

  /** The index entry a fingerprint starts at: its bits mixed by the
    * MurmurHash3 64-bit finalizer, so that the low bits depend on every
    * coordinate. */
  private def mix(fp: Long): Int = {
    var h = fp
    h = (h ^ (h >>> 33)) * 0xFF51AFD7ED558CCDL
    h = (h ^ (h >>> 33)) * 0xC4CEB9FE1A85EC53L
    (h ^ (h >>> 33)).toInt
  }

  /** The table over slots 0 until n, slot j in the bucket with coordinates
    * `coords(j·mB until j·mB + mB)` and fingerprint `fps(j)`. */
  def build(coords: Array[Int], fps: Array[Long], mB: Int): BucketTable = {
    val n = fps.length
    def cmp(a: Int, b: Int): Int = {
      val c = JLong.compare(fps(a), fps(b))
      if (c != 0) c else compare(coords, a * mB, coords, b * mB, mB)
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
    val keys = new Array[Long](buckets)
    val bucketCoords = new Array[Int](buckets * mB)
    var b = 0
    while (b < buckets) {
      val s = order(starts(b))
      keys(b) = fps(s)
      System.arraycopy(coords, s * mB, bucketCoords, b * mB, mB)
      b += 1
    }
    new BucketTable(mB, keys, bucketCoords, Arrays.copyOf(starts, buckets + 1), order)
  }

  /** Lexicographic order of `a(ao until ao + len)` and `b(bo until bo + len)`. */
  private def compare(a: Array[Int], ao: Int, b: Array[Int], bo: Int, len: Int): Int = {
    var i = 0
    while (i < len && a(ao + i) == b(bo + i)) i += 1
    if (i == len) 0 else Integer.compare(a(ao + i), b(bo + i))
  }
}

/** One query's probing sequence in one table, as the tasks receive it: the
  * home bucket's mB coordinates, the 2·mB boundary entries in ascending
  * distance from the query (`zx`; entry 2i is δ = −1 on dimension i, entry
  * 2i + 1 is δ = +1), and each probe's perturbation set as a bitmask over
  * those sorted entries, the home bucket (mask 0) first.
  */
final class Probes(val home: Array[Int], val zx: Array[Int], val masks: Array[Long]) extends Serializable {
  def size: Int = masks.length

  /** Writes probe p's mB coordinates to `out(off until off + mB)`. */
  def decode(p: Int, out: Array[Int], off: Int): Unit = {
    System.arraycopy(home, 0, out, off, home.length)
    var rest = masks(p)
    while (rest != 0) {
      val e = zx(JLong.numberOfTrailingZeros(rest))
      out(off + e / 2) += (if (e % 2 == 0) -1 else 1)
      rest &= rest - 1
    }
  }
}

/** One partition of a Multi-Probe index: its points in input order, and
  * for each of the L hash tables the flat table from compound bucket G(o)
  * to the member points' slots.
  */
final class MultiProbePart(val points: Slots, val tables: Array[BucketTable]) extends Serializable {
  def size: Int = points.size

  /** Writes to `out` the slots in the buckets `probes(t)` of every table t,
    * each once, in first-probed order, and returns how many. A slot s counts
    * as seen once `mark(s) == stamp`, so the caller passes a fresh stamp per
    * query and owns `mark`: the index stays read-only. */
  def candidates(probes: Array[Probes], mark: Array[Int], stamp: Int, out: Array[Int]): Int = {
    var size = 0
    var t = 0
    while (t < tables.length) {
      val table = tables(t)
      val ps = probes(t)
      val bucket = new Array[Int](table.mB)
      var p = 0
      while (p < ps.size) {
        ps.decode(p, bucket, 0)
        val b = table.find(BucketTable.fingerprint(bucket, 0, table.mB), bucket, 0)
        if (b >= 0) {
          var i = table.offsets(b)
          while (i < table.offsets(b + 1)) {
            val s = table.members(i)
            if (mark(s) != stamp) { mark(s) = stamp; out(size) = s; size += 1 }
            i += 1
          }
        }
        p += 1
      }
      t += 1
    }
    size
  }
}

object MultiProbePart {

  /** `points` in slot order, hashed into one table per LSH; a point whose
    * hash coordinates overflow to ∞ or NaN is rejected, named. */
  def of(points: Array[Point], lshs: Array[BucketedLsh]): MultiProbePart = {
    val tables = lshs.map { lsh =>
      val mB = lsh.family.m
      val coords = new Array[Int](points.length * mB)
      val fps = new Array[Long](points.length)
      var j = 0
      while (j < points.length) {
        val x = Slots.requireRow(points(j).id, "projection", lsh.coords(points(j).vec), mB)
        var i = 0
        while (i < mB) { coords(j * mB + i) = math.floor(x(i)).toInt; i += 1 }
        fps(j) = BucketTable.fingerprint(coords, j * mB, mB)
        j += 1
      }
      BucketTable.build(coords, fps, mB)
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
    Vec.requireFinite(queries.map(q => lshs.flatMap(_.coords(q))), "projection")
    // (query, its probes per table), computed on the driver
    TopK.gather(index, queries.zip(probeBatch(queries).grouped(numTables))) { part =>
      // per-task buffers; the mark array is stamped with the entry's batch
      // position + 1
      val mark = new Array[Int](part.size)
      val found = new Array[Int](part.size)
      var stamp = 0
      entry => {
        val (qv, probes) = entry
        stamp += 1
        val size = part.candidates(probes, mark, stamp, found)
        // one probing pass, no radius: the within-c·r count is unused
        part.points.verify(qv, found, size, k, Double.NegativeInfinity)
      }
    }.map { rows =>
      val res = TopK.merge(rows, k)
      QueryResult(res.neighbors, 1, res.count)
    }
  }

  /** Every query's probing sequence in every table, query qi's table t at
    * qi·L + t, generated in parallel on the driver's cores (the common
    * fork-join pool), each sequence into its own entry. */
  def probeBatch(queries: Array[Array[Double]]): Array[Probes] = {
    val out = new Array[Probes](queries.length * numTables)
    IntStream.range(0, out.length).parallel().forEach { (i: Int) =>
      out(i) = MultiProbe.probes(lshs(i % numTables), queries(i / numTables), probesPerTable)
    }
    out
  }

  def unpersist(): Unit = index.unpersist()
}

object MultiProbe {

  /** Query-directed probing sequence for one table (Lv et al. 2007): up to
    * `maxProbes` buckets, the home bucket first, then in ascending score,
    * each as its perturbation set's mask.
    *
    * The 2·mB boundary distances x_i(δ) are sorted ascending into z; a
    * perturbation set is a bitmask over z, scored by the sum of its squared
    * entries. From the start set {0} the min-heap grows sets by shift
    * (replace the largest index j by j + 1) and expand (add j + 1); a set
    * that perturbs one dimension twice is skipped.
    */
  def probes(lsh: BucketedLsh, q: Array[Double], maxProbes: Int): Probes = {
    val mB = lsh.family.m
    require(2 * mB <= 64, s"a perturbation set of $mB dimensions does not fit a 64-bit mask")
    val coords = lsh.coords(q) // in units of w
    val w = lsh.w
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

    // the home bucket's mask is 0L, the array's initial value
    var masks = new Array[Long](64)
    var probes = 1
    val heap = new ProbeHeap
    if (mB > 0) heap.push(z(0) * z(0), 1L)
    while (probes < maxProbes && heap.size > 0) {
      val score = heap.topScore
      val set = heap.topSet
      heap.pop()
      if (perturbsEachDimOnce(set, zx)) {
        if (probes == masks.length) masks = Arrays.copyOf(masks, 2 * probes)
        masks(probes) = set
        probes += 1
      }
      val jmax = 63 - JLong.numberOfLeadingZeros(set)
      if (jmax + 1 < z.length) {
        val zn = z(jmax + 1)
        val zo = z(jmax)
        heap.push(score - zo * zo + zn * zn, set ^ (1L << jmax) | (1L << (jmax + 1))) // shift
        heap.push(score + zn * zn, set | (1L << (jmax + 1))) // expand
      }
    }
    new Probes(home, zx, Arrays.copyOf(masks, probes))
  }

  /** The probing sequence of `probes`, decoded: mB coordinates per probe,
    * in probing order, in one flat array. */
  def probeSequence(lsh: BucketedLsh, q: Array[Double], maxProbes: Int): Array[Int] = {
    val ps = probes(lsh, q, maxProbes)
    val mB = lsh.family.m
    val out = new Array[Int](ps.size * mB)
    var p = 0
    while (p < ps.size) { ps.decode(p, out, p * mB); p += 1 }
    out
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

  /** A binary min-heap of (score, perturbation set) in parallel arrays. */
  private final class ProbeHeap {
    private var scores = new Array[Double](64)
    private var sets = new Array[Long](64)
    var size = 0

    def topScore: Double = scores(0)
    def topSet: Long = sets(0)

    def push(score: Double, set: Long): Unit = {
      if (size == scores.length) {
        scores = Arrays.copyOf(scores, 2 * size)
        sets = Arrays.copyOf(sets, 2 * size)
      }
      var i = size
      size += 1
      while (i > 0 && scores((i - 1) >>> 1) > score) {
        val parent = (i - 1) >>> 1
        scores(i) = scores(parent); sets(i) = sets(parent)
        i = parent
      }
      scores(i) = score; sets(i) = set
    }

    def pop(): Unit = {
      size -= 1
      val score = scores(size)
      val set = sets(size)
      var i = 0
      var done = false
      while (!done) {
        var child = 2 * i + 1
        if (child + 1 < size && scores(child + 1) < scores(child)) child += 1
        if (child < size && scores(child) < score) {
          scores(i) = scores(child); sets(i) = sets(child)
          i = child
        } else done = true
      }
      scores(i) = score; sets(i) = set
    }
  }
}
