package repro.baselines

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.core._
import repro.data.HighDim
import scala.collection.mutable

/** Multi-Probe: query-directed probing sequence and bucket retrieval. */
class MultiProbeSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private val cfg = HighDim.testConfig(n = 800, d = 24, seed = 41)
  private val k = 10
  private lazy val points = HighDim.generate(spark, cfg).persist()
  private lazy val queries = HighDim.queryVecs(cfg, 8)
  private lazy val gt = GroundTruth.knnBatch(spark, points, queries, k)
  private lazy val mp = new MultiProbe(spark, points, partitions = 4, seed = 3,
    probesPerTable = 300)

  test("bucket widths are data-driven and positive") {
    assert(mp.widths.length == mp.numTables)
    assert(mp.widths.forall(_ > 0))
  }

  test("index covers the dataset") {
    assert(mp.n == 800)
    assert(mp.index.count() == 4)
  }

  /** A flat probing sequence as one coordinate row per probe. */
  private def rows(flat: Array[Int], mB: Int): Seq[Seq[Int]] = {
    assert(flat.length % mB == 0)
    flat.grouped(mB).map(_.toSeq).toSeq
  }

  /** The members of `table`'s bucket with fingerprint `fp` and coordinates `b`. */
  private def members(table: BucketTable, fp: Long, b: Array[Int]): Seq[Int] = {
    val i = table.find(fp, b, 0)
    if (i < 0) Seq.empty else table.members.slice(table.offsets(i), table.offsets(i + 1)).toSeq
  }

  /** The bucket of `table` with `b`'s fingerprint and coordinates, by a
    * scan over every bucket, or −1. */
  private def linearFind(table: BucketTable, b: Seq[Int]): Int = {
    val fp = BucketTable.fingerprint(b.toArray, 0, table.mB)
    table.keys.indices.find(i => table.keys(i) == fp &&
      table.coords.slice(i * table.mB, (i + 1) * table.mB).toSeq == b).getOrElse(-1)
  }

  test("probe sequence starts at the home bucket and has unique keys") {
    val q = queries.head
    for (t <- 0 until mp.numTables) {
      val seq = rows(MultiProbe.probeSequence(mp.lshs(t), q, 100), mp.numDims)
      assert(seq.nonEmpty && seq.length <= 100)
      assert(seq.head == mp.lshs(t).buckets(q).toSeq)
      assert(seq.distinct.length == seq.length, "probe keys must be unique")
    }
  }

  test("probe sequence respects maxProbes = 1") {
    val seq = rows(MultiProbe.probeSequence(mp.lshs(0), queries.head, 1), mp.numDims)
    assert(seq.length == 1)
  }

  test("probed buckets differ from the home bucket by single-step perturbations") {
    val lsh = mp.lshs(0)
    val home = lsh.buckets(queries.head)
    val seq = rows(MultiProbe.probeSequence(lsh, queries.head, 50), mp.numDims)
    seq.drop(1).foreach { b =>
      val deltas = b.zip(home).map { case (x, h) => x - h }
      assert(deltas.forall(d => d >= -1 && d <= 1), s"key $b")
      assert(deltas.exists(_ != 0), "non-home probes must perturb something")
    }
  }

  test("probe scores are non-decreasing along the sequence") {
    for (q <- queries; lsh <- mp.lshs) {
      val coords = lsh.coords(q)
      val home = coords.map(x => math.floor(x).toInt)
      // Σ x_i(δ)² over the perturbed dimensions, x_i the distance to the crossed boundary
      val scores = rows(MultiProbe.probeSequence(lsh, q, 1500), mp.numDims).map { b =>
        b.indices.map { i =>
          val frac = (coords(i) - home(i)) * lsh.w
          val x = b(i) - home(i) match { case -1 => frac; case 1 => lsh.w - frac; case _ => 0.0 }
          x * x
        }.sum
      }
      assert(scores.head == 0.0)
      scores.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 1e-9 * math.max(1.0, a), s"$a then $b") }
    }
  }

  test("at probesPerTable = 1500 the probes are those of the List/PriorityQueue generator") {
    for (q <- HighDim.queryVecs(cfg, 28).drop(8); lsh <- mp.lshs) {
      val seq = rows(MultiProbe.probeSequence(lsh, q, 1500), mp.numDims)
      val ref = MultiProbeSpec.referenceProbes(lsh, q, 1500)
      assert(seq.length == ref.length)
      assert(seq.head == ref.head)
      assert(seq.toSet == ref.toSet)
    }
  }

  test("masks shipped to a task decode to probeSequence's coordinates (20 queries x 4 tables x 1500 probes)") {
    val buf = new Array[Int](mp.numDims)
    for (q <- HighDim.queryVecs(cfg, 28).drop(8); lsh <- mp.lshs) {
      val shipped = MultiProbeSpec.roundTrip(MultiProbe.probes(lsh, q, 1500))
      val seq = MultiProbe.probeSequence(lsh, q, 1500)
      assert(shipped.size == 1500 && seq.length == 1500 * mp.numDims)
      assert(shipped.masks(0) == 0L && shipped.masks.distinct.length == shipped.size)
      assert(shipped.home.toSeq == lsh.buckets(q).toSeq)
      // zx lists the boundary entries by ascending distance: entry 2i is
      // δ = −1 on dimension i at distance frac, entry 2i + 1 is δ = +1 at w − frac
      val coords = lsh.coords(q)
      val x = (0 until mp.numDims).flatMap { i =>
        val frac = (coords(i) - math.floor(coords(i))) * lsh.w
        Seq(frac, lsh.w - frac)
      }
      assert(shipped.zx.sorted.toSeq == x.indices)
      shipped.zx.map(x).sliding(2).foreach { case Array(a, b) => assert(a <= b) }
      for (p <- 0 until shipped.size) {
        java.util.Arrays.fill(buf, Int.MinValue)
        shipped.decode(p, buf, 0)
        assert(buf.toSeq == seq.slice(p * mp.numDims, (p + 1) * mp.numDims).toSeq, s"probe $p")
        // each set bit j moves dimension zx(j)/2 one bucket down (even entry) or up (odd)
        val expected = shipped.home.clone()
        for (j <- 0 until 64 if (shipped.masks(p) >>> j & 1L) == 1L) {
          val e = shipped.zx(j)
          expected(e / 2) += (if (e % 2 == 0) -1 else 1)
        }
        assert(buf.toSeq == expected.toSeq, s"probe $p")
      }
    }
  }

  test("a batch of probe sequences generated in parallel equals one generated query by query") {
    val qs = HighDim.queryVecs(cfg, 40)
    val batch = mp.probeBatch(qs)
    val serial = qs.flatMap(q => mp.lshs.map(MultiProbe.probes(_, q, mp.probesPerTable)))
    assert(batch.length == qs.length * mp.numTables)
    batch.zip(serial).foreach { case (a, b) =>
      assert(a.home.toSeq == b.home.toSeq)
      assert(a.zx.toSeq == b.zx.toSeq)
      assert(a.masks.toSeq == b.masks.toSeq)
    }
  }

  test("flat tables return the members of a boxed bucket map for every probed bucket (scalacheck)") {
    val d = 4
    val gen = for {
      n <- Gen.choose(1, 60)
      pts <- Gen.listOfN(n, Gen.listOfN(d, Gen.choose(-3.0, 3.0)))
      qs <- Gen.listOfN(3, Gen.listOfN(d, Gen.choose(-4.0, 4.0)))
      seed <- Gen.choose(0L, 1000L)
      w <- Gen.choose(0.5, 3.0)
    } yield (pts.map(_.toArray).toArray, qs.map(_.toArray), seed, w)
    val prop = Prop.forAll(gen) { case (vecs, qs, seed, w) =>
      val lshs = Array.tabulate(2)(t => new BucketedLsh(new ProjectionFamily(d, 3, seed + t), w, seed + 10 + t))
      val part = MultiProbePart.of(vecs.zipWithIndex.map { case (v, j) => Point(j.toLong, v) }, lshs)
      val refs: Array[Map[List[Int], Seq[Int]]] =
        lshs.map(lsh => vecs.indices.groupBy(j => lsh.buckets(vecs(j)).toList))
      def lookup(t: Int, b: Seq[Int]): Seq[Int] =
        members(part.tables(t), BucketTable.fingerprint(b.toArray, 0, 3), b.toArray)
      val mark = new Array[Int](part.size)
      val found = new Array[Int](part.size)
      qs.zipWithIndex.forall { case (q, qi) =>
        val probes = lshs.map(MultiProbe.probes(_, q, 30))
        val probed = lshs.map(lsh => rows(MultiProbe.probeSequence(lsh, q, 30), 3))
        val tablesAgree = probed.indices.forall { t =>
          (probed(t) ++ refs(t).keys.map(_.toSeq)).forall { b =>
            val table = part.tables(t)
            table.find(BucketTable.fingerprint(b.toArray, 0, 3), b.toArray, 0) == linearFind(table, b) &&
              lookup(t, b) == refs(t).getOrElse(b.toList, Seq.empty)
          }
        }
        val absent = lookup(0, Seq.fill(3)(Int.MinValue)).isEmpty
        val expected = probed.indices.flatMap(t => probed(t).flatMap(b => refs(t).getOrElse(b.toList, Seq.empty))).distinct
        val size = part.candidates(probes, mark, qi + 1, found)
        tablesAgree && absent && found.take(size).toSeq == expected
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status)
  }

  test("two buckets sharing one fingerprint each return only their own members") {
    // slots 0..4 in three buckets, every one with fingerprint 7
    val built = BucketTable.build(Array(1, 2, 3, 4, 1, 2, 5, 6, 3, 4), Array.fill(5)(7L), 2)
    assert(built.keys.toSeq == Seq(7L, 7L, 7L))
    assert(members(built, 7L, Array(1, 2)) == Seq(0, 2))
    assert(members(built, 7L, Array(3, 4)) == Seq(1, 4))
    assert(members(built, 7L, Array(5, 6)) == Seq(3))
    assert(members(built, 7L, Array(9, 9)).isEmpty)
    assert(members(built, 8L, Array(1, 2)).isEmpty)
    val direct = new BucketTable(2, Array(7L, 7L), Array(1, 2, 3, 4), Array(0, 2, 3), Array(0, 5, 3))
    assert(members(direct, 7L, Array(1, 2)) == Seq(0, 5))
    assert(members(direct, 7L, Array(3, 4)) == Seq(3))
    assert(members(direct, 7L, Array(2, 1)).isEmpty)
  }

  test("longer probe sequences reach more candidates") {
    val few = new MultiProbe(spark, points, partitions = 4, seed = 3, probesPerTable = 5)
    val many = mp
    val cFew = few.knn(queries.take(3), k).map(_.candidates).sum
    val cMany = many.knn(queries.take(3), k).map(_.candidates).sum
    assert(cMany >= cFew, s"many=$cMany few=$cFew")
    few.unpersist()
  }

  test("reasonable recall against exact ground truth") {
    val res = mp.knn(queries, k).map(_.neighbors)
    val recall = Metrics.meanOver(res, gt)(Metrics.recall)
    assert(recall >= 0.4, s"recall=$recall")
  }

  test("results sorted, unique, at most k; distances are true distances") {
    val res = mp.knn(queries, k)
    val data = points.collect().map(p => p.id -> p.vec).toMap
    queries.zip(res).foreach { case (q, qr) =>
      assert(qr.neighbors.length <= k)
      assert(qr.neighbors.map(_.id).distinct.length == qr.neighbors.length)
      qr.neighbors.foreach(nb => assert(math.abs(nb.dist - Vec.dist(q, data(nb.id))) < 1e-9))
    }
  }

  test("a query's answer and candidate count do not depend on the batch it runs in") {
    val batch = mp.knn(queries, k)
    queries.zip(batch).foreach { case (q, qr) =>
      val alone = mp.knn(Array(q), k).head
      assert(alone.candidates == qr.candidates)
      assert(alone.neighbors.toSeq == qr.neighbors.toSeq)
    }
  }

  test("empty query batch") {
    assert(mp.knn(Array.empty, k).isEmpty)
  }

  test("knn rejects NaN query coordinates") {
    val e = mp
    val q = queries(0).clone(); q(3) = Double.NaN
    failAfter(20.seconds)(intercept[IllegalArgumentException](e.knn(Array(q), k)))
  }

  test("knn rejects k < 1, naming k") {
    val err = intercept[IllegalArgumentException](mp.knn(queries.take(1), 0))
    assert(err.getMessage.contains("k must be at least 1, got 0"), err)
  }

  test("with more partitions than points, the index builds and answers with data ids at true distances") {
    val tiny = HighDim.generate(spark, HighDim.testConfig(n = 5, d = 24, seed = 41))
    val e = new MultiProbe(spark, tiny, partitions = 8, seed = 3, probesPerTable = 300)
    val sizes = e.index.map(_.size).collect()
    assert(e.n == 5 && sizes.sum == 5 && sizes.count(_ == 0) >= 3, sizes.toSeq)
    val data = tiny.collect().map(p => p.id -> p.vec).toMap
    queries.zip(e.knn(queries, 5)).foreach { case (q, qr) =>
      assert(qr.neighbors.map(_.id).distinct.length == qr.neighbors.length)
      qr.neighbors.foreach(nb => assert(nb.dist == Vec.dist(q, data(nb.id))))
    }
    e.unpersist()
  }

  test("unpersist drops the cached index") {
    val e = new MultiProbe(spark, points, partitions = 4, seed = 3, probesPerTable = 5)
    assert(spark.sparkContext.getPersistentRDDs.contains(e.index.id))
    e.unpersist()
    assert(!spark.sparkContext.getPersistentRDDs.contains(e.index.id))
  }

  test("building over a point with a NaN coordinate fails, naming the point") {
    val bad = Point(123456L, Array.tabulate(cfg.d)(i => if (i == 5) Double.NaN else 0.1 * i))
    assertBuildRejects(points, bad)(new MultiProbe(spark, _, partitions = 4, seed = 3))
  }

  test("building over a point with a short vector fails, naming the point") {
    assertBuildRejects(points, Point(123457L, Array.fill(cfg.d - 1)(0.5)))(new MultiProbe(spark, _, partitions = 4, seed = 3))
  }

  test("building over a point whose projection overflows fails, naming the point") {
    val bad = Point(123458L, Array.fill(cfg.d)(1.7e308))
    // in the width sample, as every point of 101 is
    assertBuildRejects(points, bad)(new MultiProbe(spark, _, partitions = 4, seed = 3))
    // outside it: the partition's own hashing
    val mp = new MultiProbe(spark, points, partitions = 4, seed = 3, probesPerTable = 5)
    val e = intercept[IllegalArgumentException](MultiProbePart.of(points.take(3) :+ bad, mp.lshs))
    assert(e.getMessage.contains("point 123458: projection"), e.getMessage)
    mp.unpersist()
  }

  test("building over empty data fails, saying the data is empty") {
    assertRejectsEmpty(new MultiProbe(spark, _, partitions = 4, seed = 3))
  }

  test("an exact duplicate of the query's nearest point comes back at equal distance, in a stable order") {
    val s = spark
    import s.implicits._
    val data = points.collect()
    val q = data(17).vec.map(_ + 1e-3)
    val nearest = data.minBy(p => Vec.dist(q, p.vec))
    val dup = Point(999999L, nearest.vec.clone())
    val e = new MultiProbe(spark, (data :+ dup).toSeq.toDS(), partitions = 4, seed = 3, probesPerTable = 300)
    val first = e.knn(Array(q), k).head.neighbors.toSeq
    val second = e.knn(Array(q), k).head.neighbors.toSeq
    val byId = first.map(nb => nb.id -> nb.dist).toMap
    assert(byId.contains(nearest.id) && byId.contains(dup.id), first)
    assert(byId(nearest.id) == byId(dup.id))
    assert(first.take(2).map(_.id).toSet == Set(nearest.id, dup.id))
    assert(first == second)
    e.unpersist()
  }
}

object MultiProbeSpec {

  /** `probes` after a Java serialization round trip, as a broadcast ships it. */
  def roundTrip(probes: Probes): Probes = {
    val bytes = new java.io.ByteArrayOutputStream
    val out = new java.io.ObjectOutputStream(bytes)
    out.writeObject(probes)
    out.close()
    new java.io.ObjectInputStream(new java.io.ByteArrayInputStream(bytes.toByteArray)).readObject().asInstanceOf[Probes]
  }

  /** The probing sequence as generated before the primitive heap: a
    * List/PriorityQueue perturbation-set heap (Lv et al. 2007), one
    * coordinate row per probe. */
  def referenceProbes(tableLsh: BucketedLsh, q: Array[Double], maxProbes: Int): Seq[Seq[Int]] = {
    val mB = tableLsh.family.m
    val coords = tableLsh.coords(q)
    val base = coords.map(x => math.floor(x).toInt)
    val wQ = tableLsh.w
    val z: Array[(Double, Int, Int)] = (0 until mB).flatMap { i =>
      val frac = (coords(i) - base(i)) * wQ
      Seq((frac, i, -1), (wQ - frac, i, +1))
    }.sortBy(_._1).toArray
    val out = mutable.ArrayBuffer[Seq[Int]](base.toSeq)
    if (maxProbes <= 1 || z.isEmpty) return out.toSeq
    case class PSet(score: Double, idxs: List[Int])
    val heap = mutable.PriorityQueue.empty[PSet](Ordering.by((p: PSet) => -p.score))
    heap.enqueue(PSet(z(0)._1 * z(0)._1, List(0)))
    def valid(idxs: List[Int]): Boolean = {
      val dims = idxs.map(j => z(j)._2)
      dims.distinct.length == dims.length
    }
    while (out.length < maxProbes && heap.nonEmpty) {
      val p = heap.dequeue()
      if (valid(p.idxs)) {
        val bucket = base.clone()
        p.idxs.foreach { j => bucket(z(j)._2) += z(j)._3 }
        out += bucket.toSeq
      }
      val jmax = p.idxs.head
      if (jmax + 1 < z.length) {
        val zn = z(jmax + 1)._1
        val zo = z(jmax)._1
        heap.enqueue(PSet(p.score - zo * zo + zn * zn, (jmax + 1) :: p.idxs.tail))
        heap.enqueue(PSet(p.score + zn * zn, (jmax + 1) :: p.idxs))
      }
    }
    out.toSeq
  }
}
