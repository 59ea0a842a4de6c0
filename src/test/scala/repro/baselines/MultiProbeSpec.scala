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

  /** The bucket key G(v) of `lsh`: its coordinates of v, floored. */
  private def buckets(lsh: BucketedLsh, v: Array[Double]): Seq[Long] =
    lsh.coords(v).map(x => math.floor(x).toInt.toLong).toSeq

  private def probesOf(lsh: BucketedLsh, q: Array[Double], maxProbes: Int): Probes =
    MultiProbe.probes(lsh.coords(q), lsh.w, maxProbes)

  /** The probes' coordinates, one row per probe in probing order: home
    * plus each digit of the probe's code, less 1. */
  private def decoded(ps: Probes): Seq[Seq[Long]] =
    (0 until ps.size).map(p => ps.home.indices.map(i => ps.home(i).toLong + ps.code(p) / MultiProbe.pow3(i) % 3 - 1))

  /** The probing sequence of `lsh` for `q`, decoded. */
  private def probeSequence(lsh: BucketedLsh, q: Array[Double], maxProbes: Int): Seq[Seq[Long]] =
    decoded(probesOf(lsh, q, maxProbes))

  test("probe sequence starts at the home bucket and has unique keys") {
    val q = queries.head
    for (t <- 0 until mp.numTables) {
      val seq = probeSequence(mp.lshs(t), q, 100)
      assert(seq.nonEmpty && seq.length <= 100)
      assert(seq.head == buckets(mp.lshs(t), q))
      assert(seq.distinct.length == seq.length, "probe keys must be unique")
    }
  }

  test("probe sequence respects maxProbes = 1") {
    val seq = probeSequence(mp.lshs(0), queries.head, 1)
    assert(seq.length == 1)
  }

  test("probed buckets differ from the home bucket by single-step perturbations") {
    val lsh = mp.lshs(0)
    val home = buckets(lsh, queries.head)
    val seq = probeSequence(lsh, queries.head, 50)
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
      val scores = probeSequence(lsh, q, 1500).map { b =>
        b.indices.map { i =>
          val frac = (coords(i) - home(i)) * lsh.w
          val x = b(i) - home(i) match { case -1L => frac; case 1L => lsh.w - frac; case _ => 0.0 }
          x * x
        }.sum
      }
      assert(scores.head == 0.0)
      scores.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 1e-9 * math.max(1.0, a), s"$a then $b") }
    }
  }

  test("at probesPerTable = 1500 the probes are those of the List/PriorityQueue generator") {
    for (q <- HighDim.queryVecs(cfg, 28).drop(8); lsh <- mp.lshs) {
      val seq = probeSequence(lsh, q, 1500)
      val ref = MultiProbeSpec.referenceProbes(lsh, q, 1500).map(_.map(_.toLong))
      assert(seq.length == ref.length)
      assert(seq.head == ref.head)
      assert(seq.toSet == ref.toSet)
    }
  }

  test("probe codes survive shipping and decode to the reference generator's probes") {
    val all = MultiProbe.pow3(mp.numDims)
    for (q <- HighDim.queryVecs(cfg, 28).drop(8); lsh <- mp.lshs) {
      val shipped = MultiProbeSpec.roundTrip(probesOf(lsh, q, 1500))
      assert(shipped.size == 1500 && shipped.home.toSeq.map(_.toLong) == buckets(lsh, q))
      assert(shipped.code(0) == (all - 1) / 2, "home first: every digit 1")
      assert((0 until shipped.size).forall(p => shipped.code(p) < all))
      assert(shipped.codes.distinct.length == shipped.size)
      val ref = MultiProbeSpec.referenceProbes(lsh, q, 1500).map(_.map(_.toLong))
      val rows = decoded(shipped)
      assert(rows.head == ref.head && rows.toSet == ref.toSet)
    }
    // at mB = 10 the codes run past a signed Short: the 1 024 cheapest
    // probes of a query just under every upper boundary move up in every
    // subset of the dimensions, the last in all ten, code 3^10 − 1
    val up = MultiProbeSpec.roundTrip(MultiProbe.probes(Array.fill(10)(0.99), 1.0, 1024))
    assert(decoded(up).toSet == (0 until 1024).map(m => Seq.tabulate(10)(i => (m >> i & 1).toLong)).toSet)
    assert(up.code(1023) == MultiProbe.pow3(10) - 1)
    val e = intercept[IllegalArgumentException](MultiProbe.probes(Array.fill(11)(0.5), 1.0, 5))
    assert(e.getMessage.contains("got 11"), e)
  }

  test("a probe cap below 1 is rejected, naming it") {
    val e = intercept[IllegalArgumentException](MultiProbe.probes(Array(0.5, 0.5), 1.0, 0))
    assert(e.getMessage.contains("maxProbes must be at least 1, got 0"), e)
  }

  test("building with probesPerTable below 1 fails before any job, naming the value") {
    for (bad <- Seq(0, -5)) {
      val e = intercept[IllegalArgumentException](new MultiProbe(spark, points, partitions = 4, seed = 3, probesPerTable = bad))
      assert(e.getMessage.contains(s"probesPerTable must be at least 1, got $bad"), e)
    }
  }

  test("a batch of probe sequences generated in parallel equals one generated query by query") {
    val qs = HighDim.queryVecs(cfg, 40)
    val batch = mp.probeBatch(qs.map(q => mp.lshs.map(_.coords(q))))
    val serial = qs.flatMap(q => mp.lshs.map(probesOf(_, q, mp.probesPerTable)))
    assert(batch.length == qs.length * mp.numTables)
    batch.zip(serial).foreach { case (a, b) =>
      assert(a.home.toSeq == b.home.toSeq)
      assert(a.codes.toSeq == b.codes.toSeq)
    }
  }

  test("a query on a bucket boundary probes its home bucket first, then the bucket across that boundary") {
    // dimension 0 lies exactly on its lower boundary: the step down scores 0, as home does
    val ps = MultiProbe.probes(Array(3.0, 0.25, 0.6), 2.0, 5)
    assert(ps.home.toSeq == Seq(3, 0, 0))
    assert(decoded(ps).take(2) == Seq(Seq(3L, 0L, 0L), Seq(2L, 0L, 0L)))
  }

  test("with maxProbes at 3^mB or more every code comes once, home first, scores non-decreasing") {
    val rnd = new scala.util.Random(7)
    for (mB <- Seq(1, 8, 10); extra <- Seq(0, 1)) {
      val all = MultiProbe.pow3(mB)
      val coords = Array.fill(mB)(20 * rnd.nextDouble() - 10)
      val w = 0.5 + rnd.nextDouble()
      val ps = MultiProbe.probes(coords, w, all + extra)
      assert(ps.size == all)
      assert(ps.code(0) == (all - 1) / 2)
      assert((0 until ps.size).map(ps.code).sorted == (0 until all))
      val scores = (0 until ps.size).map { p =>
        (0 until mB).map { i =>
          val frac = (coords(i) - ps.home(i)) * w
          val x = ps.code(p) / MultiProbe.pow3(i) % 3 match { case 0 => frac; case 2 => w - frac; case _ => 0.0 }
          x * x
        }.sum
      }
      scores.sliding(2).foreach { case Seq(a, b) => assert(b >= a - 1e-9 * math.max(1.0, a), s"mB=$mB: $a then $b") }
    }
  }

  test("probes are the reference generator's probes in its order (scalacheck)") {
    val gen = for {
      mB <- Gen.choose(1, 8)
      coords <- Gen.listOfN(mB, Gen.choose(-100.0, 100.0))
      w <- Gen.choose(0.5, 3.0)
      maxProbes <- Gen.choose(1, MultiProbe.pow3(mB) + 1)
    } yield (coords.toArray, w, maxProbes)
    val prop = Prop.forAll(gen) { case (coords, w, maxProbes) =>
      decoded(MultiProbe.probes(coords, w, maxProbes)) ==
        MultiProbeSpec.referenceProbes(coords, w, maxProbes).map(_.map(_.toLong))
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(100), prop)
    assert(res.passed, res.status)
  }

  test("flat tables return the members of a boxed bucket map for every probed bucket (scalacheck)") {
    val d = 4
    val gen = for {
      n <- Gen.choose(1, 60)
      mB <- Gen.oneOf(1, 3)
      pts <- Gen.listOfN(n, Gen.listOfN(d, Gen.choose(-3.0, 3.0)))
      near <- Gen.listOfN(3, Gen.listOfN(d, Gen.choose(-4.0, 4.0)))
      // far from every bucket: projections of order 1e12, past the Int range
      far <- Gen.listOfN(d, Gen.choose(-1.0, 1.0)).map(_.map(_ * 1e12))
      seed <- Gen.choose(0L, 1000L)
      w <- Gen.choose(0.5, 3.0)
    } yield (pts.map(_.toArray).toArray, mB, near.map(_.toArray) :+ far.toArray, seed, w)
    val prop = Prop.forAll(gen) { case (vecs, mB, qs, seed, w) =>
      val lshs = Array.tabulate(2)(t => new BucketedLsh(new ProjectionFamily(d, mB, seed + t), w, seed + 10 + t))
      val part = MultiProbePart.of(vecs.zipWithIndex.map { case (v, j) => Point(j.toLong, v) }, lshs)
      val refs: Array[Map[Seq[Long], Seq[Int]]] = lshs.map(lsh => vecs.indices.groupBy(j => buckets(lsh, vecs(j))))
      val buf = new MultiProbePart.Buffers(part)
      qs.zipWithIndex.forall { case (q, qi) =>
        val probes = lshs.map(probesOf(_, q, 30))
        val expected = probes.indices.flatMap(t => decoded(probes(t)).flatMap(b => refs(t).getOrElse(b, Seq.empty))).distinct
        val size = part.candidates(probes, buf)
        buf.found.take(size).toSeq == expected && (qi < 3 || size == 0)
      }
    }
    val res = SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(200), prop)
    assert(res.passed, res.status)
  }

  test("equal coordinate vectors form one bucket, members ascending; distinct vectors never share one") {
    // slots 0..6 in five buckets, listed in lexicographic order of their coordinates
    val built = BucketTable.build(Array(3, 4, 1, 2, 1, 2, Int.MaxValue, 0, 3, 4, 1, 3, Int.MinValue, 0), 7, 2)
    assert(built.buckets == 5)
    assert(built.coords.toSeq == Seq(Int.MinValue, 0, 1, 2, 1, 3, 3, 4, Int.MaxValue, 0))
    assert(built.offsets.toSeq == Seq(0, 1, 3, 4, 6, 7))
    assert(built.members.toSeq == Seq(6, 1, 2, 5, 0, 4, 3))
    assert((0 to 4).map(c => built.firstFrom(c.toLong)) == Seq(1, 1, 3, 3, 4))
    assert(built.firstFrom(Int.MinValue - 1L) == 0 && built.firstFrom(Int.MaxValue + 1L) == 5)
  }

  test("a probe next to a bucket at the Int range's edge does not wrap to the other edge") {
    val lsh = new BucketedLsh(new ProjectionFamily(1, 1, 5), 1.0, 6)
    val vecs = Array(Array(1e15), Array(-1e15))
    val part = MultiProbePart.of(vecs.zipWithIndex.map { case (v, j) => Point(j.toLong, v) }, Array(lsh))
    assert(part.tables(0).coords.toSet == Set(Int.MinValue, Int.MaxValue))
    val probes = probesOf(lsh, vecs(0), 3)
    val home = probes.home(0).toLong
    assert(decoded(probes).map(_.head).toSet == Set(home - 1, home, home + 1))
    val buf = new MultiProbePart.Buffers(part)
    val size = part.candidates(Array(probes), buf)
    assert(buf.found.take(size).toSeq == Seq(0))
  }

  test("every partition's candidate lists for 28 queries match the pinned digest") {
    val qs = HighDim.queryVecs(cfg, 28)
    val probes = mp.probeBatch(qs.map(q => mp.lshs.map(_.coords(q)))).grouped(mp.numTables).toArray
    val words = mp.index.collect().iterator.flatMap { part =>
      val buf = new MultiProbePart.Buffers(part)
      probes.iterator.flatMap { ps =>
        val size = part.candidates(ps, buf)
        Array(part.size.toLong, size.toLong) ++ buf.found.take(size).map(_.toLong)
      }
    }
    assert(Digest.of(words) == "3194218ff9c6459fbbb51e84")
  }

  test("the probing sequences of 28 queries at 1 500 probes and of 300 random inputs match the pinned digest") {
    val full = new MultiProbe(spark, points, partitions = 4, seed = 3)
    val batch = full.probeBatch(HighDim.queryVecs(cfg, 28).map(q => full.lshs.map(_.coords(q))))
    full.unpersist()
    val rnd = new scala.util.Random(611)
    // mB 1 to 10 under each of five caps, six vectors each
    val inputs = (0 until 300).map { j =>
      val mB = 1 + j % 10
      val maxProbes = Seq(1, 2, 30, 1500, MultiProbe.pow3(mB) + 1)(j / 10 % 5)
      val w = 0.5 + 3 * rnd.nextDouble()
      MultiProbe.probes(Array.fill(mB)(200 * rnd.nextDouble() - 100), w, maxProbes)
    }
    val words = (batch ++ inputs).iterator.flatMap { ps =>
      Iterator(ps.home.length.toLong, ps.size.toLong) ++ ps.home.iterator.map(_.toLong) ++
        (0 until ps.size).iterator.map(ps.code(_).toLong)
    }
    assert(Digest.of(words) == "9cccbb2d61c0ed4d026cd863")
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
  def referenceProbes(tableLsh: BucketedLsh, q: Array[Double], maxProbes: Int): Seq[Seq[Int]] =
    referenceProbes(tableLsh.coords(q), tableLsh.w, maxProbes)

  /** The same generator for a query at `coords`, in units of the bucket
    * width `wQ`. */
  def referenceProbes(coords: Array[Double], wQ: Double, maxProbes: Int): Seq[Seq[Int]] = {
    val mB = coords.length
    val base = coords.map(x => math.floor(x).toInt)
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
