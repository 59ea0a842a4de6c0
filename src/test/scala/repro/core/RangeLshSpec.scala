package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import org.scalatest.concurrent.{Signaler, ThreadSignaler, TimeLimits}
import org.scalatest.time.SpanSugar._
import repro.SparkSpec
import repro.data.HighDim
import scala.concurrent.{Await, ExecutionContext, Future}

/** End-to-end PM-LSH (and the R-LSH ablation): Algorithm 1/2 semantics,
  * Eq. 10 parameter arithmetic, and the Theorem-1 quality guarantee,
  * verified against exact ground truth.
  */
class RangeLshSpec extends SparkSpec with TimeLimits {

  private implicit val signaler: Signaler = ThreadSignaler

  private val cfg = HighDim.testConfig(n = 800, d = 24, seed = 41)
  private val k = 10
  private lazy val points = HighDim.generate(spark, cfg).persist()
  private lazy val queries = HighDim.queryVecs(cfg, 8)
  private lazy val gt = GroundTruth.knnBatch(spark, points, queries, k)
  private lazy val params = LshParams(partitions = 4, seed = 3)
  private lazy val pmEngine = new RangeLsh(spark, points, params, usePmTree = true)
  private lazy val rEngine = new RangeLsh(spark, points, params, usePmTree = false)

  test("Eq. 10 parameters: t, alpha2, beta are consistent and in range") {
    val e = pmEngine
    assert(e.t > 0)
    assert(math.abs(ChiSquared.cdf(e.t * e.t, params.m) - (1 - params.alpha1)) < 1e-9)
    assert(e.alpha2Eq10 > 0 && e.alpha2Eq10 < params.alpha1)
    assert(e.betaEq10 == 2 * e.alpha2Eq10)
    // default operating point is the paper's stated alpha2/beta (§6.1)
    assert(e.alpha2 == 0.1405 && e.beta == 0.2809)
    assert(e.beta > 0 && e.beta < 1)
  }

  test("paperBeta = false uses the Eq. 10-derived beta") {
    val e = new RangeLsh(spark, points, params.copy(paperBeta = false), usePmTree = true)
    assert(e.beta == e.betaEq10)
    e.unpersist()
  }

  test("index covers the whole dataset across partitions") {
    assert(pmEngine.n == 800)
    assert(pmEngine.indexes.count() == params.partitions)
  }

  test("rMin is positive and below the max pairwise distance") {
    val r = pmEngine.rMin(k)
    assert(r > 0)
    assert(r <= pmEngine.distances.quantile(1.0))
  }

  test("(c,k)-ANN: high recall against exact ground truth") {
    val res = pmEngine.knn(queries, k).map(_.neighbors)
    val recall = Metrics.meanOver(res, gt)(Metrics.recall)
    assert(recall >= 0.8, s"recall=$recall")
  }

  test("(c,k)-ANN: overall ratio close to 1 and never below 1") {
    val res = pmEngine.knn(queries, k).map(_.neighbors)
    val ratio = Metrics.meanOver(res, gt)(Metrics.overallRatio)
    assert(ratio >= 1.0 - 1e-9, s"ratio=$ratio")
    assert(ratio <= 1.15, s"ratio=$ratio")
  }

  test("Theorem 1: top-1 is a c^2-ANN for well over the guaranteed fraction") {
    // the paper's stated beta, and Eq. 10's (paperBeta = false)
    val eq10 = new RangeLsh(spark, points, params.copy(paperBeta = false), usePmTree = true)
    val c2 = params.c * params.c
    Seq(pmEngine, eq10).foreach { e =>
      val res = e.knn(queries, 1)
      val ok = queries.indices.count { i =>
        res(i).neighbors.nonEmpty && res(i).neighbors.head.dist <= c2 * gt(i).head.dist + 1e-12
      }
      // the guarantee is prob >= 1/2 - 1/e ~= 0.13, far from binding (it is
      // near 1 at both points), so this guards only against gross breakage
      assert(ok.toDouble / queries.length >= 0.5, s"beta=${e.beta}: $ok of ${queries.length}")
    }
    eq10.unpersist()
  }

  test("every query returns k results with sorted distances and unique ids") {
    val res = pmEngine.knn(queries, k)
    res.foreach { qr =>
      assert(qr.neighbors.length == k)
      assert(qr.neighbors.map(_.id).distinct.length == k)
      qr.neighbors.sliding(2).foreach {
        case Array(a, b) => assert(a.dist <= b.dist + 1e-12)
        case _           =>
      }
      assert(qr.rounds >= 1 && qr.rounds <= 30)
      assert(qr.candidates >= k)
    }
  }

  test("termination condition: candidates >= beta*n + k or k within c*r") {
    val res = pmEngine.knn(queries, k)
    val budget = pmEngine.betaNk(k)
    res.foreach { qr =>
      // either the budget fired, the dataset was exhausted, or the c*r test
      // fired (then candidates can be smaller)
      assert(qr.candidates >= k && qr.candidates <= pmEngine.n)
      assert(qr.candidates.toLong <= pmEngine.n || qr.candidates >= budget)
    }
  }

  test("reported distances are true original-space distances") {
    val res = pmEngine.knn(queries.take(2), k)
    val data = points.collect().map(p => p.id -> p.vec).toMap
    queries.take(2).zip(res).foreach { case (q, qr) =>
      qr.neighbors.foreach { nb =>
        assert(math.abs(nb.dist - Vec.dist(q, data(nb.id))) < 1e-9)
      }
    }
  }

  test("knn is deterministic") {
    val a = pmEngine.knn(queries.take(3), k).map(_.neighbors.map(_.id).toSeq).toSeq
    val b = pmEngine.knn(queries.take(3), k).map(_.neighbors.map(_.id).toSeq).toSeq
    assert(a == b)
  }

  test("R-LSH (R-tree engine) also reaches high recall") {
    val res = rEngine.knn(queries, k).map(_.neighbors)
    val recall = Metrics.meanOver(res, gt)(Metrics.recall)
    assert(recall >= 0.8, s"recall=$recall")
  }

  test("PM and R engines share the projection, so candidates agree") {
    val a = pmEngine.knn(queries.take(2), k).map(_.neighbors.map(_.id).toSet).toSeq
    val b = rEngine.knn(queries.take(2), k).map(_.neighbors.map(_.id).toSet).toSeq
    // same radii, same projected space => same range contents => same top-k
    assert(a == b)
  }

  test("ballCover with a generous radius returns a point within c*r") {
    val q = queries.head
    val nnDist = gt.head.head.dist
    val r = nnDist * 2
    pmEngine.ballCover(q, r) match {
      case Some(nb) => assert(nb.dist <= params.c * r * (1 + 1e-9) || nb.dist <= nnDist * 3)
      case None     => fail("ballCover returned nothing for a radius twice the NN distance")
    }
  }

  test("ballCover with a tiny radius returns nothing or a valid cover point") {
    val q = queries.head
    val r = 1e-9
    pmEngine.ballCover(q, r) match {
      case Some(nb) => assert(nb.dist <= params.c * r + 1e-9)
      case None     => succeed
    }
  }

  test("empty query batch returns empty") {
    assert(pmEngine.knn(Array.empty, k).isEmpty)
  }

  test("k = 1 works") {
    val res = pmEngine.knn(queries.take(2), 1)
    res.foreach(qr => assert(qr.neighbors.length == 1))
  }

  private def withCoord(q: Array[Double], x: Double): Array[Double] = { val v = q.clone(); v(0) = x; v }

  test("knn rejects NaN and infinite query coordinates instead of growing r forever") {
    val (pm, r) = (pmEngine, rEngine)
    failAfter(20.seconds) {
      Seq(Double.NaN, Double.PositiveInfinity).foreach { x =>
        intercept[IllegalArgumentException](pm.knn(Array(queries(0), withCoord(queries(1), x)), k))
        intercept[IllegalArgumentException](r.knn(Array(withCoord(queries(1), x)), k))
      }
    }
  }

  test("a query far outside the data terminates with min(k, n) neighbours") {
    val (pm, r) = (pmEngine, rEngine)
    val far = Array.fill(cfg.d)(1e6 * points.collect().map(_.vec.map(math.abs).max).max)
    failAfter(20.seconds) {
      Seq(pm, r).foreach { e =>
        assert(e.knn(Array(far, queries(0)), k).map(_.neighbors.length).toSeq == Seq(k, k))
        Seq(1000, Int.MaxValue).foreach(big => assert(e.knn(Array(far), big).head.neighbors.length == e.n, big))
      }
    }
  }

  test("knn rejects k < 1, naming k") {
    Seq(pmEngine, rEngine).foreach { e =>
      Seq(0, -1).foreach { bad =>
        val err = intercept[IllegalArgumentException](e.knn(queries.take(1), bad))
        assert(err.getMessage.contains(s"k must be at least 1, got $bad"), err)
      }
    }
  }

  test("ballCover rejects NaN query coordinates") {
    val pm = pmEngine
    failAfter(20.seconds) {
      intercept[IllegalArgumentException](pm.ballCover(withCoord(queries(0), Double.NaN), 1.0))
    }
  }

  test("knn batches running at once on one engine answer as they do one after the other") {
    // one partition, so the tasks of concurrent jobs read the same index object
    val e = new RangeLsh(spark, points, params.copy(partitions = 1), usePmTree = true)
    val batches = Seq(queries.take(4), queries.drop(4))
    def key(rs: Array[QueryResult]) = rs.toSeq.map(r => (r.neighbors.toSeq, r.rounds, r.candidates))
    val sequential = batches.map(qs => key(e.knn(qs, k)))
    implicit val ec: ExecutionContext = ExecutionContext.global
    val runs = Seq.fill(3)(batches).flatten
    val concurrent = Future.sequence(runs.map(qs => Future(key(e.knn(qs, k)))))
    assert(Await.result(concurrent, scala.concurrent.duration.Duration(120, "s")) == Seq.fill(3)(sequential).flatten)
    e.unpersist()
  }

  test("unpersist drops the cached index") {
    val e = new RangeLsh(spark, points, params, usePmTree = false)
    assert(spark.sparkContext.getPersistentRDDs.contains(e.indexes.id))
    e.unpersist()
    assert(!spark.sparkContext.getPersistentRDDs.contains(e.indexes.id))
  }

  test("with more partitions than points, PM-LSH and R-LSH at k = n return the exact answer") {
    val tiny = HighDim.generate(spark, HighDim.testConfig(n = 5, d = 24, seed = 41))
    val want = GroundTruth.knnBatch(spark, tiny, queries, 5).map(_.toSeq).toSeq
    Seq(true, false).foreach { pm =>
      val e = new RangeLsh(spark, tiny, params.copy(partitions = 8), usePmTree = pm)
      val sizes = e.indexes.map(_.size).collect()
      assert(e.n == 5 && sizes.sum == 5 && sizes.count(_ == 0) >= 3, sizes.toSeq)
      assert(e.knn(queries, 5).map(_.neighbors.toSeq).toSeq == want, s"usePmTree = $pm")
      e.unpersist()
    }
  }

  test("a point duplicated under a new id: a query at that point gets both ids first, at distance 0") {
    val s = spark
    import s.implicits._
    val data = points.collect()
    val twin = data(17).copy(id = 10000L)
    val withTwin = (data :+ twin).toSeq.toDS()
    Seq(true, false).foreach { pm =>
      val e = new RangeLsh(spark, withTwin, params, usePmTree = pm)
      val first2 = e.knn(Array(twin.vec), k).head.neighbors.take(2)
      assert(first2.map(_.id).toSet == Set(data(17).id, twin.id) && first2.forall(_.dist == 0.0), first2.toSeq)
      e.unpersist()
    }
  }

  private def rejectsPoint(bad: Point): Unit =
    assertBuildRejects(points, bad)(new RangeLsh(spark, _, params, usePmTree = true))

  test("building over a point with a NaN coordinate fails, naming the point") {
    rejectsPoint(Point(123456L, Array.tabulate(cfg.d)(i => if (i == 5) Double.NaN else 0.1 * i)))
  }

  test("building over a point with a short vector fails, naming the point") {
    rejectsPoint(Point(123457L, Array.fill(cfg.d - 1)(0.5)))
  }

  test("building over a point whose projection overflows fails, naming the point") {
    rejectsPoint(Point(123458L, Array.fill(cfg.d)(1.7e308)))
  }

  test("building over empty data fails, saying the data is empty") {
    assertRejectsEmpty(new RangeLsh(spark, _, params, usePmTree = true))
  }

  /** For each query, the largest ball any partition of `e` holds over the
    * radii of the rounds `res` ran, with the counts of `PartIndex.search`:
    * the same radii, t·r0·cᶦ, that `knn` searches. */
  private def largestBalls(e: RangeLsh, qs: Array[Array[Double]], res: Array[QueryResult], k: Int): Array[Int] = {
    val (t, c) = (e.t, e.params.c)
    val balls = qs.indices.map { i =>
      (e.family.project(qs(i)), Iterator.iterate(e.rMin(k))(_ * c).take(res(i).rounds).map(t * _).toArray)
    }
    e.indexes.map { part =>
      balls.map { case (qp, radii) => radii.map { r => val h = new Hits; part.search(qp, r, h); h.size }.max }
    }.collect().reduce((a, b) => a.zip(b).map { case (x, y) => math.max(x, y) }).toArray
  }

  test("PM-LSH and R-LSH at P = 8 answer as at P = 1 whenever no partition's ball exceeds its cap (scalacheck)") {
    // Low-dimensional uniform data, so the first-round ball holds about the
    // candidate budget and often fits every cap. At most 300 points, so the
    // distance sample is every pair at both P and r_min is the same.
    val s = spark
    import s.implicits._
    val gen = for {
      n <- Gen.choose(120, 300)
      dim <- Gen.choose(1, 3)
      seed <- Gen.choose(0L, 1000000L)
    } yield (n, dim, seed)
    var compared = 0
    var skipped = 0
    val prop = Prop.forAll(gen) { case (n, dim, seed) =>
      val rng = new scala.util.Random(seed)
      val data = Seq.tabulate(n)(i => Point(i.toLong, Array.fill(dim)(rng.nextDouble()))).toDS()
      val qs = Array.fill(6)(Array.fill(dim)(rng.nextDouble()))
      Seq(true, false).forall { pm =>
        val (one, eight) = (new RangeLsh(spark, data, params.copy(partitions = 1), pm),
          new RangeLsh(spark, data, params.copy(partitions = 8), pm))
        val ok = Seq(1, 10, 40).forall { kk =>
          val (r1, r8) = (one.knn(qs, kk), eight.knn(qs, kk))
          val fit = largestBalls(one, qs, r1, kk).map(_ <= one.partCap(kk))
            .zip(largestBalls(eight, qs, r8, kk).map(_ <= eight.partCap(kk))).map { case (a, b) => a && b }
          qs.indices.forall { i =>
            if (!fit(i)) { skipped += 1; true }
            else {
              compared += 1
              def key(r: QueryResult) = (r.rounds, r.candidates, r.neighbors.toSeq.map(nb => (nb.id, java.lang.Double.doubleToRawLongBits(nb.dist))))
              key(r1(i)) == key(r8(i))
            }
          }
        }
        one.unpersist(); eight.unpersist()
        ok
      }
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(6).withWorkers(1), prop).passed)
    // the property must have compared many answers, and the precondition
    // must have been checked, not assumed
    info(s"compared $compared answers; skipped $skipped whose balls exceeded a cap")
    assert(compared >= 100, s"compared $compared, skipped $skipped")
  }
}
