package repro.core

import org.scalacheck.{Gen, Prop, Test => SCTest}
import repro.SparkSpec

/** The per-partition top-k plus counts that the query rounds ship: summing
  * the counts and merging the partitions' top-k lists must give the same
  * answer as shipping every candidate and sorting them all on the driver.
  * And the one gather every batch query runs: one row per partition for
  * each batch entry, in partition order, from partitions of one element.
  */
class TopKSpec extends SparkSpec {

  // few distinct distances, so ties are common; empty partitions included
  private val partGen: Gen[List[(Long, Double)]] =
    Gen.choose(0, 25).flatMap(Gen.listOfN(_, Gen.zip(Gen.choose(0L, 1000L), Gen.choose(0, 8).map(_ * 0.25))))
  private val caseGen = Gen.zip(Gen.choose(0, 6).flatMap(Gen.listOfN(_, partGen)),
    Gen.choose(0, 30), Gen.choose(0, 8).map(_ * 0.25))

  test("merged per-partition top-k and summed counts equal sorting every candidate (scalacheck)") {
    val prop = Prop.forAll(caseGen) { case (parts, k, cr) =>
      val all = parts.flatten
      val expected = all.sortBy(_._2).take(k)
      val merged = TopK.merge(parts.map(p => TopK.of(p.map(_._1).toArray, p.map(_._2).toArray, k, cr)).toArray, k)
      merged.count == all.length &&
        merged.withinCr == all.count(_._2 <= cr) &&
        merged.ids.toSeq == expected.map(_._1) &&
        merged.dists.toSeq == expected.map(_._2)
    }
    assert(SCTest.check(SCTest.Parameters.default.withMinSuccessfulTests(500), prop).passed)
  }

  test("a partition keeps its k nearest, equal distances in input order") {
    val top = TopK.of(Array(10L, 11L, 12L, 13L, 14L), Array(2.0, 1.0, 2.0, 1.0, 0.5), 3, 1.0)
    assert(top.ids.toSeq == Seq(14L, 11L, 13L))
    assert(top.count == 5 && top.withinCr == 3)
    assert(top.neighbors.toSeq == Seq(Neighbor(14L, 0.5), Neighbor(11L, 1.0), Neighbor(13L, 1.0)))
  }

  test("a radius loop with several radii per job answers as one job per radius") {
    // 4 scripted partitions of (query, id, projected, true distance); query
    // q's points lie within r0·1.5^q, so it stops after about q rounds, at
    // the first radius with `budget` points in range or k of them with a
    // true distance within c·r
    val (k, budget, r0, c) = (5, 30L, 1.0, 1.5)
    val rng = new scala.util.Random(5)
    val nq = 12
    val script = Array.tabulate(4)(p => Array.tabulate(nq * 10) { i =>
      val pd = r0 * math.pow(c, i % nq) * (1 + rng.nextInt(4)) / 4
      (i % nq, (p * 1000 + i).toLong, pd, pd * (if (rng.nextInt(3) == 0) 1 else 4))
    })
    val parts = spark.sparkContext.parallelize(script.toSeq, 4)
    val n = script.map(_.length.toLong).sum
    def run(levels: Int) = TopK.radiusRounds(parts, Array.tabulate(nq)(q => Array(q.toDouble)), k, n, budget, r0, c,
      levels)(identity) { (part, q, _, rs, crs) =>
      Array.tabulate(rs.length) { j =>
        val in = part.filter(e => e._1 == q(0).toInt && e._3 <= rs(j))
        TopK.of(in.map(_._2), in.map(_._4), k, crs(j))
      }
    }
    def key(rs: Array[QueryResult]) = rs.toSeq.map(r => (r.rounds, r.candidates, r.neighbors.toSeq))
    val one = run(1)
    val rounds = one.map(_.rounds).toSet
    // a query stops at level 0 of the first job, and one at a later level of
    // a later job when three radii share a job
    assert(rounds.contains(1) && rounds.exists(r => r > 3 && (r - 1) % 3 != 0), rounds)
    assert(one.exists(_.candidates >= budget) && one.exists(_.candidates < budget))
    Seq(2, 3, 4).foreach(levels => assert(key(run(levels)) == key(one), s"$levels radii per job"))
  }

  test("non-finite query coordinates are rejected") {
    Vec.requireFinite(Array(Array(0.0, -1.5)))
    intercept[IllegalArgumentException](Vec.requireFinite(Array(Array(0.0), Array(Double.NaN))))
    intercept[IllegalArgumentException](Vec.requireFinite(Array(Array(Double.NegativeInfinity))))
  }

  /** 3 rows in 8 partitions, one element per partition: its index and rows. */
  private def sparseParts = spark.sparkContext.parallelize(1 to 3, 8)
    .mapPartitionsWithIndex((p, rows) => Iterator.single(p -> rows.toArray))

  test("gather: each batch entry gets one row per partition, empty ones too, in partition order") {
    val parts = sparseParts
    val contents = parts.collect()
    assert(contents.count(_._2.isEmpty) >= 5)
    val rows = TopK.gather(parts, Array("a", "b", "c")) { case (p, pts) => b => s"$b:$p:${pts.mkString(",")}" }
    assert(rows.length == 3)
    for ((b, i) <- Seq("a", "b", "c").zipWithIndex)
      assert(rows(i).toSeq == contents.toSeq.map { case (p, pts) => s"$b:$p:${pts.mkString(",")}" })
  }

  test("gather: probe(part) runs once per partition and its function sees the batch in order") {
    val parts = sparseParts
    val calls = spark.sparkContext.longAccumulator("probe calls")
    val rows = TopK.gather(parts, Array.fill(6)(())) { _ =>
      calls.add(1)
      var seen = 0 // per-task state, as Multi-Probe's stamp
      _ => { seen += 1; seen }
    }
    assert(calls.sum == parts.getNumPartitions)
    assert(rows.map(_.toSeq).toSeq == (1 to 6).map(Seq.fill(parts.getNumPartitions)(_)))
  }

  test("gather: a probe that throws surfaces, and the next gather on the same RDD answers") {
    val parts = sparseParts
    val e = intercept[Exception] {
      TopK.gather(parts, Array(1, 2)) { case (p, _) => b => if (p == 5 && b == 2) sys.error("probe failed") else b }
    }
    val causes = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
    assert(causes.exists(c => Option(c.getMessage).exists(_.contains("probe failed"))), e)
    val rows = TopK.gather(parts, Array(1, 2)) { case (p, _) => b => p * 10 + b }
    assert(rows.map(_.toSeq).toSeq == Seq((0 until 8).map(_ * 10 + 1), (0 until 8).map(_ * 10 + 2)))
  }

  test("gather: a partition without exactly one element fails, naming the partition and its count") {
    for ((bad, size) <- Seq(1 -> 0, 2 -> 2)) {
      val parts = spark.sparkContext.parallelize(0 until 3, 3)
        .mapPartitionsWithIndex((p, _) => Iterator.fill(if (p == bad) size else 1)(p))
      val e = intercept[Exception](TopK.gather(parts, Array(1, 2))(p => b => p + b))
      val cause = Iterator.iterate[Throwable](e)(_.getCause).takeWhile(_ != null)
        .collectFirst { case iae: IllegalArgumentException => iae }
      assert(cause.exists(_.getMessage.contains(s"partition $bad holds $size elements")), e)
    }
  }

  test("gather: an empty batch returns an empty array") {
    assert(TopK.gather(sparseParts, Array.empty[Int])(_ => b => b).isEmpty)
  }
}
