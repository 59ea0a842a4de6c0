package repro.tables

import org.apache.spark.sql.SparkSession
import repro.baselines.{MultiProbe, Qalsh, Srs}
import repro.core._
import repro.data.{HighDim, HighDimConfig}

/** Harnesses that regenerate the paper's evaluation tables. Each returns
  * structured rows (for assertions / EXPERIMENTS.md) and can render a
  * plain-text table with the paper's numbers alongside.
  *
  * Shared by the `bench/` suites and the spark-submit jobs in `jobs/`.
  */
object Tables {

  /** Scale knob: REPRO_SCALE multiplies every dataset's cardinality. */
  def scaleFromEnv: Double =
    sys.env.get("REPRO_SCALE").map(_.toDouble).getOrElse(1.0)

  def configs(scale: Double): Seq[HighDimConfig] =
    HighDim.benchConfigs.map(_.scaled(scale))

  // ------------------------------------------------------------------
  // Table 2 — cost model CC of PM-tree vs R-tree
  // ------------------------------------------------------------------

  case class Table2Row(
      dataset: String,
      ccPm: Double,
      ccR: Double,
      reductionPct: Double,
      paperCcPm: Long,
      paperCcR: Long,
      paperReductionPct: Int)

  private val paperTable2: Map[String, (Long, Long, Int)] = Map(
    "Audio" -> ((38182L, 40565L, 6)),
    "Cifar" -> ((35210L, 54869L, 36)),
    "MNIST" -> ((56670L, 59043L, 4)),
    "Trevi" -> ((34281L, 63884L, 46)),
    "NUS"   -> ((201448L, 252187L, 20)),
    "GIST"  -> ((739720L, 889974L, 17)),
    "Deep"  -> ((964451L, 1017604L, 5)))

  /** Table 2: build one PM-tree and one R-tree over all projected points of
    * each dataset at the §6.1 operating point (`LshParams`: m = 15, s = 5,
    * capacity 16, seed 42), estimate CC(range(q, r)) from Eqs. 7 and 9 with
    * r the radius that returns ≈ the nearest 8% of all points (§4.2).
    */
  def table2(spark: SparkSession, scale: Double = 1.0): Seq[Table2Row] = {
    val p = LshParams()
    configs(scale).map { cfg =>
      val points = HighDim.generate(spark, cfg).collect()
      val fam = new ProjectionFamily(cfg.d, p.m, p.seed)
      val proj = points.map(pt => fam.project(pt.vec))

      val projDists = EmpiricalDistances.fromSample(proj.take(600), seed = p.seed)
      val rq = projDists.quantile(0.08)

      val pivots = PMTree.selectPivots(proj.take(500), p.s)
      val flat = proj.flatten
      val ccPm = CostModel.pmTreeCost(PMTree.build(points, flat, pivots, p.capacity).nodeSummaries, projDists, rq)
      val ccR = CostModel.rTreeCost(RTree.build(points, flat, p.m, p.capacity).nodeSummaries, CostModel.cdfPerDim(proj), rq)
      val red = 100.0 * (1.0 - ccPm / math.max(ccR, 1e-9))
      val (ppm, pr, pred) = paperTable2(cfg.name)
      Table2Row(cfg.name, ccPm, ccR, red, ppm, pr, pred)
    }
  }

  def renderTable2(rows: Seq[Table2Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 2: Computation Cost (CC) of PM-tree and R-tree (ours | paper)\n"
    sb ++= f"${"Dataset"}%-8s ${"CC(PM)"}%12s ${"CC(R)"}%12s ${"Red%"}%7s | ${"paper PM"}%10s ${"paper R"}%10s ${"Red%"}%6s\n"
    rows.foreach { r =>
      sb ++= f"${r.dataset}%-8s ${r.ccPm}%12.0f ${r.ccR}%12.0f ${r.reductionPct}%6.1f%% | ${r.paperCcPm}%10d ${r.paperCcR}%10d ${r.paperReductionPct}%5d%%\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------------
  // Table 3 — dataset statistics
  // ------------------------------------------------------------------

  case class Table3Row(cfg: HighDimConfig, stats: DatasetStats)

  def table3(spark: SparkSession, scale: Double = 1.0): Seq[Table3Row] =
    configs(scale).map { cfg =>
      val points = HighDim.generate(spark, cfg).persist()
      points.count()
      val stats = DataStats.compute(spark, points, seed = cfg.seed)
      points.unpersist()
      Table3Row(cfg, stats)
    }

  def renderTable3(rows: Seq[Table3Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 3: Datasets (ours | paper; paper n is in thousands at full scale)\n"
    sb ++= f"${"Dataset"}%-8s ${"n"}%7s ${"d"}%5s ${"HV"}%7s ${"RC"}%6s ${"LID"}%6s | ${"n(K)"}%7s ${"HV"}%7s ${"RC"}%5s ${"LID"}%5s\n"
    rows.foreach { r =>
      sb ++= f"${r.cfg.name}%-8s ${r.stats.n}%7d ${r.stats.d}%5d ${r.stats.hv}%7.4f ${r.stats.rc}%6.2f ${r.stats.lid}%6.1f" +
        f" | ${r.cfg.paperN}%7.0f ${r.cfg.paperHV}%7.4f ${r.cfg.paperRC}%5.2f ${r.cfg.paperLID}%5.1f\n"
    }
    sb.result()
  }

  // ------------------------------------------------------------------
  // Table 4 — performance overview
  // ------------------------------------------------------------------

  case class AlgoResult(
      algo: String,
      timeMsPerQuery: Double,
      candsPerQuery: Double,
      overallRatio: Double,
      recall: Double,
      paperTimeMs: Double,
      paperRatio: Double,
      paperRecall: Double)

  case class Table4Row(dataset: String, results: Seq[AlgoResult])

  /** Paper Table 4: dataset → algo → (time ms, ratio, recall). */
  val paperTable4: Map[String, Map[String, (Double, Double, Double)]] = Map(
    "Audio" -> Map(
      "PM-LSH" -> ((13.5, 1.0014, 0.9662)), "SRS" -> ((15.3, 1.0025, 0.9126)),
      "QALSH" -> ((22.5, 1.0043, 0.9003)), "Multi-Probe" -> ((15.3, 1.0242, 0.8669)),
      "R-LSH" -> ((14.2, 1.0019, 0.9633)), "LScan" -> ((19.6, 1.0073, 0.6839))),
    "MNIST" -> Map(
      "PM-LSH" -> ((12.3, 1.0076, 0.8857)), "SRS" -> ((18.4, 1.0101, 0.8514)),
      "QALSH" -> ((24.7, 1.0085, 0.8655)), "Multi-Probe" -> ((19.1, 1.0103, 0.8502)),
      "R-LSH" -> ((16.2, 1.0095, 0.8705)), "LScan" -> ((60.3, 1.0276, 0.7073))),
    "NUS" -> Map(
      "PM-LSH" -> ((125.7, 1.0009, 0.9257)), "SRS" -> ((142.1, 1.0015, 0.9247)),
      "QALSH" -> ((133.2, 1.0027, 0.8677)), "Multi-Probe" -> ((125.9, 1.0025, 0.8782)),
      "R-LSH" -> ((129.6, 1.0011, 0.9214)), "LScan" -> ((176.8, 1.0053, 0.7057))),
    "Trevi" -> Map(
      "PM-LSH" -> ((37.2, 1.0004, 0.9961)), "SRS" -> ((47.9, 1.0015, 0.9342)),
      "QALSH" -> ((145.5, 1.0029, 0.8240)), "Multi-Probe" -> ((239.3, 1.0057, 0.8534)),
      "R-LSH" -> ((63.9, 1.0044, 0.9568)), "LScan" -> ((57.68, 1.0084, 0.7103))),
    "Cifar" -> Map(
      "PM-LSH" -> ((11.6, 1.0009, 0.9746)), "SRS" -> ((16.1, 1.0025, 0.9624)),
      "QALSH" -> ((38.3, 1.0057, 0.7917)), "Multi-Probe" -> ((26.8, 1.0038, 0.8011)),
      "R-LSH" -> ((35.6, 1.0056, 0.9610)), "LScan" -> ((58.2, 1.0125, 0.7081))),
    "GIST" -> Map(
      "PM-LSH" -> ((398.7, 1.0047, 0.8436)), "SRS" -> ((452.5, 1.0049, 0.8145)),
      "QALSH" -> ((627.7, 1.0037, 0.8534)), "Multi-Probe" -> ((782.9, 1.0053, 0.8122)),
      "R-LSH" -> ((425.3, 1.0059, 0.8098)), "LScan" -> ((1528.3, 1.0076, 0.7023))),
    "Deep" -> Map(
      "PM-LSH" -> ((227.8, 1.0037, 0.8816)), "SRS" -> ((252.9, 1.0077, 0.8894)),
      "QALSH" -> ((458.2, 1.0124, 0.646)), "Multi-Probe" -> ((401.4, 1.0112, 0.8118)),
      "R-LSH" -> ((457.5, 1.0152, 0.8801)), "LScan" -> ((507.5, 1.0145, 0.6938))))

  /** Run all 6 algorithms on one dataset; `numQueries` scaled down from the
    * paper's 200. Index build time is excluded (the paper reports query
    * time); every engine gets one warm-up batch before timing so JIT and
    * Spark job-setup costs do not skew the first-measured algorithm.
    */
  def table4ForDataset(spark: SparkSession, cfg: HighDimConfig, k: Int, numQueries: Int): Table4Row = {
    val points = HighDim.generate(spark, cfg).persist()
    points.count()
    val queries = HighDim.queryVecs(cfg, numQueries)
    val warmupQ = queries.take(2)
    val gt = GroundTruth.knnBatch(spark, points, queries, k)
    val paper = paperTable4(cfg.name)

    // run returns (neighbors per query, verified candidates per query). The
    // candidate count is the paper's real cost driver; wall-clock at our
    // 50x-reduced n is dominated by constant Spark job overhead, so the
    // shape assertions key on work, not time (DESIGN.md).
    def eval(name: String,
             run: Array[Array[Double]] => (Array[Array[Neighbor]], Double)): AlgoResult = {
      run(warmupQ) // warm-up: JIT + Spark task setup
      val ((res, cands), ms) = Metrics.time(run(queries))
      val (pt, pr, pc) = paper(name)
      AlgoResult(name, ms / queries.length, cands,
        Metrics.meanOver(res, gt)(Metrics.overallRatio),
        Metrics.meanOver(res, gt)(Metrics.recall), pt, pr, pc)
    }

    def fromResults(rs: Array[QueryResult]): (Array[Array[Neighbor]], Double) =
      (rs.map(_.neighbors), if (rs.isEmpty) 0.0 else rs.map(_.candidates).sum.toDouble / rs.length)

    // engine seeds are offset from the data seed: sharing the exact seed
    // would correlate hash directions with the generated data (see
    // ProjectionFamily; scrambled there too — belt and braces)
    val params = LshParams(seed = cfg.seed + 7919)
    val pmEngine = new RangeLsh(spark, points, params, usePmTree = true)
    val rEngine = new RangeLsh(spark, points, params, usePmTree = false)
    val srs = new Srs(spark, rEngine)
    val qalsh = new Qalsh(spark, points, seed = cfg.seed + 15401)
    val mp = new MultiProbe(spark, points, seed = cfg.seed + 23911)

    val n = pmEngine.n
    val results = Seq(
      eval("PM-LSH", qs => fromResults(pmEngine.knn(qs, k))),
      eval("SRS", qs => fromResults(srs.knn(qs, k))),
      eval("QALSH", qs => fromResults(qalsh.knn(qs, k))),
      eval("Multi-Probe", qs => fromResults(mp.knn(qs, k))),
      eval("R-LSH", qs => fromResults(rEngine.knn(qs, k))),
      eval("LScan", qs => (LinearScan.knn(spark, points, qs, k), math.ceil(0.7 * n))))

    pmEngine.unpersist(); rEngine.unpersist(); qalsh.unpersist(); mp.unpersist()
    points.unpersist()
    Table4Row(cfg.name, results)
  }

  def table4(spark: SparkSession, scale: Double = 1.0, k: Int = 50,
             numQueries: Int = 20): Seq[Table4Row] =
    configs(scale).map(cfg => table4ForDataset(spark, cfg, k, numQueries))

  def renderTable4(rows: Seq[Table4Row]): String = {
    val sb = new StringBuilder
    sb ++= "Table 4: Performance Overview (ours | paper). Times include Spark job overhead — compare ordering, not absolutes.\n"
    rows.foreach { row =>
      sb ++= s"--- ${row.dataset} ---\n"
      sb ++= f"${"Algo"}%-12s ${"ms/q"}%9s ${"cands/q"}%9s ${"Ratio"}%8s ${"Recall"}%8s | ${"ms/q"}%8s ${"Ratio"}%8s ${"Recall"}%8s\n"
      row.results.foreach { a =>
        sb ++= f"${a.algo}%-12s ${a.timeMsPerQuery}%9.1f ${a.candsPerQuery}%9.0f ${a.overallRatio}%8.4f ${a.recall}%8.4f" +
          f" | ${a.paperTimeMs}%8.1f ${a.paperRatio}%8.4f ${a.paperRecall}%8.4f\n"
      }
    }
    sb.result()
  }
}
