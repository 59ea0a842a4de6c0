package repro.jobs

import repro.tables.Tables

/** spark-submit entrypoint reproducing Table 4 (performance overview of
  * PM-LSH vs SRS, QALSH, Multi-Probe, R-LSH, LScan).
  * Optional args: scale, k, numQueries.
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val k = args.lift(1).map(_.toInt).getOrElse(50)
    val numQueries = args.lift(2).map(_.toInt).getOrElse(20)
    Job.run("pm-lsh-table4", args)((spark, scale) => Tables.renderTable4(Tables.table4(spark, scale, k, numQueries)))
  }
}
