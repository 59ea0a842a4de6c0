package repro.jobs

import repro.tables.Tables

/** spark-submit entrypoint reproducing Table 2 (PM-tree vs R-tree cost
  * model). Optional arg: scale factor for dataset cardinality.
  */
object Table2Job {
  def main(args: Array[String]): Unit =
    Job.run("pm-lsh-table2", args)((spark, scale) => Tables.renderTable2(Tables.table2(spark, scale)))
}
