package repro.jobs

import repro.tables.Tables

/** spark-submit entrypoint reproducing Table 3 (dataset statistics).
  * Optional arg: scale factor for dataset cardinality.
  */
object Table3Job {
  def main(args: Array[String]): Unit =
    Job.run("pm-lsh-table3", args)((spark, scale) => Tables.renderTable3(Tables.table3(spark, scale)))
}
