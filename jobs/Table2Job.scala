package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.Tables

/** spark-submit entrypoint reproducing Table 2 (PM-tree vs R-tree cost
  * model). Optional arg: scale factor for dataset cardinality.
  */
object Table2Job {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(Tables.scaleFromEnv)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pm-lsh-table2")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Tables.renderTable2(Tables.table2(spark, scale)))
    finally spark.stop()
  }
}
