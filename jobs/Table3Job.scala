package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.Tables

/** spark-submit entrypoint reproducing Table 3 (dataset statistics).
  * Optional arg: scale factor for dataset cardinality.
  */
object Table3Job {
  def main(args: Array[String]): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(Tables.scaleFromEnv)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pm-lsh-table3")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Tables.renderTable3(Tables.table3(spark, scale)))
    finally spark.stop()
  }
}
