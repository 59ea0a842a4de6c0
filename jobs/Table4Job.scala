package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.Tables

/** spark-submit entrypoint reproducing Table 4 (performance overview of
  * PM-LSH vs SRS, QALSH, Multi-Probe, R-LSH, LScan).
  * Optional args: scale, k, numQueries.
  */
object Table4Job {
  def main(args: Array[String]): Unit = {
    val scale = args.lift(0).map(_.toDouble).getOrElse(Tables.scaleFromEnv)
    val k = args.lift(1).map(_.toInt).getOrElse(50)
    val numQueries = args.lift(2).map(_.toInt).getOrElse(20)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName("pm-lsh-table4")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    try println(Tables.renderTable4(Tables.table4(spark, scale, k, numQueries)))
    finally spark.stop()
  }
}
