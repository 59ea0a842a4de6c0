package repro.jobs

import org.apache.spark.sql.SparkSession
import repro.tables.Tables

/** What the Table jobs share: one session, the scale factor and the
  * printed table. */
private[jobs] object Job {

  /** Prints `table(spark, scale)` on a session named `name` (master from
    * SPARK_MASTER, default `local[*]`), the scale factor read from the first
    * argument, else from the environment (`Tables.scaleFromEnv`); stops the
    * session afterwards. */
  def run(name: String, args: Array[String])(table: (SparkSession, Double) => String): Unit = {
    val scale = args.headOption.map(_.toDouble).getOrElse(Tables.scaleFromEnv)
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(name)
      .getOrCreate()
    try println(table(spark, scale))
    finally spark.stop()
  }
}
