package hydrabench

import org.apache.spark.sql.SparkSession
import org.scalatest.BeforeAndAfterAll
import org.scalatest.funsuite.AnyFunSuite
import repro.core.Aqp
import repro.job.{JobLite, JobWorkload}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

class ReferenceCcsSpec extends AnyFunSuite with BeforeAndAfterAll {
  private lazy val spark = SparkSession.builder.master("local[2]").appName("hydrabench-test")
    .config("spark.sql.shuffle.partitions", 4)
    .config("spark.sql.autoBroadcastJoinThreshold", -1)
    .config("spark.ui.enabled", false)
    .getOrCreate()

  override def afterAll(): Unit = spark.stop()

  test("reference extraction equals the program's AQP extraction, CC by CC (star schema)") {
    val dfs = TpcdsLite.clientDb(spark, 0.001, seed = 5)
    val qs = TpcdsWorkload.wlc(numQueries = 6, seed = 3)
    assert(ReferenceCcs(TpcdsLite.schema, dfs).workloadCcs(qs) ==
      Aqp.extractWorkloadCCs(TpcdsLite.schema, qs, dfs))
  }

  test("reference extraction equals the program's AQP extraction, CC by CC (DAG schema)") {
    val dfs = JobLite.clientDb(spark, 0.001, seed = 6)
    val qs = JobWorkload.queries(numQueries = 6, seed = 4)
    assert(ReferenceCcs(JobLite.schema, dfs).workloadCcs(qs) ==
      Aqp.extractWorkloadCCs(JobLite.schema, qs, dfs))
  }
}
