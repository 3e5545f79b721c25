package hydrabench

import java.nio.charset.StandardCharsets
import java.nio.file.{Files, Paths}
import org.apache.spark.sql.SparkSession

/** Benchmark entry point, started by `run.py`:
  * `Main --workload <name> --seed <n> --seconds <s> --trace <0|1> --dir <scratch dir>`.
  * Prints progress to stderr; on stdout, a table of every metric measured
  * and, as its last line, one JSON object with the end-to-end metrics
  * (`--trace 0`) or the per-layer ones (`--trace 1`).
  */
object Main {

  def main(args: Array[String]): Unit = {
    val opts = args.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def opt(k: String) = opts.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    val workload = opt("workload")
    require(Workloads.names.contains(workload),
      s"unknown workload $workload; one of ${Workloads.names.mkString(", ")}")
    val dir = Paths.get(opt("dir")).toAbsolutePath
    val spark = session(dir.toString)
    try {
      val trace = opt("trace") == "1"
      val ctx = Ctx(spark, dir, opt("seed").toLong, opt("seconds").toDouble, trace)
      Workloads.run(workload, ctx)
      val l = ctx.ledger
      ctx.report.put("ops_ok_pct", l.okPct, "%")
      ctx.report.put("ops_failed_pct", 100.0 - l.okPct, "%", s"${l.failed} of ${l.attempted} operations")
      l.failures.foreach(f => Console.err.println(s"FAILED $f"))
      if (trace) {
        val out = opts.get("trace-out").map(Paths.get(_))
        out.foreach(p => Files.write(p, ctx.tracer.spans.map(_.json).mkString("", "\n", "\n")
          .getBytes(StandardCharsets.UTF_8)))
      }
      println(s"$workload, seed ${ctx.seed}, trace ${opt("trace")}:")
      println(ctx.report.table)
      val names = (if (trace) Report.PerLayer else Report.EndToEnd).map(_._1)
      println(ctx.report.json(names, l))
    } finally spark.stop()
  }

  /** One driver JVM on `local[k]`, k = min(4, cores); the SQL settings of
    * the repository's tests and benches (64 shuffle partitions, no
    * broadcast joins); every Spark file inside the run's directory.
    */
  def session(dir: String): SparkSession = {
    val k = math.min(4, Runtime.getRuntime.availableProcessors)
    val s = SparkSession.builder
      .master(s"local[$k]")
      .appName("hydrabench")
      .config("spark.sql.shuffle.partitions", 64)
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .config("spark.ui.enabled", false)
      .config("spark.driver.host", "127.0.0.1")
      .config("spark.local.dir", s"$dir/spark-local")
      .config("spark.sql.warehouse.dir", s"$dir/warehouse")
      .getOrCreate()
    s.sparkContext.setLogLevel("ERROR")
    s
  }
}
