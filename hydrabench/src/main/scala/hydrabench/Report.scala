package hydrabench

import scala.collection.mutable

/** Metrics of one run, printed as the run's last line of output. */
final class Report {
  private val values = mutable.LinkedHashMap[String, (Double, String)]()
  private val notes = mutable.Map[String, String]()
  /** Record a metric; `note` (its base, sample count or definition) is
    * printed next to it in [[table]].
    */
  def put(name: String, value: Double, unit: String, note: String = ""): Unit = {
    values(name) = (value, unit)
    if (note.nonEmpty) notes(name) = note
  }

  /** Every metric measured, one per line, with its unit and note. */
  def table: String = values.map { case (n, (v, u)) =>
    f"  $n%-40s ${num(v)}%20s $u%-6s ${notes.getOrElse(n, "")}".stripTrailing
  }.mkString("\n")

  def json(names: Seq[String], ledger: Ledger): String = {
    val ms = names.map { n =>
      val (v, u) = values.getOrElse(n, throw new IllegalStateException(s"metric $n was not measured"))
      s""""$n": {"value": ${num(v)}, "unit": "$u"}"""
    }
    s"""{"correct": ${ledger.failed == 0}, "attempted": ${ledger.attempted}, """ +
      s""""failed": ${ledger.failed}, "metrics": {${ms.mkString(", ")}}}"""
  }

  private def num(v: Double): String =
    if (v.isNaN || v.isInfinite) throw new IllegalStateException(s"non-finite metric value $v")
    else if (v == math.rint(v) && math.abs(v) < 1e15) v.toLong.toString
    else v.toString
}

object Report {
  /** Every metric each kind of run prints, with its unit. */
  val EndToEnd: Seq[(String, String)] = Seq(
    "setup_s" -> "s", "op_s" -> "s", "cc_exact_pct" -> "%", "summary_bytes" -> "B", "ops_ok_pct" -> "%")

  val PerLayer: Seq[(String, String)] = Seq(
    "core.aqp.s" -> "s", "core.aqp.spark_jobs" -> "count", "core.aqp.task_cpu_s" -> "s",
    "core.aqp.ccs" -> "count", "core.aqp.ccs_per_job" -> "count/job",
    "core.viewgraph.s" -> "s", "core.viewgraph.subviews" -> "count", "core.viewgraph.max_width" -> "count",
    "hydra.region.s" -> "s", "hydra.region.regions" -> "count", "hydra.region.boxes" -> "count",
    "hydra.align.s" -> "s", "hydra.align.lp_vars" -> "count", "hydra.align.boxes" -> "count",
    "hydra.lpbuild.s" -> "s", "hydra.lpbuild.eqs" -> "count", "hydra.lpbuild.nonzeros" -> "count",
    "lp.relax.s" -> "s", "lp.relax.root_integral_views" -> "count",
    "lp.bnb.s" -> "s", "lp.bnb.max_view_s" -> "s", "lp.bnb.inexact_views" -> "count",
    "hydra.summarygen.s" -> "s", "hydra.summarygen.rows" -> "count", "hydra.summarygen.ri_extras" -> "count",
    "hydra.summarygen.cc_max_rel_err" -> "ratio",
    "hydra.summary.save_s" -> "s", "hydra.summary.load_s" -> "s",
    "hydra.tuplegen.s" -> "s", "hydra.tuplegen.rows" -> "count", "hydra.tuplegen.tasks" -> "count",
    "hydra.tuplegen.task_cpu_s" -> "s", "hydra.tuplegen.gc_s" -> "s",
    "hydra.tuplegen.rows_per_cpu_s" -> "1/s", "hydra.tuplegen.bytes_written" -> "B",
    "hydra.tuplegen.scan_rows_per_s" -> "1/s", "hydra.tuplegen.filter_count_ms" -> "ms",
    "hydra.tuplegen.filter_count_tail_ms" -> "ms", "hydra.tuplegen.filter_count_tail_pct" -> "%",
    "hydra.tuplegen.filter_count_samples" -> "count", "hydra.tuplegen.materialize_rows_per_s" -> "1/s",
    "jvm.gc_s" -> "s", "jvm.heap_peak_mb" -> "MB",
    "trace.op_s" -> "s", "trace.untraced_op_s" -> "s", "trace.overhead_s" -> "s",
    "trace.unattributed_s" -> "s", "trace.predicted_share_pct" -> "%")
}
