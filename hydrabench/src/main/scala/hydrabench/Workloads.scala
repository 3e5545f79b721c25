package hydrabench

import java.nio.file.{Files, Path}
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{count, lit, sum}
import org.apache.spark.storage.StorageLevel
import repro.core.{Aqp, CC, Query, SchemaDef}
import repro.hydra.{DbSummary, Hydra, TupleGenerator}
import repro.job.{JobLite, JobWorkload}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

/** What a run is given: its Spark session, a scratch directory inside the
  * checkout, the workload seed, how long to measure and whether to trace.
  */
final case class Ctx(spark: SparkSession, dir: Path, seed: Long, seconds: Double, trace: Boolean) {
  val ledger = new Ledger
  val report = new Report
  val tracer = new Tracer(s"${dir.getFileName}")
  lazy val counters: SparkCounters = {
    val c = new SparkCounters
    spark.sparkContext.addSparkListener(c)
    c
  }
  def path(name: String): String = dir.resolve(name).toString
}

/** Inputs derived from the workload seed. Seed 0 gives the exhibit seeds of
  * the repository's benches (client databases 42 and 43; WLc 11, WLs 7,
  * JOB 17). The seed moves the JOB-lite client database of `aqp-e2e` only.
  * The query sets stay at the exhibit seeds, because a different query set
  * changes the amount of work itself (WLs has 37 to 48 CCs across seeds).
  * The TPC-DS-lite client stays at the exhibit seed in every workload: the
  * summary the same WLs queries give moves with its data (×1 summary 2532 to
  * 2921 B over 57 workload seeds from 0 to 10^12, CCs met exactly 79.2 or
  * 83.3 %), and the ×100 summary's size sets how much work `regen-x100`
  * does, so no bound on `summary_bytes`, `cc_exact_pct` or `op_s` would hold
  * across seeds. The JOB-lite summary is the same size (1021 to 1023 B) and
  * meets the same CCs exactly over every client seed tried. `wlc-build`
  * always builds the exhibit WLc CC set, see [[WlcBuild]].
  */
final case class Seeds(workload: Long) {
  val tpcdsClient: Long = 42
  val jobClient: Long = 43 + workload
  val wlc: Long = 11
  val wls: Long = 7
  val job: Long = 17
}

object Workloads {
  /** Client scale factor of every workload, as in the repository's benches. */
  val Sf = 0.01
  /** Set-ups per run; `setup_s` is their median. */
  val Setups = 3

  def names: Seq[String] = Seq("aqp-e2e", "wlc-build", "regen-x100")

  def run(name: String, ctx: Ctx): Unit = name match {
    case "aqp-e2e"    => AqpE2e.run(ctx)
    case "wlc-build"  => WlcBuild.run(ctx)
    case "regen-x100" => RegenX100.run(ctx)
    case other        => throw new IllegalArgumentException(s"unknown workload $other")
  }

  def time[A](body: => A): (A, Double) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1e9)
  }

  /** `n` timed set-ups; returns their outputs and the median time. */
  def setups[S](n: Int)(one: Int => S): (Vector[S], Double) = {
    val runs = (0 until n).map { i =>
      val r = time(one(i))
      Console.err.println(f"[setup] $i ${r._2}%.3f s")
      r
    }.toVector
    (runs.map(_._1), Stats.median(runs.map(_._2)))
  }

  /** Closed loop: the next operation starts when the previous one ends,
    * until `seconds` have passed and at least one has run.
    */
  def closedLoop(seconds: Double)(op: Int => Unit): Unit = {
    val t0 = System.nanoTime()
    var i = 0
    while (i == 0 || (System.nanoTime() - t0) / 1e9 < seconds) { op(i); i += 1 }
  }

  /** `op_s` is the run's first operation alone (the first that completed,
    * when one threw and so already failed the run), which runs with the JVM
    * and Spark's code generation as cold as the set-ups leave them. Later
    * operations run warmer (about 20 % faster on `aqp-e2e`, 50 % on
    * `regen-x100`), and how many of them fit in `--seconds` depends on the program's
    * speed; they are checked and counted, and their median is printed as
    * `warm_op_s`, outside the JSON.
    */
  def reportOps(r: Report, secs: Seq[Double], what: String): Unit = {
    r.put("op_s", secs.head, "s", s"$what; the first of ${secs.size} operations")
    if (secs.size > 1)
      r.put("warm_op_s", Stats.median(secs.tail), "s", s"median of the ${secs.size - 1} after the first")
  }

  def persisted(dfs: Map[String, DataFrame]): Map[String, DataFrame] =
    dfs.map { case (n, df) =>
      val p = df.persist(StorageLevel.MEMORY_ONLY)
      p.count()
      n -> p
    }

  /** Span around an output check inside a traced operation. */
  val CheckSpan = "check"

  def fileBytes(path: String): Long = Files.size(java.nio.file.Paths.get(path))

  /** The fidelity metrics of the summaries a run built: CCs met exactly,
    * largest relative error, RI extra tuples and summary size.
    */
  def reportFidelity(r: Report, pairs: Seq[(Long, Long)], results: Seq[Hydra.Result], bytes: Long): Unit = {
    r.put("cc_exact_pct", Fidelity.exactPct(pairs), "%", s"of ${pairs.size} CCs")
    r.put("cc_max_rel_err", Fidelity.maxRelErr(pairs), "ratio")
    r.put("ri_extra_tuples", results.map(_.extraTuples.values.sum).sum.toDouble, "tuples")
    r.put("summary_bytes", bytes.toDouble, "B")
  }

  /** Record the per-layer metrics of one traced operation. `layerSecs`
    * holds each layer's self time; `predicted` names the layers ROADMAP
    * expects to dominate the workload.
    */
  def reportTrace(ctx: Ctx, opSpan: Span, untracedSecs: Double,
                  counts: TracedBuild.Counts, predicted: Seq[String], window: JvmWindow): Unit = {
    val spans = ctx.tracer.spans
    val self = Trace.selfSecondsByName(spans)
    def s(n: String) = self.getOrElse(n, 0.0)
    val r = ctx.report
    Report.PerLayer.foreach { case (n, u) => r.put(n, counts.n.getOrElse(n, 0.0), u) }
    Seq("core.aqp", "core.viewgraph", "hydra.region", "hydra.align", "hydra.lpbuild",
        "lp.relax", "hydra.summarygen", "hydra.tuplegen").foreach(l => r.put(s"$l.s", s(l), "s"))
    r.put("hydra.summary.save_s", s("hydra.summary.save"), "s")
    r.put("hydra.summary.load_s", s("hydra.summary.load"), "s")
    // lp.bnb.s is solveIntegral minus its root relaxation, per view (counts).
    // Output checks inside the op are the benchmark's, not the program's.
    val opSecs = (opSpan.durNs - spans.filter(_.name == CheckSpan).map(_.durNs).sum) / 1e9
    val unattributed = Trace.selfNs(spans)(opSpan.id) / 1e9
    r.put("trace.op_s", opSecs, "s")
    r.put("trace.untraced_op_s", untracedSecs, "s")
    r.put("trace.overhead_s", opSecs - untracedSecs, "s")
    r.put("trace.unattributed_s", unattributed, "s")
    r.put("jvm.gc_s", window.gcSeconds, "s")
    r.put("jvm.heap_peak_mb", window.heapPeakMb, "MB")

    // The traced build solves each root relaxation twice (once alone for
    // L6, once inside solveIntegral); shares are of the op without that.
    val layerSecs: Seq[(String, Double)] = Seq(
      "L1 core.aqp" -> s("core.aqp"), "L2 core.viewgraph" -> s("core.viewgraph"),
      "L3 hydra.region" -> s("hydra.region"), "L4 hydra.align" -> s("hydra.align"),
      "L5 hydra.lpbuild" -> s("hydra.lpbuild"), "L6 lp.relax" -> s("lp.relax"),
      "L7 lp.bnb" -> counts.n.getOrElse("lp.bnb.s", 0.0),
      "L8 hydra.summarygen+save+load" ->
        (s("hydra.summarygen") + s("hydra.summary.save") + s("hydra.summary.load")),
      "L9 hydra.tuplegen" -> s("hydra.tuplegen"), "unattributed" -> unattributed)
    val denom = math.max(layerSecs.map(_._2).sum, 1e-9)
    val share = layerSecs.filter(l => predicted.exists(p => l._1.startsWith(p + " "))).map(_._2).sum / denom
    r.put("trace.predicted_share_pct", 100 * share, "%")
    println(f"trace ${ctx.tracer.run}: traced op ${opSecs}%.3f s, untraced ${untracedSecs}%.3f s")
    layerSecs.foreach { case (l, v) => println(f"  $l%-32s ${v}%10.4f s ${100 * v / denom}%6.1f %%") }
    val holds = share > 0.5
    println(f"  prediction: ${predicted.mkString("+")} dominate${if (predicted.size == 1) "s" else ""} " +
      f"— ${if (holds) "holds" else "DOES NOT HOLD"} (${100 * share}%.1f %% of the op)")
  }

  /** Byte-identity of the traced build's summary file with the untraced one. */
  def sameBytes(traced: String, untraced: String): Seq[String] =
    if (java.util.Arrays.equals(Files.readAllBytes(java.nio.file.Paths.get(traced)),
          Files.readAllBytes(java.nio.file.Paths.get(untraced)))) Nil
    else Seq(s"traced build's summary $traced differs from Hydra.buildSummary's $untraced")
}

/** AQP → summary file for the TPC-DS-lite (star) and JOB-lite (DAG)
  * clients: the whole vendor-side pipeline, L1 to L8.
  */
object AqpE2e {
  import Workloads._

  /** JOB-lite queries of the pass: the first 10 of the 30 JOB exhibit
    * queries. All 30 would double the pass (to 30–35 s on 4 cores), more
    * than the benchmark's time per run allows; 10 keep the DAG schema in
    * every pass.
    */
  val JobQueries = 10

  final case class Client(name: String, schema: SchemaDef, queries: Seq[Query],
                          dfs: Map[String, DataFrame], totals: Map[String, Long])

  /** Generate and persist both client databases. */
  def setup(ctx: Ctx): Vector[Client] = {
    val seeds = Seeds(ctx.seed)
    Vector(
      Client("tpcds", TpcdsLite.schema, TpcdsWorkload.wls(seed = seeds.wls),
        persisted(TpcdsLite.clientDb(ctx.spark, Sf, seeds.tpcdsClient)), TpcdsLite.rowCounts(Sf)),
      Client("job", JobLite.schema, JobWorkload.queries(seed = seeds.job).take(JobQueries),
        persisted(JobLite.clientDb(ctx.spark, Sf, seeds.jobClient)), JobLite.rowCounts(Sf)))
  }

  final case class Out(client: Client, ccs: Seq[CC], res: Hydra.Result, path: String)

  def pass(ctx: Ctx, clients: Seq[Client], tag: String): Seq[Out] = clients.map { c =>
    val ccs = Aqp.extractWorkloadCCs(c.schema, c.queries, c.dfs)
    val res = Hydra.buildSummary(c.schema, ccs, c.totals)
    val path = ctx.path(s"${c.name}-$tag.summary")
    DbSummary.save(res.summary, path)
    Out(c, ccs, res, path)
  }

  /** The program's CCs must equal the reference extraction's, and the
    * summary must meet them within the RI slack.
    */
  def check(reference: Map[String, Seq[CC]])(outs: Seq[Out]): Seq[String] =
    outs.flatMap(o => Fidelity.sameCcs(o.ccs, reference(o.client.name)) ++ Fidelity.problems(o.res, o.ccs))

  def run(ctx: Ctx): Unit = {
    val (all, setupS) = setups(Setups)(_ => setup(ctx))
    all.init.foreach(_.foreach(_.dfs.values.foreach(_.unpersist())))
    val clients = all.last
    val reference = clients.map(c => c.name -> ReferenceCcs(c.schema, c.dfs).workloadCcs(c.queries)).toMap
    val r = ctx.report
    r.put("setup_s", setupS, "s", s"median of $Setups set-ups")

    val passes = scala.collection.mutable.ArrayBuffer[(Seq[Out], Double)]()
    closedLoop(ctx.seconds) { i =>
      ctx.ledger.attempt("aqp-e2e pass")(pass(ctx, clients, s"p$i"))(check(reference)).foreach(passes += _)
    }
    if (passes.isEmpty) throw new IllegalStateException("no pass of aqp-e2e completed")
    val (outs, _) = passes.last
    val pairs = outs.flatMap(o => Fidelity.pairs(o.res, o.ccs))
    reportOps(r, passes.map(_._2).toSeq, "= e2e_s")
    r.put("e2e_s", passes.head._2, "s", "queries to summary file, both schemas; the first pass")
    reportFidelity(r, pairs, outs.map(_.res), outs.map(o => fileBytes(o.path)).sum)

    if (ctx.trace) {
      val window = new JvmWindow
      val counts = new TracedBuild.Counts
      val sc = ctx.spark.sparkContext
      val jobs0 = ctx.counters.of(sc, "core.aqp")
      ctx.ledger.attempt("aqp-e2e traced pass") {
        ctx.tracer.span("op") {
          outs.map { o =>
            val c = o.client
            val ccs = ctx.tracer.span("core.aqp")(
              SparkCounters.inGroup(sc, "core.aqp")(Aqp.extractWorkloadCCs(c.schema, c.queries, c.dfs)))
            counts.add("core.aqp.ccs", ccs.size)
            val gen = TracedBuild.build(c.schema, ccs, c.totals, ctx.tracer, counts)
            val path = ctx.path(s"${c.name}-traced.summary")
            ctx.tracer.span("hydra.summary.save")(DbSummary.save(gen.summary, path))
            ctx.tracer.span("hydra.summary.load")(DbSummary.load(path))
            (path, o.path)
          }
        }
      }(_.flatMap { case (t, u) => sameBytes(t, u) })
      val opSpan = ctx.tracer.spans.find(_.name == "op").get
      val aqp = ctx.counters.of(sc, "core.aqp")
      val jobs = aqp.jobs - jobs0.jobs
      counts.add("core.aqp.spark_jobs", jobs)
      counts.add("core.aqp.task_cpu_s", (aqp.cpuNs - jobs0.cpuNs) / 1e9)
      counts.add("hydra.summarygen.cc_max_rel_err", Fidelity.maxRelErr(pairs))
      reportTrace(ctx, opSpan, passes.last._2, counts, Seq("L1"), window)
      val ccs = counts.n("core.aqp.ccs")
      r.put("core.aqp.ccs_per_job", ccs / math.max(jobs, 1), "count/job", f"$ccs%.0f CCs over $jobs Spark jobs")
    }
  }
}

/** CC-in → summary-out on WLc, the LP-heavy workload: L2–L8 with no L1.
  *
  * The CC set is always the exhibit one (WLc seed 11 over client database
  * 42, 113 CCs), whatever the workload seed. How long branch-and-bound runs
  * depends on the exact counts: over other client databases the same
  * queries build in 1.2 s to 93 s, and other WLc query seeds take over
  * 180 s or run out of a 6 GB heap. No run-to-run bound absorbs that, so
  * the benchmark measures one fixed LP-heavy instance, the one ROADMAP's
  * probe measured. Its CCs are counted by [[ReferenceCcs]] over the client
  * database, which gives the same CCs as `Aqp.extractWorkloadCCs` in well
  * under a second instead of about 36 s.
  */
object WlcBuild {
  import Workloads._

  def run(ctx: Ctx): Unit = {
    val seeds = Seeds(ctx.seed)
    val schema = TpcdsLite.schema
    val totals = TpcdsLite.rowCounts(Sf)
    val queries = TpcdsWorkload.wlc(seed = seeds.wlc)
    val (all, setupS) = setups(Setups)(_ =>
      ReferenceCcs(schema, TpcdsLite.clientDb(ctx.spark, Sf, seeds.tpcdsClient)).workloadCcs(queries))
    val ccs = all.last
    val r = ctx.report
    r.put("setup_s", setupS, "s", s"median of $Setups set-ups")

    def build(path: String): Hydra.Result = {
      val res = Hydra.buildSummary(schema, ccs, totals)
      DbSummary.save(res.summary, path)
      res
    }
    val path = ctx.path("wlc.summary")
    val builds = scala.collection.mutable.ArrayBuffer[(Hydra.Result, Double)]()
    closedLoop(ctx.seconds) { _ =>
      ctx.ledger.attempt("wlc-build")(build(path))(res => Fidelity.problems(res, ccs)).foreach(builds += _)
    }
    if (builds.isEmpty) throw new IllegalStateException("no wlc-build op completed")
    val pairs = Fidelity.pairs(builds.last._1, ccs)
    reportOps(r, builds.map(_._2).toSeq, "= build_s")
    r.put("build_s", builds.head._2, "s", s"Hydra.buildSummary + DbSummary.save of ${ccs.size} CCs; the first build")
    reportFidelity(r, pairs, Seq(builds.last._1), fileBytes(path))

    if (ctx.trace) {
      val window = new JvmWindow
      val counts = new TracedBuild.Counts
      ctx.ledger.attempt("wlc-build traced build") {
        ctx.tracer.span("op") {
          val gen = TracedBuild.build(schema, ccs, totals, ctx.tracer, counts)
          val traced = ctx.path("wlc-traced.summary")
          ctx.tracer.span("hydra.summary.save")(DbSummary.save(gen.summary, traced))
          ctx.tracer.span("hydra.summary.load")(DbSummary.load(traced))
          traced
        }
      }(traced => sameBytes(traced, path))
      counts.add("hydra.summarygen.cc_max_rel_err", Fidelity.maxRelErr(pairs))
      reportTrace(ctx, ctx.tracer.spans.find(_.name == "op").get, builds.last._2, counts, Seq("L6", "L7"), window)
    }
  }
}

/** Tuple supply through the `SummarySource` DataSourceV2 scan from the WLs
  * summary scaled ×100 (6.67 M rows): full aggregate scans, filtered counts
  * and a materialize to parquet. L9 only. The summary is always the exhibit
  * one (WLs seed 7 over client database 42), whatever the workload seed;
  * see [[Seeds]].
  */
object RegenX100 {
  import Workloads._

  val Scale = 100L
  /** The five largest relations, as in the Fig. 15 bench. */
  val ScanRelations: Seq[String] = Seq("store_returns", "web_sales", "inventory", "catalog_sales", "store_sales")

  final case class Setup(queries: Seq[Query], ccs1: Seq[CC], res1: Hydra.Result, path1: String,
                         ccs: Seq[CC], res: Hydra.Result, path: String)

  def setup(ctx: Ctx, i: Int): Setup = {
    val seeds = Seeds(ctx.seed)
    val schema = TpcdsLite.schema
    val queries = TpcdsWorkload.wls(seed = seeds.wls)
    val dfs = TpcdsLite.clientDb(ctx.spark, Sf, seeds.tpcdsClient)
    val ccs1 = ReferenceCcs(schema, dfs).workloadCcs(queries)
    val totals = TpcdsLite.rowCounts(Sf)
    val res1 = Hydra.buildSummary(schema, ccs1, totals)
    val path1 = ctx.path(s"wls-x1-$i.summary")
    DbSummary.save(res1.summary, path1)
    val ccs = ccs1.map(c => c.copy(card = Math.multiplyExact(c.card, Scale)))
    val res = Hydra.buildSummary(schema, ccs, totals.map { case (r, n) => r -> n * Scale })
    val path = ctx.path(s"wls-x$Scale-$i.summary")
    DbSummary.save(res.summary, path)
    Setup(queries, ccs1, res1, path1, ccs, res, path)
  }

  /** CCs a filtered count on one regenerated relation can check. */
  def filterCcs(s: Setup): Seq[CC] = {
    val schema = TpcdsLite.schema
    s.ccs.filter(cc => !cc.pred.isTrue && cc.pred.attrs.subsetOf(schema.byName(cc.relation).attrNames.toSet))
  }

  /** Times of one round, per kind of operation. */
  final case class Round(scanRows: Long, scanSecs: Double, filterSecs: Seq[Double],
                         materializeRows: Long, materializeSecs: Double) {
    def secs: Double = scanSecs + filterSecs.sum + materializeSecs
  }

  /** One round of every supply operation; with `traced`, each runs in an
    * L9 span with its Spark jobs tagged for the counters.
    */
  def round(ctx: Ctx, s: Setup, tag: String, traced: Boolean): Round = {
    val spark = ctx.spark
    val schema = TpcdsLite.schema
    def timed[A](what: String)(body: => A)(check: A => Seq[String]): Option[Double] =
      if (!traced) ctx.ledger.attempt(what)(body)(check).map(_._2)
      else ctx.ledger.attempt(what)(
        ctx.tracer.span("hydra.tuplegen")(SparkCounters.inGroup(spark.sparkContext, "hydra.tuplegen")(body)))(
        a => ctx.tracer.span(Workloads.CheckSpan)(check(a))).map(_._2)

    var scanRows = 0L
    var scanSecs = 0.0
    ScanRelations.foreach { rel =>
      val attr = schema.byName(rel).attrNames.head
      val rs = s.res.summary.byName(rel)
      val ai = rs.attrCols.indexOf(attr)
      val wantSum = rs.rows.map { case (a, _, c) => a(ai) * c }.sum
      timed(s"scan $rel") {
        TupleGenerator.dataFrame(spark, s.path, rel).agg(count(lit(1)), sum(attr)).collect()(0)
      } { row =>
        val (n, total) = (row.getLong(0), row.getDouble(1))
        (if (n != rs.total) Seq(s"scan $rel: $n rows, summary total ${rs.total}") else Nil) ++
          (if (math.abs(total - wantSum) > 1e-9 * math.max(1.0, math.abs(wantSum)))
             Seq(s"scan $rel: sum($attr) = $total, summary gives $wantSum") else Nil)
      }.foreach { secs => scanRows += rs.total; scanSecs += secs }
    }

    val filterSecs = filterCcs(s).flatMap { cc =>
      val want = s.res.ccCount(cc)
      timed(s"filtered count ${cc.relation}") {
        TupleGenerator.dataFrame(spark, s.path, cc.relation).filter(cc.pred.toColumn).count()
      } { got =>
        if (got != want) Seq(s"filtered count ${cc.relation} ${cc.pred.toSql}: $got, summary gives $want") else Nil
      }
    }

    val out = ctx.path(s"materialized-$tag")
    val matRows = s.res.summary.relations.map(_.total).sum
    val matSecs = timed("materialize")(TupleGenerator.materialize(spark, s.path, out)) { _ =>
      s.res.summary.relations.flatMap { r =>
        val n = spark.read.parquet(s"$out/${r.relation}").count()
        if (n != r.total) Some(s"materialized ${r.relation}: $n rows, summary total ${r.total}") else None
      }
    }
    Round(scanRows, scanSecs, filterSecs, if (matSecs.isDefined) matRows else 0L, matSecs.getOrElse(0.0))
  }

  /** The fidelity audit of regenerated data: the WLs queries (joins
    * included) re-counted on the ×1 relations regenerated through the DSv2
    * scan; every count must lie within its CC's RI slack. Every run counts
    * with [[ReferenceCcs]] (about 1 s); traced runs also re-run the
    * program's own AQP extraction (about 15 s, too long for every run).
    */
  def regeneratedCcs(ctx: Ctx, s: Setup, viaAqp: Boolean): Option[Seq[(Long, Long)]] = {
    val schema = TpcdsLite.schema
    val how = if (viaAqp) "AQP" else "reference counts"
    ctx.ledger.attempt(s"$how over regenerated x1 relations") {
      val regen = schema.relations.map(r => r.name -> TupleGenerator.dataFrame(ctx.spark, s.path1, r.name)).toMap
      val ccs = if (viaAqp) Aqp.extractWorkloadCCs(schema, s.queries, regen)
                else ReferenceCcs(schema, regen).workloadCcs(s.queries)
      val got = ccs.map(c => c.dedupKey -> c.card).toMap
      s.ccs1.map(cc => (cc, got.getOrElse(cc.dedupKey, -1L)))
    } { pairs =>
      pairs.collect {
        case (cc, g) if !Fidelity.withinSlack(g, cc.card, Fidelity.slack(s.res1, cc)) =>
          s"regenerated ${cc.relation} ${cc.pred.toSql}: want ${cc.card} (+${Fidelity.slack(s.res1, cc)} RI), got $g"
      }
    }.map(_._1.map { case (cc, g) => (cc.card, g) })
  }

  /** The supply metrics of some rounds, named with `prefix`: full-scan and
    * materialize rates, and the median and tail of the filtered counts.
    */
  def reportSupply(r: Report, rounds: Seq[Round], prefix: String): Unit = {
    val filters = rounds.flatMap(_.filterSecs).map(_ * 1e3)
    r.put(s"${prefix}scan_rows_per_s", rounds.map(_.scanRows).sum / math.max(rounds.map(_.scanSecs).sum, 1e-9),
      "1/s", s"${rounds.map(_.scanRows).sum} rows in ${ScanRelations.size * rounds.size} aggregate scans")
    r.put(s"${prefix}filter_count_ms", if (filters.isEmpty) 0.0 else Stats.median(filters), "ms",
      s"median of ${filters.size}")
    Stats.tail(filters).foreach { t =>
      r.put(s"${prefix}filter_count_tail_ms", t.value, "ms",
        f"p${t.percentile}%s of ${t.samples} samples, at least 10 beyond it")
      r.put(s"${prefix}filter_count_tail_pct", t.percentile, "%")
    }
    r.put(s"${prefix}filter_count_samples", filters.size.toDouble, "count")
    r.put(s"${prefix}materialize_rows_per_s",
      rounds.map(_.materializeRows).sum / math.max(rounds.map(_.materializeSecs).sum, 1e-9), "1/s",
      s"${rounds.map(_.materializeRows).sum} rows written")
  }

  def run(ctx: Ctx): Unit = {
    val (all, setupS) = setups(Setups)(i => setup(ctx, i))
    val s = all.last
    val r = ctx.report
    r.put("setup_s", setupS, "s", s"median of $Setups set-ups")
    // The fidelity audit of the regenerated x1 relations runs in every
    // invocation, before the timed rounds and outside their timing; with
    // one x1 relation written to parquet after it, it compiles part of the
    // supply paths, the same part in every run, before the first round.
    val regenPairs = regeneratedCcs(ctx, s, viaAqp = false).getOrElse(Nil)
    TupleGenerator.dataFrame(ctx.spark, s.path1, ScanRelations.last).write.parquet(ctx.path("written-x1"))

    val rounds = scala.collection.mutable.ArrayBuffer[Round]()
    closedLoop(ctx.seconds)(i => rounds += round(ctx, s, s"r$i", traced = false))
    reportOps(r, rounds.map(_.secs).toSeq, "one round of scans, filtered counts and materialize")
    reportSupply(r, rounds.take(1).toSeq, "")
    reportFidelity(r, Fidelity.pairs(s.res, s.ccs), Seq(s.res), fileBytes(s.path))

    if (ctx.trace) {
      val aqpPairs = regeneratedCcs(ctx, s, viaAqp = true).getOrElse(Nil)
      val sc = ctx.spark.sparkContext
      val window = new JvmWindow
      val counts = new TracedBuild.Counts
      val g0 = ctx.counters.of(sc, "hydra.tuplegen")
      val traced = ctx.tracer.span("op") {
        ctx.tracer.span("hydra.summary.load")(DbSummary.load(s.path))
        round(ctx, s, "traced", traced = true)
      }
      val g = ctx.counters.of(sc, "hydra.tuplegen")
      val cpu = (g.cpuNs - g0.cpuNs) / 1e9
      val rows = (g.recordsRead - g0.recordsRead).toDouble
      counts.add("hydra.tuplegen.rows", rows)
      counts.add("hydra.tuplegen.tasks", g.tasks - g0.tasks)
      counts.add("hydra.tuplegen.task_cpu_s", cpu)
      counts.add("hydra.tuplegen.gc_s", (g.gcMs - g0.gcMs) / 1e3)
      counts.add("hydra.tuplegen.bytes_written", g.bytesWritten - g0.bytesWritten)
      counts.add("hydra.summarygen.cc_max_rel_err", Fidelity.maxRelErr(regenPairs ++ aqpPairs))
      counts.add("hydra.summarygen.ri_extras", s.res.extraTuples.values.sum)
      counts.add("hydra.summarygen.rows", s.res.summary.relations.map(_.rows.size).sum)
      reportTrace(ctx, ctx.tracer.spans.find(_.name == "op").get, rounds.last.secs, counts, Seq("L9"), window)
      reportSupply(r, Seq(rounds.head, traced), "hydra.tuplegen.")
      r.put("hydra.tuplegen.rows_per_cpu_s", rows / math.max(cpu, 1e-9), "1/s",
        f"$rows%.0f rows over $cpu%.2f s of task CPU")
    }
  }
}
