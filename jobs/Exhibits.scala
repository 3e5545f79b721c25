package repro.exhibits

import java.nio.file.{Files, Path}
import java.util.Comparator
import org.apache.spark.sql.{DataFrame, SparkSession}
import org.apache.spark.sql.functions.{count, lit, sum}
import repro.core._
import repro.datasynth.{DataSynth, GridPartition}
import repro.hydra.{DbSummary, Hydra, LPFormulator, TupleGenerator}
import repro.job.{JobLite, JobWorkload}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

/** One reproduced table of the paper, with the lines printed under it. */
final case class Table(title: String, headers: Seq[String], rows: Seq[Seq[String]],
                       notes: Seq[String] = Nil)

/** The inputs every exhibit draws from, each built at most once: the client
  * databases at scale factor `sf`, the CC sets of WLc, WLs and JOB (the AQP
  * step, which executes every workload query on Spark), and the WLs
  * regenerations by Hydra and DataSynth that Figures 10 and 11 share.
  */
final case class Inputs(spark: SparkSession, sf: Double) {
  lazy val tpcdsDb: Map[String, DataFrame] = TpcdsLite.clientDb(spark, sf)
  lazy val jobDb: Map[String, DataFrame] = JobLite.clientDb(spark, sf)

  lazy val wlc: Seq[Query] = TpcdsWorkload.wlc()
  lazy val wls: Seq[Query] = TpcdsWorkload.wls()
  lazy val job: Seq[Query] = JobWorkload.queries()

  lazy val wlcCcs: Seq[CC] = Aqp.extractWorkloadCCs(TpcdsLite.schema, wlc, tpcdsDb)
  lazy val wlsCcs: Seq[CC] = Aqp.extractWorkloadCCs(TpcdsLite.schema, wls, tpcdsDb)
  lazy val jobCcs: Seq[CC] = Aqp.extractWorkloadCCs(JobLite.schema, job, jobDb)

  /** TPC-DS-lite relation sizes, every one multiplied by `k`. */
  def tpcdsTotals(k: Long = 1): Map[String, Long] =
    TpcdsLite.rowCounts(sf).map { case (r, n) => r -> Math.multiplyExact(n, k) }

  lazy val wlsHydra: Hydra.Result = Hydra.buildSummary(TpcdsLite.schema, wlsCcs, tpcdsTotals())
  lazy val wlsDataSynth: DataSynth.Result = DataSynth.instantiate(TpcdsLite.schema,
    Exhibits.dataSynthGrids(wlsCcs, tpcdsTotals()), wlsCcs.groupBy(_.relation), seed = 4242)
}

/** A computed exhibit: typed numbers for assertions plus the table to print. */
sealed trait Exhibit { def table: Table }

/** Log-scale histogram of CC cardinalities: (decade, number of CCs). */
final case class CardDist(ccs: Seq[CC], buckets: Seq[(Int, Int)], table: Table) extends Exhibit

/** Signed relative error of every WLs CC under each system. */
final case class Accuracy(hydraErrs: Seq[Double], dsErrs: Seq[Double], table: Table) extends Exhibit

/** RI extras summed over the TPC-DS-lite relations, and Hydra's summary rows. */
final case class ExtraTuples(hydraTotal: Long, dsTotal: Long, summaryRows: Int, table: Table)
    extends Exhibit

/** Per relation: (name, Hydra region variables, DataSynth grid variables). */
final case class LpVariables(rows: Seq[(String, Int, BigInt)], table: Table) extends Exhibit

/** LP milliseconds per workload; a DataSynth grid over the solver cap is unsolvable. */
final case class LpTime(hydraWlcMs: Long, hydraWlsMs: Long, dsWlcMs: Long, dsWlcSolvable: Boolean,
                        dsWlsMs: Long, dsWlsSolvable: Boolean, inexactViews: Seq[String],
                        table: Table) extends Exhibit

/** Per scale: (k, total rows, DataSynth ms, Hydra ms). */
final case class Materialization(rows: Seq[(Long, Long, Long, Long)], table: Table) extends Exhibit

/** Per relation: (name, rows, parquet scan ms, dynamic scan ms). */
final case class DataSupply(rows: Seq[(String, Long, Long, Long)], table: Table) extends Exhibit

/** Per scale: (k, ≈data bytes, build ms, result), and a 10⁶-row slice of the largest. */
final case class ScaleFree(rows: Seq[(Long, Long, Long, Hydra.Result)], sliceRows: Long,
                           sliceMs: Long, table: Table) extends Exhibit

/** JOB: LP variables per view, and the absolute relative error of every CC. */
final case class JobFidelity(vars: Seq[(String, Int, BigInt)], buildMs: Long, errs: Seq[Double],
                             table: Table) extends Exhibit

final case class SavedSummary(table: Table) extends Exhibit

/** The paper's evaluation exhibits (§7: Figures 9–17 and the §7.4 exabyte
  * run), each computed here and only here. The bench suites assert their
  * shape; [[main]] prints one:
  * `Exhibits <fig09|…|fig17|scale|summary> [sf] [path]`, where `path` is the
  * summary file `summary` writes (default `hydra.summary`).
  */
object Exhibits {
  /** "Client" scale factor for CC extraction (≈ the paper's 100 GB role). */
  val DefaultSf = 0.01

  def render(t: Table): String = {
    val all = t.headers +: t.rows
    val widths = t.headers.indices.map(i => all.map(_(i).length).max)
    def fmt(r: Seq[String]) =
      r.zip(widths).map { case (c, w) => c.padTo(w, ' ') }.mkString("| ", " | ", " |")
    (Seq(s"\n== ${t.title} ==", fmt(t.headers), widths.map("-" * _).mkString("|-", "-|-", "-|")) ++
      t.rows.map(fmt) ++ t.notes).mkString("", "\n", "\n")
  }

  private def time[A](body: => A): (A, Long) = {
    val t0 = System.nanoTime()
    val a = body
    (a, (System.nanoTime() - t0) / 1000000)
  }

  /** Runs `body` in a fresh directory under `java.io.tmpdir`, deleted with
    * everything in it when `body` returns or throws.
    */
  private def withTempDir[A](prefix: String)(body: Path => A): A = {
    val dir = Files.createTempDirectory(prefix)
    try body(dir)
    finally {
      val paths = Files.walk(dir)
      try paths.sorted(Comparator.reverseOrder[Path]()).forEach(p => Files.delete(p))
      finally paths.close()
    }
  }

  /** Signed relative error of a CC under a count; an empty CC counts 0 or 1. */
  private def relErr(cc: CC, got: Long): Double =
    if (cc.card == 0) { if (got == 0) 0.0 else 1.0 }
    else (got - cc.card).toDouble / cc.card

  private def scaled(ccs: Seq[CC], k: Long): Seq[CC] = ccs.map(c => c.copy(card = Math.multiplyExact(c.card, k)))

  /** DataSynth's grid LP of every TPC-DS-lite view, each at its base CC's
    * size or, without one, at `totals`.
    */
  private[exhibits] def dataSynthGrids(ccs: Seq[CC], totals: Map[String, Long]): Seq[DataSynth.ViewGrid] = {
    val byRel = ccs.groupBy(_.relation)
    TpcdsLite.schema.relations.map { r =>
      val rc = byRel.getOrElse(r.name, Nil)
      DataSynth.solveView(TpcdsLite.schema, r.name, rc,
        rc.find(_.pred.isTrue).map(_.card).getOrElse(totals(r.name)))
    }
  }

  private def cardDist(title: String, ccs: Seq[CC], queries: Int, paper: String): CardDist = {
    val buckets = ccs.groupBy(c => if (c.card <= 0) 0 else math.log10(c.card.toDouble).toInt)
      .toSeq.sortBy(_._1).map { case (b, cs) => (b, cs.size) }
    CardDist(ccs, buckets, Table(title, Seq("log10(card) bucket", "num CCs"),
      buckets.map { case (b, n) => Seq(s"10^$b..10^${b + 1}", n.toString) },
      Seq(s"total CCs: ${ccs.size} from $queries queries ($paper)")))
  }

  private def lpVariables(schema: SchemaDef, ccs: Seq[CC]): Seq[(String, Int, BigInt)] = {
    val byRel = ccs.groupBy(_.relation)
    schema.relations.map { r =>
      val rc = byRel.getOrElse(r.name, Nil)
      (r.name, LPFormulator.variableCount(schema, r.name, rc), GridPartition.variableCount(schema, rc))
    }
  }

  /** Figure 9: CC cardinality distribution of WLc (paper: 351 CCs, a few tuples to ~10⁹). */
  def fig09(in: Inputs): CardDist =
    cardDist("Figure 9 — CC cardinality distribution, WLc", in.wlcCcs, in.wlc.size,
      "paper: 351 CCs from 131 queries")

  /** Figure 10: % of WLs CCs within a relative error, Hydra vs DataSynth. */
  def fig10(in: Inputs): Accuracy = {
    val hydraErrs = in.wlsCcs.map(cc => relErr(cc, in.wlsHydra.ccCount(cc)))
    val dsErrs = in.wlsCcs.map(cc => relErr(cc, DataSynth.ccCount(in.wlsDataSynth, cc)))
    val cuts = Seq(0.0, 0.001, 0.01, 0.05, 0.1, 0.2, 0.4, 0.6, 1.0)
    def cdf(errs: Seq[Double]) =
      cuts.map(c => 100.0 * errs.count(e => math.abs(e) <= c) / errs.size)
    val h = cdf(hydraErrs); val d = cdf(dsErrs)
    Accuracy(hydraErrs, dsErrs, Table("Figure 10 — % of CCs within relative error (WLs)",
      Seq("relative error <=", "Hydra %", "DataSynth %"),
      cuts.indices.map(i => Seq(cuts(i).toString, f"${h(i)}%.1f", f"${d(i)}%.1f")),
      Seq(f"max |err|: hydra=${hydraErrs.map(math.abs).max}%.4f " +
        f"datasynth=${dsErrs.map(math.abs).max}%.4f; " +
        f"negative errors: hydra=${hydraErrs.count(_ < 0)} datasynth=${dsErrs.count(_ < 0)}")))
  }

  /** Figure 11: extra tuples inserted for referential integrity on WLs. */
  def fig11(in: Inputs): ExtraTuples = {
    val hydraX = in.wlsHydra.extraTuples.withDefaultValue(0L)
    val dsX = in.wlsDataSynth.extraTuples.withDefaultValue(0L)
    val rels = TpcdsLite.schema.relations.map(_.name)
    val hTotal = rels.map(hydraX).sum
    val dTotal = rels.map(dsX).sum
    ExtraTuples(hTotal, dTotal, in.wlsHydra.summary.relations.map(_.rows.size).sum,
      Table("Figure 11 — extra tuples for referential integrity (WLs)",
        Seq("relation", "Hydra", "DataSynth"),
        rels.map(r => Seq(r, hydraX(r).toString, dsX(r).toString)),
        Seq(s"totals: hydra=$hTotal datasynth=$dTotal (paper: ~10x gap, log scale)")))
  }

  /** Figure 12: LP variables per relation under WLc, regions vs grid cells. */
  def fig12(in: Inputs): LpVariables = {
    val rows = lpVariables(TpcdsLite.schema, in.wlcCcs)
    LpVariables(rows, Table("Figure 12 — LP variables, WLc (Hydra regions vs DataSynth grid)",
      Seq("relation", "Hydra vars", "DataSynth vars", "ratio"),
      rows.map { case (n, h, g) =>
        val ratio = if (h == 0) "-" else (BigDecimal(g) / h).toBigInt.toString
        Seq(n, h.toString, g.toString, ratio)
      }))
  }

  /** Figure 13: LP processing time on WLc and WLs. A DataSynth grid above
    * the solver cap is reported as a crash, the analogue of Z3 collapsing.
    */
  def fig13(in: Inputs): LpTime = {
    def hydraLp(ccs: Seq[CC]) = Hydra.buildSummary(TpcdsLite.schema, ccs, in.tpcdsTotals()).lpStats
    val (hydraC, hydraS) = (hydraLp(in.wlcCcs), hydraLp(in.wlsCcs))
    val dsC = dataSynthGrids(in.wlcCcs, in.tpcdsTotals())
    val dsS = dataSynthGrids(in.wlsCcs, in.tpcdsTotals())
    val (hC, hS) = (hydraC.map(_.solveMillis).sum, hydraS.map(_.solveMillis).sum)
    val (dsCms, dsCok) = (dsC.map(_.lpMillis).sum, dsC.forall(_.solvable))
    val (dsSms, dsSok) = (dsS.map(_.lpMillis).sum, dsS.forall(_.solvable))
    val inexact = Seq("WLc" -> hydraC, "WLs" -> hydraS).flatMap { case (w, stats) =>
      stats.filterNot(_.exact).map(s => s"$w ${s.relation}")
    }
    LpTime(hC, hS, dsCms, dsCok, dsSms, dsSok, inexact, Table("Figure 13 — LP processing time",
      Seq("workload", "DataSynth", "Hydra"),
      Seq(
        Seq("WLc", if (dsCok) s"$dsCms ms" else s"CRASH (grid > cap; $dsCms ms to detect)", s"$hC ms"),
        Seq("WLs", if (dsSok) s"$dsSms ms" else "CRASH", s"$hS ms")),
      Seq("paper: WLc DataSynth=crash Hydra=58s; WLs DataSynth=50min Hydra=13s")))
  }

  /** Figure 14: static materialization to parquet of the WLs database with
    * its CCs scaled ×1/×10/×100. Hydra: summary → dynamic generation →
    * parquet; DataSynth: grid LP → per-tuple sampling → RI repair → parquet.
    */
  def fig14(in: Inputs): Materialization = withTempDir("fig14") { dir =>
    val spark = in.spark
    val schema = TpcdsLite.schema
    val outRoot = dir.toString
    def hydraToParquet(ccs: Seq[CC], totals: Map[String, Long], out: String): Unit = {
      val p = s"$out.summary"
      DbSummary.save(Hydra.buildSummary(schema, ccs, totals).summary, p)
      TupleGenerator.materialize(spark, p, out)
    }
    // Warm up Spark's write path so the x1 measurement isn't dominated by
    // first-job initialization costs.
    hydraToParquet(in.wlsCcs, in.tpcdsTotals(), s"$outRoot/warmup")

    val rows = Seq(1L, 10L, 100L).map { k =>
      val ccs = scaled(in.wlsCcs, k)
      val totals = in.tpcdsTotals(k)
      val (_, hydraMs) = time(hydraToParquet(ccs, totals, s"$outRoot/hydra-$k"))
      val (_, dsMs) = time {
        val inst = DataSynth.instantiate(schema, dataSynthGrids(ccs, totals),
          ccs.groupBy(_.relation), seed = 7)
        DataSynth.toRelationDfs(spark, schema, inst).foreach { case (rel, df) =>
          df.write.mode("overwrite").parquet(s"$outRoot/ds-$k/$rel")
        }
      }
      (k, totals.values.sum, dsMs, hydraMs)
    }
    Materialization(rows, Table("Figure 14 — data materialization time",
      Seq("scale", "total rows", "DataSynth", "Hydra", "speedup"),
      rows.map { case (k, n, ds, h) =>
        Seq(s"x$k", n.toString, s"$ds ms", s"$h ms", f"${ds.toDouble / h}%.1f") },
      Seq("paper: 10GB 4h vs 2min; 100GB 42h vs 11min; 1000GB >1week vs 1.6h")))
  }

  /** Figure 15: aggregate scan of the five biggest relations of the ×100 WLs
    * summary — parquet on disk vs dynamic generation. Each scan is warmed once.
    */
  def fig15(in: Inputs): DataSupply = withTempDir("fig15") { dir =>
    val spark = in.spark
    val res = Hydra.buildSummary(TpcdsLite.schema, scaled(in.wlsCcs, 100), in.tpcdsTotals(100))
    val sumPath = dir.resolve("wls-x100.summary").toString
    DbSummary.save(res.summary, sumPath)
    val outDir = dir.toString
    val rows = Seq("store_returns", "web_sales", "inventory", "catalog_sales", "store_sales").map { rel =>
      TupleGenerator.dataFrame(spark, sumPath, rel).write.mode("overwrite").parquet(s"$outDir/$rel")
      val aggCol = TpcdsLite.schema.byName(rel).attrNames.head
      def warmScanMs(d: => DataFrame): Long = {
        d.agg(count(lit(1)), sum(aggCol)).collect()
        time(d.agg(count(lit(1)), sum(aggCol)).collect())._2
      }
      (rel, res.summary.byName(rel).total, warmScanMs(spark.read.parquet(s"$outDir/$rel")),
        warmScanMs(TupleGenerator.dataFrame(spark, sumPath, rel)))
    }
    DataSupply(rows, Table("Figure 15 — data supply times (aggregate scan)",
      Seq("relation", "rows", "disk (parquet)", "dynamic (summary)"),
      rows.map { case (r, n, d, g) => Seq(r, n.toString, s"$d ms", s"$g ms") },
      Seq("paper (100GB): e.g. store_sales 168s disk vs 87s dynamic — " +
        "dynamic competitive or faster")))
  }

  /** §7.4: summary construction with the WLs CCs scaled ×1 to ×10¹², then a
    * 10⁶-tuple slice from the middle of the largest store_sales.
    */
  def scale(in: Inputs): ScaleFree = {
    val rows = Seq(1L, 1000L, 1000000000L, 1000000000000L).map { k =>
      val (res, ms) = time(Hydra.buildSummary(TpcdsLite.schema, scaled(in.wlsCcs, k), in.tpcdsTotals(k)))
      (k, res.summary.relations.map(_.total).sum * 40, ms, res) // ≈40 B/row
    }
    val huge = rows.last._4.summary
    val n = huge.byName("store_sales").total
    val (cnt, sliceMs) = withTempDir("exa") { dir =>
      val p = dir.resolve("exa.summary").toString
      DbSummary.save(huge, p)
      time(TupleGenerator.dataFrame(in.spark, p, "store_sales", startPk = n / 2, endPk = n / 2 + 1000000).count())
    }
    ScaleFree(rows, cnt, sliceMs, Table("§7.4 — summary construction vs modeled database scale",
      Seq("scale", "≈data bytes", "summary build (ms)", "summary rows"),
      rows.map { case (k, b, ms, r) =>
        Seq(s"x$k", f"${b.toDouble}%.3g", ms.toString, r.summary.relations.map(_.rows.size).sum.toString) },
      Seq("paper: exabyte-scale summary in <2 min; construction is scale-free",
        s"slice of 1e6 tuples from the middle of ~$n rows generated in $sliceMs ms")))
  }

  /** Figure 16: CC cardinality distribution of JOB (paper: 523 CCs). */
  def fig16(in: Inputs): CardDist =
    cardDist("Figure 16 — CC cardinality distribution, JOB", in.jobCcs, in.job.size,
      "paper: 523 CCs from 260 queries")

  /** Figure 17: LP variables per JOB view, and the fidelity of the JOB
    * summary (paper: summary in ~20 s, every CC within 2 %).
    */
  def fig17(in: Inputs): JobFidelity = {
    val vars = lpVariables(JobLite.schema, in.jobCcs)
    val (res, ms) = time(Hydra.buildSummary(JobLite.schema, in.jobCcs, JobLite.rowCounts(in.sf)))
    val errs = in.jobCcs.map(cc => math.abs(relErr(cc, res.ccCount(cc))))
    val sorted = errs.sorted
    JobFidelity(vars, ms, errs, Table("Figure 17 — LP variables per view, JOB (Hydra vs grid)",
      Seq("relation", "Hydra vars", "DataSynth vars"),
      vars.map { case (n, h, g) => Seq(n, h.toString, g.toString) },
      Seq(f"summary built in $ms ms; max rel err=${errs.max}%.4f " +
        f"p95=${sorted((0.95 * (errs.size - 1)).toInt)}%.4f (paper: ~20 s, all CCs within 2%%)")))
  }

  /** The vendor's artifact: the WLs summary, saved to `path`. */
  def summary(in: Inputs, path: String): SavedSummary = {
    val res = in.wlsHydra
    DbSummary.save(res.summary, path)
    SavedSummary(Table(s"WLs summary written to $path",
      Seq("summary rows", "tuples", "LP", "summary"),
      Seq(Seq(res.summary.relations.map(_.rows.size).sum.toString,
        res.summary.relations.map(_.total).sum.toString, s"${res.lpMillis} ms", s"${res.summaryMillis} ms"))))
  }

  private def exhibits(path: String): Map[String, Inputs => Exhibit] = Map(
    "fig09" -> fig09 _, "fig10" -> fig10 _, "fig11" -> fig11 _, "fig12" -> fig12 _,
    "fig13" -> fig13 _, "fig14" -> fig14 _, "fig15" -> fig15 _, "fig16" -> fig16 _,
    "fig17" -> fig17 _, "scale" -> scale _, "summary" -> (summary(_: Inputs, path)))

  def main(args: Array[String]): Unit = {
    val all = exhibits(args.lift(2).getOrElse("hydra.summary"))
    val exhibit = args.headOption.flatMap(all.get).getOrElse(
      sys.error(s"usage: Exhibits <${all.keys.toSeq.sorted.mkString("|")}> [sf] [path]"))
    val spark = SparkSession.builder()
      .master(sys.env.getOrElse("SPARK_MASTER", "local[*]"))
      .appName(s"exhibit-${args.head}")
      .config("spark.sql.autoBroadcastJoinThreshold", -1)
      .getOrCreate()
    spark.sparkContext.setLogLevel("WARN")
    try {
      val in = Inputs(spark, args.lift(1).map(_.toDouble).getOrElse(DefaultSf))
      println(render(exhibit(in).table))
    } finally spark.stop()
  }
}
