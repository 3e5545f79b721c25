package repro.exhibits

import repro.SparkSpec
import repro.job.JobLite
import repro.tpcds.TpcdsLite

/** The exhibit code on a small client (SF 0.002): each table keeps the title
  * and columns the benches print, with one row per relation where the
  * exhibit is per relation.
  */
class ExhibitsSpec extends SparkSpec {
  private lazy val in = Inputs(spark, 0.002)

  private def assertTable(t: Table, title: String, headers: Seq[String]): Unit = {
    assert(t.title == title)
    assert(t.headers == headers)
    t.rows.foreach(r => assert(r.size == headers.size, s"row $r"))
    assert(Exhibits.render(t).linesIterator.contains(s"== $title =="))
  }

  private def assertHistogram(r: CardDist, title: String): Unit = {
    assertTable(r.table, title, Seq("log10(card) bucket", "num CCs"))
    assert(r.table.rows.size == r.buckets.size)
    assert(r.buckets.map(_._2).sum == r.ccs.size)
  }

  /** Names in `java.io.tmpdir` that start with `prefix`. */
  private def tempEntries(prefix: String): Set[String] =
    new java.io.File(System.getProperty("java.io.tmpdir")).list().toSet.filter(_.startsWith(prefix))

  test("scale: one row per scale, a 10^6-row slice, and no temp files left") {
    val before = tempEntries("exa")
    val r = Exhibits.scale(in)
    assertTable(r.table, "§7.4 — summary construction vs modeled database scale",
      Seq("scale", "≈data bytes", "summary build (ms)", "summary rows"))
    assert(r.rows.map(_._1) == Seq(1L, 1000L, 1000000000L, 1000000000000L))
    assert(r.sliceRows == 1000000L)
    assert(tempEntries("exa") -- before == Set.empty)
  }

  test("fig15: one row per scanned relation, and no temp files left") {
    val before = tempEntries("fig15")
    val r = Exhibits.fig15(in)
    assertTable(r.table, "Figure 15 — data supply times (aggregate scan)",
      Seq("relation", "rows", "disk (parquet)", "dynamic (summary)"))
    assert(r.rows.map(_._1) == Seq("store_returns", "web_sales", "inventory", "catalog_sales", "store_sales"))
    assert(tempEntries("fig15") -- before == Set.empty)
  }

  test("fig09: one row per cardinality decade of the WLc CCs") {
    assertHistogram(Exhibits.fig09(in), "Figure 9 — CC cardinality distribution, WLc")
  }

  test("fig16: one row per cardinality decade of the JOB CCs") {
    assertHistogram(Exhibits.fig16(in), "Figure 16 — CC cardinality distribution, JOB")
  }

  test("fig12: one row of LP variables per TPC-DS-lite relation") {
    val r = Exhibits.fig12(in)
    assertTable(r.table, "Figure 12 — LP variables, WLc (Hydra regions vs DataSynth grid)",
      Seq("relation", "Hydra vars", "DataSynth vars", "ratio"))
    assert(r.table.rows.map(_.head) == TpcdsLite.schema.relations.map(_.name))
  }

  test("fig17: one row of LP variables per JOB-lite view, and an error per CC") {
    val r = Exhibits.fig17(in)
    assertTable(r.table, "Figure 17 — LP variables per view, JOB (Hydra vs grid)",
      Seq("relation", "Hydra vars", "DataSynth vars"))
    assert(r.table.rows.map(_.head) == JobLite.schema.relations.map(_.name))
    assert(r.errs.size == in.jobCcs.size && r.errs.forall(_ >= 0))
  }
}
