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
