package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exhibits.Exhibits

/** Figure 14: static data materialization time, post-LP.
  * Paper (10 / 100 / 1000 GB): DataSynth 4 h / 42 h / >1 week,
  * Hydra 2 min / 11 min / 1.6 h. We scale the WLs CC set by ×1/×10/×100
  * (the database-size axis) and materialize both ways to parquet. Hydra is
  * data-scale-light (summary + parallel generate-and-write); DataSynth
  * instantiates and repairs every tuple before writing.
  */
class Fig14MaterializationBench extends AnyFunSuite {
  test("Figure 14: data materialization time") {
    val r = Exhibits.fig14(BenchEnv.inputs)
    BenchEnv.show(r.table)
    val rows = r.rows

    // Shape: Hydra materializes faster at every scale, and the gap widens
    // (DataSynth cost is per-tuple on the driver; Hydra is summary + write).
    rows.foreach { case (k, _, ds, h) =>
      assert(h < ds, s"x$k: Hydra ($h ms) should beat DataSynth ($ds ms)")
    }
    val gapSmall = rows.head._3.toDouble / rows.head._4
    val gapBig = rows.last._3.toDouble / rows.last._4
    assert(gapBig > gapSmall, "speedup should grow with scale")
  }
}
