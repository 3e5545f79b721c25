package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exhibits.Exhibits

/** Figure 13: LP processing time.
  * Paper:   WLc — DataSynth crash, Hydra 58 s;  WLs — DataSynth 50 min,
  * Hydra 13 s. Here "crash" is reproduced as the grid LP exceeding the
  * solver-capacity cap (the analogue of Z3 collapsing under billions of
  * variables), and absolute times are scaled to the smaller workloads.
  */
class Fig13LPTimeBench extends AnyFunSuite {
  test("Figure 13: LP processing time (WLc and WLs)") {
    val r = Exhibits.fig13(BenchEnv.inputs)
    BenchEnv.show(r.table)
    assert(r.inexactViews.isEmpty, s"${r.inexactViews.mkString(", ")}: inexact Hydra LP")

    // Shape: DataSynth cannot solve WLc; both solve WLs with Hydra faster.
    assert(!r.dsWlcSolvable, "DataSynth grid LP should exceed solver capacity on WLc")
    assert(r.dsWlsSolvable, "DataSynth grid LP should be solvable on WLs")
    assert(r.hydraWlcMs < 300000, s"Hydra WLc LP took ${r.hydraWlcMs} ms")
    assert(r.hydraWlsMs <= math.max(r.dsWlsMs, 50L) * 20,
      s"Hydra WLs (${r.hydraWlsMs} ms) should not be dramatically slower than DataSynth (${r.dsWlsMs} ms)")
  }
}
