package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exhibits.Exhibits

/** Figure 10: percentage of CCs within a given (absolute) relative error.
  * Paper: Hydra ≈90 % of CCs at ~0 error, all within 10 %, positive-only;
  * DataSynth ≈80 % near 0 but up to 60 % error, with ~1/3 negative.
  */
class Fig10VolumetricSimilarityBench extends AnyFunSuite {
  test("Figure 10: quality of volumetric similarity (WLs)") {
    val ccs = BenchEnv.inputs.wlsCcs
    val r = Exhibits.fig10(BenchEnv.inputs)
    BenchEnv.show(r.table)
    val (hydraErrs, dsErrs) = (r.hydraErrs, r.dsErrs)

    // Shape assertions from §7.1. Absolute percentages are scale-dependent:
    // at a 100 GB client, RI extras are negligible relative to CC counts;
    // at SF 0.01 a one-tuple addition can be a large *relative* error on a
    // tiny CC. The orderings the paper reports must still hold.
    def p(errs: Seq[Double], q: Double): Double = {
      val s = errs.map(math.abs).sorted
      s((q * (s.size - 1)).toInt)
    }
    assert(hydraErrs.count(_ == 0.0) >= (0.55 * ccs.size).toInt,
      "Hydra should satisfy most CCs exactly")
    assert(hydraErrs.count(_ == 0.0) >= 2 * dsErrs.count(_ == 0.0),
      "Hydra should be exact far more often than DataSynth")
    assert(hydraErrs.forall(e => e >= 0), "Hydra errors must be positive-only")
    assert(p(hydraErrs, 0.90) <= 0.05, "Hydra p90 error should be tiny")
    assert(p(hydraErrs, 0.95) <= 0.25, "Hydra p95 error should be small")
    assert(dsErrs.map(math.abs).max >= hydraErrs.map(math.abs).max,
      "DataSynth worst error should exceed Hydra's")
    assert(p(dsErrs, 0.5) >= p(hydraErrs, 0.5), "DataSynth median error >= Hydra's")
    assert(dsErrs.exists(_ < 0), "DataSynth should show negative errors (sampling)")
  }
}

/** Figure 11: extra tuples inserted for referential integrity.
  * Paper: Hydra often an order of magnitude below DataSynth.
  */
class Fig11ExtraTuplesBench extends AnyFunSuite {
  test("Figure 11: extra tuples for referential integrity (WLs)") {
    val r = Exhibits.fig11(BenchEnv.inputs)
    BenchEnv.show(r.table)
    val (hTotal, dTotal) = (r.hydraTotal, r.dsTotal)
    assert(dTotal >= hTotal, "DataSynth should need at least as many extras")
    assert(dTotal >= 2 * math.max(hTotal, 1),
      s"DataSynth extras ($dTotal) should be a multiple of Hydra's ($hTotal)")
    // Hydra extras are data-scale-free: bounded by summary size, not rows.
    assert(hTotal <= r.summaryRows, s"hydra extras $hTotal exceed summary rows ${r.summaryRows}")
  }
}
