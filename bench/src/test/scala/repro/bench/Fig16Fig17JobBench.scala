package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exhibits.Exhibits

/** Figure 16: CC cardinality distribution for the JOB workload.
  * Paper: 523 CCs from 260 queries, highly varied cardinalities.
  */
class Fig16JobCardinalityBench extends AnyFunSuite {
  test("Figure 16: cardinality distribution of CCs in JOB") {
    val r = Exhibits.fig16(BenchEnv.inputs)
    BenchEnv.show(r.table)
    assert(r.ccs.size > 60)
    assert(r.buckets.size >= 4, "cardinalities should span several orders of magnitude")
  }
}

/** Figure 17: LP variables per view for JOB, plus the end-to-end fidelity
  * the paper reports (summary in ~20 s; all CCs within 2 % relative error).
  */
class Fig17JobVariablesBench extends AnyFunSuite {
  test("Figure 17: number of variables for JOB + end-to-end fidelity") {
    val r = Exhibits.fig17(BenchEnv.inputs)
    BenchEnv.show(r.table)
    val errs = r.errs
    val sorted = errs.sorted

    // Shape: every view solvable with region counts far below 100k (paper:
    // typically thousands, never exceeding 1e5), errors overwhelmingly tiny.
    r.vars.foreach { case (n, h, _) => assert(h < 100000, s"$n: $h vars") }
    assert(r.buildMs < 120000, s"JOB summary took ${r.buildMs} ms")
    assert(sorted((0.9 * (errs.size - 1)).toInt) <= 0.02,
      "p90 relative error should be within the paper's 2%")
    assert(errs.count(_ == 0.0) >= (0.6 * errs.size).toInt)
  }
}
