package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.exhibits.Exhibits

/** Figure 15: data supply time — sequential disk scan of the materialized
  * relation vs on-the-fly generation by the Tuple Generator, for the five
  * biggest relations. Paper: dynamic generation is competitive and usually
  * faster (store_sales 168 s disk vs 87 s dynamic, etc.).
  */
class Fig15DataSupplyBench extends AnyFunSuite {
  test("Figure 15: data supply times (disk scan vs dynamic generation)") {
    val r = Exhibits.fig15(BenchEnv.inputs)
    BenchEnv.show(r.table)
    // Shape: dynamic generation is practical — within 3x of a parquet scan
    // on every relation (paper: typically faster than a disk scan of
    // uncompressed Postgres pages; parquet is a much stronger baseline).
    r.rows.foreach { case (rel, _, d, g) =>
      assert(g <= d * 3 + 2000, s"$rel: dynamic $g ms vs disk $d ms — not practical")
    }
  }
}

/** §7.4: scalability to Big Data volumes — summary construction time is
  * independent of the database scale. Paper: an exabyte-scale database is
  * summarized in under 2 minutes, after which queries can run immediately.
  */
class ExabyteScaleBench extends AnyFunSuite {
  test("§7.4: summary generation time is independent of data scale") {
    val r = Exhibits.scale(BenchEnv.inputs)
    BenchEnv.show(r.table)
    val times = r.rows.map(_._3)
    assert(times.last < math.max(4 * times.head, times.head + 30000),
      s"summary time should not grow with scale: $times")
    assert(r.rows.last._2 > 1e15, "largest modeled database should be petabyte/exabyte class")

    // Dynamic generation still works at the huge scale: a million-row slice
    // out of the middle of the (≈10^16-row) store_sales relation.
    assert(r.sliceRows == 1000000L)
    assert(r.sliceMs < 60000, s"slice generation took ${r.sliceMs} ms")
  }
}
