package hydrabench

import org.scalatest.funsuite.AnyFunSuite
import repro.core.{CC, Conjunct, Dnf}
import repro.hydra.{DbSummary, Hydra, ViewTable}
import repro.hydra.LPFormulator.ViewLpStats

class LedgerSpec extends AnyFunSuite {
  // One view: 5 tuples with a = 1, 3 with a = 2; relation r got 1 RI extra.
  private def result(exact: Boolean) = Hydra.Result(
    viewTables = Map("r" -> ViewTable("r", Vector("a"), Vector((Vector(1.0), 5L), (Vector(2.0), 3L)))),
    summary = DbSummary(Vector.empty),
    lpStats = Vector(ViewLpStats("r", 1, 2, 2, 0, exact)),
    extraTuples = Map("r" -> 1L),
    lpMillis = 0, summaryMillis = 0)
  private val aIsOne = Dnf.of(Conjunct.range("a", 1, 1.5))

  test("an operation that passes its check is attempted and not failed") {
    val l = new Ledger
    val out = l.attempt("ok")(41 + 1)(v => if (v == 42) Nil else Seq("wrong"))
    assert(out.map(_._1).contains(42))
    assert(l.attempted == 1 && l.failed == 0 && l.okPct == 100.0)
  }

  test("a throwing operation or a throwing check counts as failed") {
    val l = new Ledger
    assert(l.attempt("boom")((throw new RuntimeException("x")): Int)(_ => Nil).isEmpty)
    l.attempt("bad check")(1)(_ => throw new RuntimeException("y"))
    assert(l.attempted == 2 && l.failed == 2 && l.okPct == 0.0)
  }

  test("a wrong-count result is counted as failed") {
    val l = new Ledger
    l.attempt("count")(7L)(got => if (got == 8L) Nil else Seq(s"got $got"))
    assert(l.failed == 1)
    assert(l.failures.head.contains("got 7"))
  }

  test("fidelity: counts within [card, card + RI extras] pass, others fail") {
    val res = result(exact = true)
    assert(Fidelity.problems(res, Seq(CC("r", aIsOne, 5), CC("r", aIsOne, 4), CC("r", Dnf.True, 8))).isEmpty)
    assert(Fidelity.problems(res, Seq(CC("r", aIsOne, 6))).size == 1) // summary has fewer
    assert(Fidelity.problems(res, Seq(CC("r", aIsOne, 3))).size == 1) // more than the slack
  }

  test("a forced inexact LP is counted as a failed operation") {
    val l = new Ledger
    l.attempt("inexact build")(result(exact = false))(res => Fidelity.problems(res, Seq(CC("r", aIsOne, 5))))
    assert(l.attempted == 1 && l.failed == 1)
    assert(l.failures.head.contains("inexact"))
  }

  test("exactness share and largest relative error") {
    val pairs = Seq((10L, 10L), (10L, 12L), (0L, 1L), (4L, 4L))
    assert(Fidelity.exactPct(pairs) == 50.0)
    assert(Fidelity.maxRelErr(pairs) == 1.0)
    assert(Fidelity.maxRelErr(Nil) == 0.0)
  }

  test("a CC list that differs from the reference is reported") {
    val a = Seq(CC("r", Dnf.True, 8), CC("r", aIsOne, 5))
    assert(Fidelity.sameCcs(a, a).isEmpty)
    assert(Fidelity.sameCcs(a, a.updated(1, CC("r", aIsOne, 4))).head.contains("card 5, reference 4"))
    assert(Fidelity.sameCcs(a.take(1), a).head.contains("not extracted"))
    assert(Fidelity.sameCcs(a, a.take(1)).head.contains("not in the reference"))
    assert(Fidelity.sameCcs(a :+ a(1), a).head.contains("duplicate"))
  }

  test("the same CCs in another order, conjuncts included, match the reference") {
    val aIsTwo = Conjunct.range("a", 2, 2.5)
    val either = CC("r", Dnf(Seq(aIsOne.conjuncts.head, aIsTwo)), 8)
    val swapped = either.copy(pred = Dnf(Seq(aIsTwo, aIsOne.conjuncts.head)))
    assert(Fidelity.sameCcs(Seq(either, CC("r", Dnf.True, 8)), Seq(CC("r", Dnf.True, 8), swapped)).isEmpty)
  }
}
