package hydrabench

import org.scalatest.funsuite.AnyFunSuite

class TraceSpec extends AnyFunSuite {
  private def span(id: Int, parent: Int, start: Long, end: Long, name: String = "x") =
    Span(id, parent, name, start, end, "t")

  test("union of intervals counts overlaps once and skips empty ones") {
    assert(Trace.unionNs(Nil) == 0)
    assert(Trace.unionNs(Seq((0L, 10L), (5L, 15L), (20L, 30L), (25L, 25L))) == 25)
    assert(Trace.unionNs(Seq((20L, 30L), (0L, 100L))) == 100)
  }

  test("self time subtracts nested children, not grandchildren twice") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 40), span(2, 1, 15, 35), span(3, 0, 50, 60))
    val self = Trace.selfNs(spans)
    assert(self(0) == 100 - 30 - 10)
    assert(self(1) == 30 - 20)
    assert(self(2) == 20)
    assert(self(3) == 10)
  }

  test("self time counts overlapping children once and clips children outside the parent") {
    val spans = Seq(span(0, -1, 0, 100), span(1, 0, 10, 50), span(2, 0, 30, 70), span(3, 0, 90, 130))
    assert(Trace.selfNs(spans)(0) == 100 - 60 - 10)
  }

  test("self time by name sums every span of a layer") {
    val spans = Seq(span(0, -1, 0, 1000000000L, "op"), span(1, 0, 0, 250000000L, "lp"),
                    span(2, 0, 500000000L, 750000000L, "lp"))
    val by = Trace.selfSecondsByName(spans)
    assert(math.abs(by("lp") - 0.5) < 1e-12)
    assert(math.abs(by("op") - 0.5) < 1e-12)
  }

  test("the tracer records parents and closes spans when the body throws") {
    val t = new Tracer("r")
    t.span("outer") {
      t.span("inner")(())
      intercept[IllegalStateException](t.span("failing")(throw new IllegalStateException("x")))
    }
    val byName = t.spans.map(s => s.name -> s).toMap
    assert(byName("inner").parent == byName("outer").id)
    assert(byName("failing").parent == byName("outer").id)
    assert(byName("outer").parent == -1)
    assert(t.spans.forall(_.run == "r"))
  }
}
