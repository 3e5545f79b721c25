package hydrabench

import scala.collection.mutable
import repro.core.{CC, SchemaDef, ViewGraph}
import repro.hydra.{LPFormulator, RegionPartition, SummaryGenerator}
import repro.hydra.LPFormulator.ViewLpResult
import repro.lp.Simplex

/** `Hydra.buildSummary` re-composed from its public layer calls, with a
  * span around each (L2 sub-views, L3 regions, L4 alignment, L5 LP build,
  * L6 root relaxation, L7 integral solve, L8 summary generation) and the
  * work counts of each layer. The root relaxation is solved once more on
  * its own so that L6 and L7 can be told apart: `lp.bnb.s` is each view's
  * `solveIntegral` time minus its root `Simplex.feasible` time.
  *
  * The caller checks that the summary this produces is byte-identical to
  * `Hydra.buildSummary`'s, so the per-layer numbers keep measuring the
  * program the timed runs measure.
  */
object TracedBuild {

  /** Work counts per layer, summed over views. */
  final class Counts {
    val n: mutable.Map[String, Double] = mutable.LinkedHashMap[String, Double]().withDefaultValue(0.0)
    def add(k: String, v: Double): Unit = n(k) = n(k) + v
    def max(k: String, v: Double): Unit = n(k) = math.max(n(k), v)
  }

  def build(
      schema: SchemaDef,
      ccs: Seq[CC],
      fallbackTotals: Map[String, Long],
      tracer: Tracer,
      counts: Counts,
  ): SummaryGenerator.Result = {
    val byRel = ccs.groupBy(_.relation)
    val lps: Seq[ViewLpResult] = schema.relations.map { r =>
      val relCcs = byRel.getOrElse(r.name, Nil)
      val total = relCcs.find(_.pred.isTrue).map(_.card).orElse(fallbackTotals.get(r.name))
        .getOrElse(throw new IllegalArgumentException(s"no size known for relation ${r.name}"))
      val nonTrue = relCcs.filterNot(_.pred.isTrue)

      val subs = tracer.span("core.viewgraph")(ViewGraph.subViews(nonTrue))
      counts.add("core.viewgraph.subviews", subs.size)
      subs.foreach(s => counts.max("core.viewgraph.max_width", s.attrs.size))

      val parts = subs.map { s =>
        val dnfs = nonTrue.filter(_.pred.attrs.subsetOf(s.attrSet)).map(_.pred)
        tracer.span("hydra.region")(
          RegionPartition.optimalPartition(LPFormulator.domainOf(schema, s.attrs), s.attrs, dnfs))
      }
      counts.add("hydra.region.regions", parts.map(_.size).sum)
      counts.add("hydra.region.boxes", parts.map(_.map(_.boxes.size).sum).sum)

      val aligned = tracer.span("hydra.align")(LPFormulator.alignSharedBoundaries(schema, subs, parts))
      counts.add("hydra.align.lp_vars", aligned.map(_.size).sum)
      counts.add("hydra.align.boxes", aligned.map(_.map(_.boxes.size).sum).sum)

      val lp = tracer.span("hydra.lpbuild")(LPFormulator.build(schema, r.name, relCcs, total, subs, aligned))
      counts.add("hydra.lpbuild.eqs", lp.eqs.size)
      counts.add("hydra.lpbuild.nonzeros", lp.eqs.map(_.coeffs.size).sum)

      // solveIntegral skips the solver for a view with no sub-views; so does L6.
      val t0 = System.nanoTime()
      val root = if (lp.subs.isEmpty) None else tracer.span("lp.relax")(Simplex.feasible(lp.nVars, lp.eqs))
      val relaxNs = System.nanoTime() - t0
      if (root.exists(_.forall(_.isWhole))) counts.add("lp.relax.root_integral_views", 1)

      val t1 = System.nanoTime()
      val res = tracer.span("lp.bnb")(LPFormulator.solveIntegral(lp))
      val bnbSecs = math.max(0L, System.nanoTime() - t1 - relaxNs) / 1e9
      counts.add("lp.bnb.s", bnbSecs)
      counts.max("lp.bnb.max_view_s", bnbSecs)
      if (!res.stats.exact) counts.add("lp.bnb.inexact_views", 1)
      res
    }
    val gen = tracer.span("hydra.summarygen")(SummaryGenerator.generate(schema, lps))
    counts.add("hydra.summarygen.rows", gen.summary.relations.map(_.rows.size).sum)
    counts.add("hydra.summarygen.ri_extras", gen.extraTuples.values.sum)
    gen
  }
}
