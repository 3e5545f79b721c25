package repro.hydra

import repro.core._
import repro.hydra.LPFormulator.{SubViewSolution, ViewLpResult}
import scala.collection.mutable

/** Deterministic post-LP processing (§5): align & merge sub-view solutions
  * into view solutions, repair referential integrity across views, and
  * extract relation summaries. The sub-view solutions arrive instantiated:
  * each region is already the point at its intervals' left boundaries
  * (§5.2), fixed when the LP solution is read.
  */
object SummaryGenerator {

  /** Rows of a (partial) view solution: a point over some attributes, and
    * the number of tuples carrying it.
    */
  private type Rows = Vector[(Vector[Double], Long)]

  /** Align & merge the RIP-ordered sub-view solutions into a single view
    * solution (§5.1). The merge starts from one row holding the view total
    * over no attributes. View attributes no sub-view constrains get their
    * domain minimum.
    */
  def viewSolution(schema: SchemaDef, lp: ViewLpResult): ViewTable = {
    val allAttrs = schema.viewAttrs(lp.relation).toVector
    if (lp.total <= 0) return ViewTable(lp.relation, allAttrs, Vector.empty)

    val start = (Vector.empty[String], Vector((Vector.empty[Double], lp.total)))
    val (attrs, rows) = lp.solutions.foldLeft(start) { case ((a, r), s) => mergeNext(schema, a, r, s) }
    val cols = allAttrs.map(a => (attrs.indexOf(a), schema.attrByName(a).lo))
    ViewTable(lp.relation, allAttrs, rows.map { case (p, c) =>
      (cols.map { case (i, lo) => if (i >= 0) p(i) else lo }, c)
    })
  }

  /** One align-and-merge step (Algorithm 3 + §5.1.2–5.1.3): group both sides
    * on their shared coordinates, split rows so counts pair up, then join
    * positionally. With an exact LP solution the per-value totals match by
    * the consistency constraints; leftovers (inexact fallback only) are
    * padded with the other side's last row, or with domain minima where
    * the other side has no row with those shared values.
    */
  private def mergeNext(
      schema: SchemaDef,
      curAttrs: Vector[String],
      curRows: Rows,
      s: SubViewSolution,
  ): (Vector[String], Rows) = {
    val sAttrs = s.sub.attrs
    val shared = curAttrs.filter(sAttrs.contains)
    val newAttrs = sAttrs.filterNot(shared.contains)
    val curSharedIdx = shared.map(curAttrs.indexOf)
    val sSharedIdx = shared.map(sAttrs.indexOf)
    val sNewIdx = newAttrs.map(sAttrs.indexOf)
    def minima(attrs: Vector[String]): Vector[Double] = attrs.map(schema.attrByName(_).lo)

    val ga = curRows.groupBy { case (p, _) => curSharedIdx.map(p) }
    val gb = s.rows.groupBy { case (p, _) => sSharedIdx.map(p) }
    val out = Vector.newBuilder[(Vector[Double], Long)]

    for (sig <- (ga.keySet ++ gb.keySet).toVector.sortBy(_.mkString(","))) {
      val as = ga.getOrElse(sig, Vector.empty)
      val bs = gb.getOrElse(sig, Vector.empty)
      var i = 0; var j = 0
      var remA = if (as.nonEmpty) as(0)._2 else 0L
      var remB = if (bs.nonEmpty) bs(0)._2 else 0L
      while (i < as.size && j < bs.size) {
        val take = math.min(remA, remB)
        if (take > 0)
          out += ((as(i)._1 ++ sNewIdx.map(bs(j)._1), take))
        remA -= take; remB -= take
        if (remA == 0) { i += 1; if (i < as.size) remA = as(i)._2 }
        if (remB == 0) { j += 1; if (j < bs.size) remB = bs(j)._2 }
      }
      // Inexact-LP fallbacks. Unpaired current rows take the sub-view's last
      // row, or domain minima; unpaired sub-view rows are dropped unless no
      // current row has these shared values, when the current attributes
      // take domain minima around the shared ones.
      val ext = if (bs.nonEmpty) sNewIdx.map(bs.last._1) else minima(newAttrs)
      while (i < as.size) {
        if (remA > 0) out += ((as(i)._1 ++ ext, remA))
        i += 1; if (i < as.size) remA = as(i)._2
      }
      if (as.isEmpty) {
        val left = curSharedIdx.zip(sig).foldLeft(minima(curAttrs)) { case (p, (ci, v)) => p.updated(ci, v) }
        bs.foreach { case (p, c) => if (c > 0) out += ((left ++ sNewIdx.map(p), c)) }
      }
    }
    (curAttrs ++ newAttrs, out.result())
  }

  final case class Result(
      viewTables: Map[String, ViewTable],
      summary: DbSummary,
      extraTuples: Map[String, Long],
  )

  /** Full §5 pipeline: view solutions → cross-view referential-integrity
    * repair (topological, dependents first) → relation summaries with FK
    * values assigned by cumulative PK offsets into the referenced view.
    */
  def generate(schema: SchemaDef, lps: Seq[ViewLpResult]): Result = {
    val views = mutable.LinkedHashMap[String, mutable.ArrayBuffer[(Vector[Double], Long)]]()
    val viewAttrs = mutable.Map[String, Vector[String]]()
    lps.foreach { lp =>
      val vt = viewSolution(schema, lp)
      views(lp.relation) = mutable.ArrayBuffer.from(vt.rows)
      viewAttrs(lp.relation) = vt.attrs
    }
    val extras = mutable.Map[String, Long]().withDefaultValue(0L)

    // Make each view consistent with the views it borrows attributes from.
    for (rel <- schema.dependentsFirst if views.contains(rel);
         fk <- schema.byName(rel).fks) {
      val t = fk.target
      require(views.contains(t), s"view $rel depends on missing view $t")
      val tAttrs = viewAttrs(t)
      val proj = tAttrs.map(viewAttrs(rel).indexOf)
      val existing = mutable.Set[Vector[Double]]() ++= views(t).map(_._1)
      views(rel).foreach { case (vals, _) =>
        val combo = proj.map(vals)
        if (!existing.contains(combo)) {
          views(t) += ((combo, 1L))
          existing += combo
          extras(t) += 1L
        }
      }
    }

    // Extract relation summaries (§5.4).
    val startsOf: Map[String, Map[Vector[Double], Long]] = views.map { case (rel, rows) =>
      var cum = 0L
      val m = mutable.Map[Vector[Double], Long]()
      // Keep the FIRST matching block ("cumulative sum till v is reached").
      rows.foreach { case (vals, c) => if (!m.contains(vals)) m(vals) = cum; cum = Math.addExact(cum, c) }
      rel -> m.toMap
    }.toMap

    val summaries = views.map { case (rel, rows) =>
      val r = schema.byName(rel)
      val ownIdx = r.attrNames.toVector.map(viewAttrs(rel).indexOf)
      val fkProj = r.fks.toVector.map { fk =>
        (fk.target, viewAttrs(fk.target).map(viewAttrs(rel).indexOf))
      }
      val outRows = rows.toVector.map { case (vals, c) =>
        val own = ownIdx.map(vals)
        val fkVals = fkProj.map { case (t, proj) =>
          val combo = proj.map(vals)
          startsOf(t).getOrElse(combo,
            throw new IllegalStateException(s"RI repair missed $combo for $rel → $t")) + 1L
        }
        (own, fkVals, c)
      }
      RelationSummary(rel, r.pkCol, r.attrNames.toVector, r.fks.toVector.map(_.column), outRows)
    }.toVector

    val viewTables = views.map { case (rel, rows) =>
      rel -> ViewTable(rel, viewAttrs(rel), rows.toVector)
    }.toMap
    Result(viewTables, DbSummary(summaries), extras.toMap)
  }
}
