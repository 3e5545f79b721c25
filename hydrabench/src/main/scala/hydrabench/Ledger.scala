package hydrabench

import scala.collection.mutable
import scala.util.control.NonFatal
import repro.core.CC
import repro.hydra.Hydra

/** Counts every operation the benchmark attempts and every one that fails.
  * An operation fails when it throws or when its output check reports a
  * problem; failures are kept with their reasons and never dropped.
  */
final class Ledger {
  var attempted = 0
  val failures: mutable.ArrayBuffer[String] = mutable.ArrayBuffer[String]()
  def failed: Int = failures.size
  def okPct: Double = if (attempted == 0) 0.0 else 100.0 * (attempted - failed) / attempted

  /** Run `body` as one operation, timing it alone; then run `check` on its
    * output, outside the timing. Returns the output and the seconds taken,
    * or None when the body threw.
    */
  def attempt[A](what: String)(body: => A)(check: A => Seq[String]): Option[(A, Double)] = {
    attempted += 1
    val t0 = System.nanoTime()
    val out = try Right(body) catch {
      case NonFatal(e)             => Left(e)
      case e: OutOfMemoryError     => Left(e)
    }
    val secs = (System.nanoTime() - t0) / 1e9
    Console.err.println(f"[op] $what%-40s $secs%.3f s")
    out match {
      case Left(e) =>
        failures += s"$what: threw $e"
        None
      case Right(a) =>
        val problems = try check(a) catch { case NonFatal(e) => Seq(s"check threw $e") }
        if (problems.nonEmpty)
          failures += s"$what: ${problems.size} problem(s), first: ${problems.head}"
        Some((a, secs))
    }
  }
}

/** The README fidelity contract as output checks: every view LP exact, and
  * every CC's summary-side count within `[card, card + RI extras of its
  * relation]`.
  */
object Fidelity {

  def slack(res: Hydra.Result, cc: CC): Long = res.extraTuples.getOrElse(cc.relation, 0L)

  def withinSlack(got: Long, card: Long, slack: Long): Boolean =
    got >= card && got <= card + slack

  def problems(res: Hydra.Result, ccs: Seq[CC]): Seq[String] =
    res.lpStats.filterNot(_.exact).map(s => s"view ${s.relation}: LP solution inexact") ++
      ccs.flatMap { cc =>
        val got = res.ccCount(cc)
        if (withinSlack(got, cc.card, slack(res, cc))) None
        else Some(s"CC ${cc.relation} ${cc.pred.toSql}: want ${cc.card} (+${slack(res, cc)} RI), summary has $got")
      }

  /** Share of CCs met exactly, and the largest relative error, over
    * (wanted, got) pairs.
    */
  def exactPct(pairs: Seq[(Long, Long)]): Double =
    if (pairs.isEmpty) 100.0 else 100.0 * pairs.count(p => p._1 == p._2) / pairs.size

  def maxRelErr(pairs: Seq[(Long, Long)]): Double =
    pairs.map { case (want, got) => math.abs(got - want).toDouble / math.max(want, 1L) }
      .foldLeft(0.0)(math.max)

  def pairs(res: Hydra.Result, ccs: Seq[CC]): Seq[(Long, Long)] = ccs.map(cc => (cc.card, res.ccCount(cc)))

  /** Differences between the program's CC extraction and the reference,
    * compared as sets: the same constraints (by `CC.dedupKey`) with the same
    * cardinalities, in any order.
    */
  def sameCcs(got: Seq[CC], want: Seq[CC]): Seq[String] = {
    def byKey(ccs: Seq[CC]) = ccs.map(c => c.dedupKey -> c.card).toMap
    val (g, w) = (byKey(got), byKey(want))
    (if (g.size < got.size) Seq(s"${got.size - g.size} duplicate CC(s) extracted") else Nil) ++
      (g.keySet -- w.keySet).toSeq.sorted.map(k => s"CC $k extracted, not in the reference") ++
      (w.keySet -- g.keySet).toSeq.sorted.map(k => s"CC $k of the reference not extracted") ++
      (g.keySet & w.keySet).toSeq.sorted.collect {
        case k if g(k) != w(k) => s"CC $k: card ${g(k)}, reference ${w(k)}"
      }
  }
}
