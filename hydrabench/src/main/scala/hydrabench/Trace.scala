package hydrabench

import scala.collection.mutable

/** One timed layer call. `parent` is the id of the enclosing span (-1 for
  * a root); all spans of one traced run share `run`.
  */
final case class Span(id: Int, parent: Int, name: String, startNs: Long, endNs: Long, run: String) {
  def durNs: Long = endNs - startNs
  def json: String =
    s"""{"run":"$run","id":$id,"parent":$parent,"name":"$name","start_ns":$startNs,"end_ns":$endNs}"""
}

/** In-memory span recorder around the benchmark's calls into each layer.
  * Spans are only kept in memory; the caller writes them out at the end.
  */
final class Tracer(val run: String) {
  private val done = mutable.ArrayBuffer[Span]()
  private var open: List[Int] = Nil
  private var nextId = 0

  def span[A](name: String)(body: => A): A = {
    val id = nextId
    nextId += 1
    val parent = open.headOption.getOrElse(-1)
    open = id :: open
    val t0 = System.nanoTime()
    try body
    finally {
      val t1 = System.nanoTime()
      open = open.tail
      done += Span(id, parent, name, t0, t1, run)
    }
  }

  def spans: Vector[Span] = done.toVector
}

object Trace {

  /** Total length of the union of half-open intervals `[start, end)`. */
  def unionNs(intervals: Seq[(Long, Long)]): Long = {
    var total = 0L
    var curS = Long.MinValue
    var curE = Long.MinValue
    intervals.filter(i => i._2 > i._1).sortBy(_._1).foreach { case (s, e) =>
      if (s > curE) {
        if (curE > curS) total += curE - curS
        curS = s; curE = e
      } else if (e > curE) curE = e
    }
    if (curE > curS) total += curE - curS
    total
  }

  /** Self time of every span: its duration minus the part of it that its
    * direct children cover. Children may overlap each other (counted once)
    * or stick out of the parent (clipped).
    */
  def selfNs(spans: Seq[Span]): Map[Int, Long] = {
    val kids = spans.groupBy(_.parent)
    spans.map { s =>
      val covered = unionNs(kids.getOrElse(s.id, Nil).map(c =>
        (math.max(c.startNs, s.startNs), math.min(c.endNs, s.endNs))))
      s.id -> (s.durNs - covered)
    }.toMap
  }

  /** Self time summed per span name, in seconds. */
  def selfSecondsByName(spans: Seq[Span]): Map[String, Double] = {
    val self = selfNs(spans)
    spans.groupBy(_.name).map { case (n, ss) => n -> ss.map(s => self(s.id)).sum / 1e9 }
  }
}
