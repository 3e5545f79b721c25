package repro.core

import java.util.concurrent.{Callable, ExecutionException, Executors}
import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.count_if

/** Cardinality constraints (CCs, §2.2) and their extraction from Annotated
  * Query Plans executed on the client database.
  *
  * After the DataSynth-style preprocessing rewrite (§3.2), every CC is
  * expressed against a *relation's view*: `|σ_pred (view(relation))| = card`,
  * where `pred` is a DNF over non-key attributes appearing in `relation`'s
  * transitive FK closure. A `True` predicate encodes the relation-size CC.
  */
final case class CC(relation: String, pred: Dnf, card: Long) {
  def dedupKey: (String, String) =
    (relation, pred.conjuncts.map(_.toSql).sorted.mkString("|"))
}

/** A workload query: PK-FK left-deep join of `root` with `joined` (in join
  * order; each joined relation must be referenced by an earlier one), with
  * per-relation DNF filters on non-key attributes. This is the query class
  * the paper supports (§2.2, §7).
  */
final case class Query(root: String, joined: Seq[String], filters: Map[String, Dnf]) {
  def relations: Seq[String] = root +: joined
}

/** Extracts CCs from workload queries by *executing* them on the client
  * DataFrames — our Spark stand-in for fetching AQPs from the PostgreSQL
  * engine (§3.1).
  *
  * Every CC counts rows of one relation's *view* (§3.2, and DataSynth,
  * Arasu et al., SIGMOD 2011), so the extractor first plans every wanted
  * count without touching Spark and then counts all CCs of a view in one
  * aggregation: the view's relation, left-joined with just the relations its
  * join-prefix CCs need, feeds one `count_if` per CC. The views'
  * aggregations are submitted concurrently.
  */
object Aqp {

  /** Validate that `q`'s join order is realizable with PK-FK joins. */
  def validate(schema: SchemaDef, q: Query): Unit = {
    val present = scala.collection.mutable.Set(q.root)
    q.joined.foreach { d =>
      require(
        present.exists(p => schema.byName(p).fks.exists(_.target == d)),
        s"join order invalid: $d not referenced by any of $present")
      present += d
    }
    q.filters.foreach { case (rel, dnf) =>
      require(q.relations.contains(rel), s"filter on un-joined relation $rel")
      val own = schema.byName(rel).attrNames.toSet
      require(dnf.attrs.subsetOf(own), s"filter on $rel uses non-own attrs ${dnf.attrs -- own}")
    }
  }

  /** A PK-FK join edge: `from.fk.column = fk.target`'s PK. */
  private final case class Edge(from: String, fk: ForeignKey)

  /** One count to make: the rows of `cc.relation` that satisfy `cc.pred`
    * and whose FK chain matches a row of every relation in `joins` (in join
    * order; empty for base and own-filter CCs). `cc.card` is not yet set.
    */
  private final case class Wanted(cc: CC, joins: Seq[Edge])

  /** The wanted counts of a workload, in extraction order (per query: base
    * sizes, own-filter counts, join-prefix counts), first occurrence of each
    * [[CC.dedupKey]] only: that occurrence defines the count.
    */
  private def plan(schema: SchemaDef, queries: Seq[Query]): Seq[Wanted] = {
    queries.foreach(validate(schema, _))
    val seen = scala.collection.mutable.LinkedHashMap[(String, String), Wanted]()
    def want(w: Wanted): Unit = seen.getOrElseUpdate(w.cc.dedupKey, w)
    queries.foreach { q =>
      q.relations.foreach(r => want(Wanted(CC(r, Dnf.True, 0), Nil)))
      q.filters.toSeq.foreach { case (rel, dnf) =>
        if (!dnf.isTrue) want(Wanted(CC(rel, dnf, 0), Nil))
      }
      var pred = q.filters.getOrElse(q.root, Dnf.True)
      var joins = Vector.empty[Edge]
      q.joined.foreach { d =>
        // The first relation of the query that references d (validated: one
        // joined before d does), through its first FK to d.
        joins :+= q.relations.iterator
          .flatMap(r => schema.byName(r).fks.filter(_.target == d).map(Edge(r, _)))
          .next()
        pred = pred.and(q.filters.getOrElse(d, Dnf.True))
        want(Wanted(CC(q.root, pred, 0), joins))
      }
    }
    seen.values.toSeq
  }

  /** The FK edge that joins each relation into `relation`'s view, in join
    * order. A relation that two wanted counts reach through different edges
    * (a diamond in the FK graph) is rejected: the view would need it twice.
    */
  private def viewJoins(relation: String, wanted: Seq[Wanted]): Seq[Edge] = {
    val edges = scala.collection.mutable.LinkedHashMap[String, (Edge, Seq[Edge])]()
    def path(e: Edge, joins: Seq[Edge]): String = {
      val hop = s"${e.from}.${e.fk.column} → ${e.fk.target}"
      joins.find(_.fk.target == e.from).fold(hop)(p => s"${path(p, joins)}; $hop")
    }
    for (w <- wanted; e <- w.joins) edges.get(e.fk.target) match {
      case None => edges(e.fk.target) = (e, w.joins)
      case Some((first, firstJoins)) =>
        require(first == e,
          s"view of $relation reaches ${e.fk.target} through two FK paths: " +
            s"[${path(first, firstJoins)}] and [${path(e, w.joins)}]")
    }
    edges.values.map(_._1).toSeq
  }

  /** Count every wanted CC of `relation`'s view in one aggregation. Left
    * joins on the (unique) PKs keep one row per row of `relation`; a CC with
    * joins counts only rows whose joined PKs all matched, as an inner join
    * would, so dangling FKs drop out of join-prefix counts alone.
    */
  private def countView(
      schema: SchemaDef,
      relation: String,
      wanted: Seq[Wanted],
      joins: Seq[Edge],
      dfs: Map[String, DataFrame],
  ): Seq[Long] = {
    val pk = joins.map(e => e.fk.target -> dfs(e.fk.target)(schema.byName(e.fk.target).pkCol)).toMap
    val view = joins.foldLeft(dfs(relation)) { (cur, e) =>
      cur.join(dfs(e.fk.target), cur(e.fk.column) === pk(e.fk.target), "left")
    }
    val counts = wanted.map { w =>
      count_if(w.joins.foldLeft(w.cc.pred.toColumn)((c, e) => c && pk(e.fk.target).isNotNull))
    }
    val row = view.agg(counts.head, counts.tail: _*).head()
    wanted.indices.map(row.getLong)
  }

  /** Extract and de-duplicate the CCs of a whole workload: the CCs of every
    * query (base sizes, per-relation filter cardinalities and the output
    * cardinality of every join prefix, rewritten onto the root relation's
    * view with the conjunction of the filters applied so far, §3.2), first
    * occurrence of each [[CC.dedupKey]] kept, in query order.
    */
  def extractWorkloadCCs(
      schema: SchemaDef,
      queries: Seq[Query],
      dfs: Map[String, DataFrame],
  ): Seq[CC] = {
    val wanted = plan(schema, queries)
    val views = wanted.map(_.cc.relation).distinct.map { rel =>
      val ws = wanted.filter(_.cc.relation == rel)
      (rel, ws, viewJoins(rel, ws))
    }
    if (views.isEmpty) return Nil
    // Threads created here inherit the caller's Spark local properties, so
    // the aggregations run in the caller's job group.
    val pool = Executors.newFixedThreadPool(views.size)
    val cards = try {
      val counting = views.map { case (rel, ws, joins) =>
        val count: Callable[Seq[((String, String), Long)]] =
          () => ws.map(_.cc.dedupKey).zip(countView(schema, rel, ws, joins, dfs))
        pool.submit(count)
      }
      counting.flatMap { f =>
        try f.get() catch { case e: ExecutionException => throw e.getCause }
      }.toMap
    } finally pool.shutdown()
    wanted.map(w => w.cc.copy(card = cards(w.cc.dedupKey)))
  }
}
