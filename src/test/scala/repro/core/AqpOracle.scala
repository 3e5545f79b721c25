package repro.core

import org.apache.spark.sql.DataFrame

/** The per-query CC extractor that [[Aqp.extractWorkloadCCs]] replaced, kept
  * as the test oracle: one Spark `count()` per CC, the left-deep join rebuilt
  * for every join prefix, and a count cache keyed by [[CC.dedupKey]] shared
  * across the workload.
  */
object AqpOracle {

  /** CCs for one query: base sizes, per-relation filter cardinalities, and
    * the output cardinality of every join prefix (all counted with Spark).
    * Join-prefix CCs are rewritten onto the root relation's view, with the
    * predicate being the conjunction of all filters applied so far (§3.2).
    */
  def extractQueryCCs(
      schema: SchemaDef,
      q: Query,
      dfs: Map[String, DataFrame],
      countCache: scala.collection.mutable.Map[(String, String), Long],
  ): Seq[CC] = {
    Aqp.validate(schema, q)
    def countOf(rel: String, pred: Dnf)(body: => Long): Long =
      countCache.getOrElseUpdate(CC(rel, pred, 0).dedupKey, body)

    val base = q.relations.map(r => CC(r, Dnf.True, countOf(r, Dnf.True)(dfs(r).count())))

    val filterCCs = q.filters.toSeq.collect {
      case (rel, dnf) if !dnf.isTrue =>
        CC(rel, dnf, countOf(rel, dnf)(dfs(rel).filter(dnf.toColumn).count()))
    }

    // Left-deep join prefixes, each annotated with its output cardinality.
    def filtered(rel: String): DataFrame = q.filters.get(rel) match {
      case Some(p) if !p.isTrue => dfs(rel).filter(p.toColumn)
      case _                    => dfs(rel)
    }
    var cur = filtered(q.root)
    var pred = q.filters.getOrElse(q.root, Dnf.True)
    val joinCCs = q.joined.map { d =>
      val fk = q.relations
        .flatMap(r => schema.byName(r).fks.filter(_.target == d))
        .head // validated above: some earlier relation references d
      val pk = schema.byName(d).pkCol
      val fd = filtered(d)
      cur = cur.join(fd, cur(fk.column) === fd(pk))
      pred = pred.and(q.filters.getOrElse(d, Dnf.True))
      val p = pred
      CC(q.root, p, countOf(q.root, p)(cur.count()))
    }
    base ++ filterCCs ++ joinCCs
  }

  /** Extract and de-duplicate the CCs of a whole workload. */
  def extractWorkloadCCs(
      schema: SchemaDef,
      queries: Seq[Query],
      dfs: Map[String, DataFrame],
  ): Seq[CC] = {
    val cache = scala.collection.mutable.Map[(String, String), Long]()
    val all = queries.flatMap(q => extractQueryCCs(schema, q, dfs, cache))
    val seen = scala.collection.mutable.LinkedHashMap[(String, String), CC]()
    all.foreach(cc => seen.getOrElseUpdate(cc.dedupKey, cc))
    seen.values.toSeq
  }
}
