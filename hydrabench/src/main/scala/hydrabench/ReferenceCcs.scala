package hydrabench

import org.apache.spark.sql.DataFrame
import repro.core.{CC, Dnf, Query, SchemaDef}

/** Reference CC extraction over a client database held in driver memory.
  *
  * It follows the CC definition of §3.2 directly: every CC counts the rows
  * of a relation's *view* (the relation joined with its whole FK closure)
  * that satisfy a DNF over view attributes. Client FKs always hit a parent
  * PK (`ClientDb` draws them from `1..|parent|`), so each view row is one
  * row of the relation with its FK chain resolved by index. The output
  * sequence mirrors `Aqp.extractWorkloadCCs` (per query: base sizes, own
  * filters, join prefixes; first occurrence wins), which lets the benchmark
  * check the program's Spark extraction CC by CC.
  */
final class ReferenceCcs(schema: SchemaDef, views: Map[String, (Vector[String], Array[Array[Double]])]) {

  def count(relation: String, pred: Dnf): Long = {
    val (attrs, rows) = views(relation)
    if (pred.isTrue) return rows.length.toLong
    val idx = attrs.zipWithIndex.toMap
    val conj = pred.conjuncts.map(_.ranges.map(r => (idx(r.attr), r.iv.lo, r.iv.hi)).toArray).toArray
    var n = 0L
    var i = 0
    while (i < rows.length) {
      val row = rows(i)
      if (conj.exists(_.forall { case (a, lo, hi) => row(a) >= lo && row(a) < hi })) n += 1
      i += 1
    }
    n
  }

  def queryCcs(q: Query): Seq[CC] = {
    val base = q.relations.map(r => CC(r, Dnf.True, count(r, Dnf.True)))
    val own = q.filters.toSeq.collect { case (r, p) if !p.isTrue => CC(r, p, count(r, p)) }
    var pred = q.filters.getOrElse(q.root, Dnf.True)
    val joins = q.joined.map { d =>
      pred = pred.and(q.filters.getOrElse(d, Dnf.True))
      CC(q.root, pred, count(q.root, pred))
    }
    base ++ own ++ joins
  }

  def workloadCcs(queries: Seq[Query]): Seq[CC] = {
    val seen = scala.collection.mutable.LinkedHashMap[(String, String), CC]()
    queries.flatMap(queryCcs).foreach(cc => seen.getOrElseUpdate(cc.dedupKey, cc))
    seen.values.toSeq
  }
}

object ReferenceCcs {
  /** Collect the relations (client or regenerated: PK, attributes, FKs,
    * PKs dense from 1) and denormalize every relation's view.
    */
  def apply(schema: SchemaDef, dfs: Map[String, DataFrame]): ReferenceCcs = {
    val own: Map[String, Array[org.apache.spark.sql.Row]] = schema.relations.map { r =>
      val cols = r.pkCol +: (r.attrs.map(_.name) ++ r.fks.map(_.column))
      val rows = dfs(r.name).select(cols.head, cols.tail: _*).collect().sortBy(_.getLong(0))
      rows.indices.find(i => rows(i).getLong(0) != i + 1).foreach { i =>
        throw new IllegalArgumentException(s"${r.name}: PKs are not 1..${rows.length} (row $i has ${rows(i).getLong(0)})")
      }
      r.name -> rows
    }.toMap
    val views = scala.collection.mutable.Map[String, (Vector[String], Array[Array[Double]])]()
    def view(rel: String): (Vector[String], Array[Array[Double]]) = views.getOrElseUpdate(rel, {
      val r = schema.byName(rel)
      val attrs = schema.viewAttrs(rel).toVector
      val parents = r.fks.map(fk => view(fk.target)).toArray
      // Where each view attribute comes from: the relation's own column if
      // it has one, else the first FK parent (in FK order) whose view has it.
      val (srcParent, srcIndex) = attrs.map { a =>
        val i = r.attrs.indexWhere(_.name == a)
        if (i >= 0) (-1, i)
        else {
          val p = parents.indexWhere(_._1.contains(a))
          (p, parents(p)._1.indexOf(a))
        }
      }.toArray.unzip
      val fkCol0 = 1 + r.attrs.size
      val rows = own(rel).map { row =>
        val fkRows = Array.tabulate(parents.length)(p => parents(p)._2((row.getLong(fkCol0 + p) - 1).toInt))
        Array.tabulate(attrs.size) { k =>
          if (srcParent(k) < 0) row.getDouble(1 + srcIndex(k)) else fkRows(srcParent(k))(srcIndex(k))
        }
      }
      (attrs, rows)
    })
    schema.relations.foreach(r => view(r.name))
    new ReferenceCcs(schema, views.toMap)
  }
}
