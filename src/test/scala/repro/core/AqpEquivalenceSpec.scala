package repro.core

import org.apache.spark.sql.DataFrame
import org.apache.spark.sql.functions.{col, when}
import org.scalatest.concurrent.Eventually
import org.scalatest.time.{Seconds, Span}
import repro.SparkSpec
import repro.job.{JobLite, JobWorkload}
import repro.tpcds.{TpcdsLite, TpcdsWorkload}

/** The one-pass extractor against the per-query oracle ([[AqpOracle]]):
  * the same `Seq[CC]` (order, de-duplication, cards) on every bundled
  * workload, on a client with dangling FKs, and a loud failure where a view
  * would need one relation through two FK paths.
  */
class AqpEquivalenceSpec extends SparkSpec with Eventually {
  private val sf = 0.002
  private lazy val tpcds = TpcdsLite.clientDb(spark, sf)
  private lazy val job = JobLite.clientDb(spark, sf)

  private def assertSameAsOracle(schema: SchemaDef, queries: Seq[Query], dfs: Map[String, DataFrame]): Unit = {
    val got = Aqp.extractWorkloadCCs(schema, queries, dfs)
    val want = AqpOracle.extractWorkloadCCs(schema, queries, dfs)
    assert(got.size == want.size)
    got.zip(want).zipWithIndex.foreach { case ((g, w), i) => assert(g == w, s"CC $i") }
  }

  test("identical to the oracle on WLs") {
    assertSameAsOracle(TpcdsLite.schema, TpcdsWorkload.wls(), tpcds)
  }

  test("identical to the oracle on WLc") {
    assertSameAsOracle(TpcdsLite.schema, TpcdsWorkload.wlc(), tpcds)
  }

  test("identical to the oracle on all 30 JOB queries") {
    assertSameAsOracle(JobLite.schema, JobWorkload.queries(), job)
  }

  // Every fifth sale points past item's PK range.
  private lazy val dangling: Map[String, DataFrame] = {
    val items = TpcdsLite.rowCounts(sf)("item")
    val ss = tpcds("store_sales")
    tpcds + ("store_sales" -> ss.withColumn("ss_itemkey",
      when(col("ss_id") % 5 === 0, col("ss_itemkey") + items).otherwise(col("ss_itemkey"))))
  }
  private val ssFilter = Dnf.of(Conjunct.range("ss_quantity", 1, 50))
  private val itemFilter = Dnf.of(Conjunct.range("i_category", 1, 5))
  private val dateFilter = Dnf.of(Conjunct.range("d_year", 2000, 2002))

  test("dangling FKs change join-prefix counts only, as an inner join does") {
    val schema = TpcdsLite.schema
    val q = Query("store_sales", Seq("item", "date_dim"),
      Map("store_sales" -> ssFilter, "item" -> itemFilter, "date_dim" -> dateFilter))
    val ccs = Aqp.extractWorkloadCCs(schema, Seq(q), dangling)
    def card(rel: String, pred: Dnf): Long = ccs.find(_.dedupKey == CC(rel, pred, 0).dedupKey).get.card

    val ss = dangling("store_sales")
    assert(card("store_sales", Dnf.True) == ss.count())
    assert(card("store_sales", ssFilter) == ss.filter(ssFilter.toColumn).count())
    assert(card("item", itemFilter) == dangling("item").filter(itemFilter.toColumn).count())

    val fss = ss.filter(ssFilter.toColumn)
    val it = dangling("item").filter(itemFilter.toColumn)
    val dd = dangling("date_dim").filter(dateFilter.toColumn)
    val withItem = fss.join(it, fss("ss_itemkey") === it("i_itemkey"))
    val withDate = withItem.join(dd, withItem("ss_datekey") === dd("d_datekey"))
    assert(card("store_sales", ssFilter.and(itemFilter)) == withItem.count())
    assert(card("store_sales", ssFilter.and(itemFilter).and(dateFilter)) == withDate.count())
    assertSameAsOracle(schema, Seq(q), dangling)
  }

  test("a key that first occurs as a base or own-filter CC keeps that count") {
    val schema = TpcdsLite.schema
    val ss = dangling("store_sales")
    val it = dangling("item")
    val inner = ss.join(it, ss("ss_itemkey") === it("i_itemkey"))
    assert(inner.count() < ss.count(), "the client must have dangling FKs")

    // The unfiltered join prefix has the base CC's key.
    val base = Aqp.extractWorkloadCCs(schema, Seq(Query("store_sales", Seq("item"), Map.empty)), dangling)
    assert(base.count(_.dedupKey == ("store_sales", "")) == 1)
    assert(base.find(_.dedupKey == ("store_sales", "")).get.card == ss.count())

    // A prefix joining an unfiltered relation has the own-filter CC's key.
    val own = Aqp.extractWorkloadCCs(schema,
      Seq(Query("store_sales", Seq("item"), Map("store_sales" -> ssFilter))), dangling)
    val ownKey = CC("store_sales", ssFilter, 0).dedupKey
    assert(own.count(_.dedupKey == ownKey) == 1)
    assert(own.find(_.dedupKey == ownKey).get.card == ss.filter(ssFilter.toColumn).count())
  }

  test("a relation two CCs of one view reach through different FK paths is rejected") {
    val schema = SchemaDef(Seq(
      Relation("d", "d_id", Seq(Attr("d_x", 0, 10)), Nil),
      Relation("a", "a_id", Seq(Attr("a_x", 0, 10)), Seq(ForeignKey("a_d", "d"))),
      Relation("b", "b_id", Seq(Attr("b_x", 0, 10)), Seq(ForeignKey("b_d", "d"))),
      Relation("r", "r_id", Seq(Attr("r_x", 0, 10)), Seq(ForeignKey("r_a", "a"), ForeignKey("r_b", "b"))),
    ))
    val viaA = Query("r", Seq("a", "d"), Map("d" -> Dnf.of(Conjunct.range("d_x", 0, 5))))
    val viaB = Query("r", Seq("b", "d"), Map("d" -> Dnf.of(Conjunct.range("d_x", 5, 10))))
    val e = intercept[IllegalArgumentException](Aqp.extractWorkloadCCs(schema, Seq(viaA, viaB), Map.empty))
    assert(e.getMessage.contains("r.r_a → a; a.a_d → d"), e.getMessage)
    assert(e.getMessage.contains("r.r_b → b; b.b_d → d"), e.getMessage)

    // One path per relation is fine, even with a diamond in the schema.
    val s = spark
    import s.implicits._
    val dfs = Map(
      "d" -> Seq((1L, 1.0), (2L, 7.0)).toDF("d_id", "d_x"),
      "a" -> Seq((1L, 1.0, 1L), (2L, 2.0, 2L)).toDF("a_id", "a_x", "a_d"),
      "b" -> Seq((1L, 1.0, 1L)).toDF("b_id", "b_x", "b_d"),
      "r" -> Seq((1L, 1.0, 1L, 1L), (2L, 2.0, 2L, 1L), (3L, 3.0, 1L, 1L)).toDF("r_id", "r_x", "r_a", "r_b"))
    assertSameAsOracle(schema, Seq(viaA), dfs)
    assert(Aqp.extractWorkloadCCs(schema, Seq(viaA), dfs).last.card == 2)
  }

  test("the views' aggregations run in the caller's Spark job group") {
    val sc = spark.sparkContext
    sc.setJobGroup("aqp-one-pass", "aqp-one-pass")
    try Aqp.extractWorkloadCCs(TpcdsLite.schema, TpcdsWorkload.wls(numQueries = 2), tpcds)
    finally sc.clearJobGroup()
    eventually(timeout(Span(10, Seconds))) {
      assert(sc.statusTracker.getJobIdsForGroup("aqp-one-pass").nonEmpty)
    }
  }
}
