package hydrabench

import org.scalatest.funsuite.AnyFunSuite

class StatsSpec extends AnyFunSuite {

  test("median of odd and even samples") {
    assert(Stats.median(Seq(3.0, 1.0, 2.0)) == 2.0)
    assert(Stats.median(Seq(4.0, 1.0, 2.0, 3.0)) == 2.5)
  }

  test("tail is the highest percentile with at least ten samples beyond it") {
    val xs = (1 to 20).map(_.toDouble)
    assert(Stats.tail(xs).contains(Stats.Tail(50.0, 10.0, 20)))
    assert(Stats.tail((1 to 40).map(_.toDouble)).contains(Stats.Tail(75.0, 30.0, 40)))
    assert(Stats.tail((1 to 110).map(_.toDouble)).map(_.percentile).contains(90.0))
    assert(Stats.tail((1 to 1000).map(_.toDouble)).contains(Stats.Tail(99.0, 990.0, 1000)))
  }

  test("tail needs at least twenty samples, and ignores input order") {
    assert(Stats.tail((1 to 19).map(_.toDouble)).isEmpty)
    assert(Stats.tail((1 to 20).reverse.map(_.toDouble)).map(_.value).contains(10.0))
  }
}
