package repro.lp

import org.scalatest.funsuite.AnyFunSuite
import org.scalacheck.{Gen, Prop}
import repro.PropSupport

class RationalSpec extends AnyFunSuite with PropSupport {
  test("normalization") {
    assert(Rational(2, 4) == Rational(1, 2))
    assert(Rational(-2, -4) == Rational(1, 2))
    assert(Rational(2, -4) == Rational(-1, 2))
    assert(Rational(0, 7) == Rational.Zero)
  }
  test("arithmetic basics") {
    assert(Rational(1, 2) + Rational(1, 3) == Rational(5, 6))
    assert(Rational(1, 2) - Rational(1, 2) == Rational.Zero)
    assert(Rational(2, 3) * Rational(3, 4) == Rational(1, 2))
    assert(Rational(1, 2) / Rational(1, 4) == Rational(2))
  }
  test("floor and ceil") {
    assert(Rational(7, 2).floor == BigInt(3) && Rational(7, 2).ceil == BigInt(4))
    assert(Rational(-7, 2).floor == BigInt(-4) && Rational(-7, 2).ceil == BigInt(-3))
    assert(Rational(6).floor == BigInt(6) && Rational(6).ceil == BigInt(6))
  }
  test("ordering") {
    assert(Rational(1, 3) < Rational(1, 2) && Rational(-1, 2) < Rational(0))
  }
  test("field laws (property)") {
    val gr = for { n <- Gen.chooseNum(-50L, 50L); d <- Gen.chooseNum(1L, 30L) } yield Rational(n, d)
    checkProp(Prop.forAll(gr, gr, gr) { (a, b, c) =>
      (a + b) == (b + a) &&
      (a * (b + c)) == (a * b + a * c) &&
      (a - b) + b == a &&
      (b.isZero || (a / b) * b == a)
    })
  }
  test("floor property: floor <= x < floor+1") {
    val gr = for { n <- Gen.chooseNum(-500L, 500L); d <- Gen.chooseNum(1L, 97L) } yield Rational(n, d)
    checkProp(Prop.forAll(gr) { a =>
      Rational(a.floor) <= a && a < Rational(a.floor + 1)
    })
  }
}

class SimplexSpec extends AnyFunSuite with PropSupport {
  import Simplex._

  private def eq(rhs: Long, vars: (Int, Long)*): Eq =
    Eq(vars.map { case (i, c) => i -> Rational(c) }, Rational(rhs))

  private def checkSolution(n: Int, eqs: Seq[Eq], x: Array[Rational]): Unit = {
    assert(x.length == n)
    assert(x.forall(_.signum >= 0), "negative component")
    eqs.foreach { e =>
      val lhs = e.coeffs.foldLeft(Rational.Zero) { case (s, (j, c)) => s + c * x(j) }
      assert(lhs == e.rhs, s"violated: $e, got $lhs")
    }
  }

  test("paper Figure 4b system: y1+y2=1000, y2+y3=2000, y1+..+y4=8000") {
    val eqs = Seq(
      eq(1000, 0 -> 1L, 1 -> 1L),
      eq(2000, 1 -> 1L, 2 -> 1L),
      eq(8000, 0 -> 1L, 1 -> 1L, 2 -> 1L, 3 -> 1L))
    val x = feasible(4, eqs).get
    checkSolution(4, eqs, x)
  }

  test("infeasible: conflicting totals") {
    val eqs = Seq(eq(5, 0 -> 1L), eq(7, 0 -> 1L))
    assert(feasible(1, eqs).isEmpty)
  }

  test("infeasible: subset exceeds total") {
    val eqs = Seq(eq(10, 0 -> 1L, 1 -> 1L), eq(4, 0 -> 1L, 1 -> 1L, 2 -> 1L))
    assert(feasible(3, eqs).isEmpty)
  }

  test("negative rhs rows are handled") {
    // x0 - x1 = -3, x0 + x1 = 5  →  x0 = 1, x1 = 4.
    val eqs = Seq(
      Eq(Seq(0 -> Rational.One, 1 -> Rational(-1)), Rational(-3)),
      eq(5, 0 -> 1L, 1 -> 1L))
    val x = feasible(2, eqs).get
    checkSolution(2, eqs, x)
  }

  test("zero rhs works (origin feasible)") {
    val eqs = Seq(eq(0, 0 -> 1L, 1 -> 1L))
    checkSolution(2, eqs, feasible(2, eqs).get)
  }

  test("integral solution on an integral system") {
    val eqs = Seq(
      eq(1000, 0 -> 1L, 1 -> 1L),
      eq(2000, 1 -> 1L, 2 -> 1L),
      eq(8000, 0 -> 1L, 1 -> 1L, 2 -> 1L, 3 -> 1L))
    val s = feasibleIntegral(4, eqs).get
    assert(s.exact)
    assert(s.values.forall(_ >= 0))
    assert(s.values(0) + s.values(1) == BigInt(1000))
    assert(s.values(1) + s.values(2) == BigInt(2000))
    assert(s.values.sum == BigInt(8000))
  }

  test("integral on system with fractional-looking structure") {
    // x0 + x1 = 3, x0 + x2 = 3, x1 + x2 = 4 → x = (1,2,2)
    val eqs = Seq(eq(3, 0 -> 1L, 1 -> 1L), eq(3, 0 -> 1L, 2 -> 1L), eq(4, 1 -> 1L, 2 -> 1L))
    val s = feasibleIntegral(3, eqs).get
    assert(s.exact)
    assert(s.values.toSeq == Seq(BigInt(1), BigInt(2), BigInt(2)))
  }

  test("odd cycle forcing fractional LP vertex still integralizes") {
    // x0+x1 = 1, x1+x2 = 1, x0+x2 = 2 → x=(1,0,1) integral feasible.
    val eqs = Seq(eq(1, 0 -> 1L, 1 -> 1L), eq(1, 1 -> 1L, 2 -> 1L), eq(2, 0 -> 1L, 2 -> 1L))
    val s = feasibleIntegral(3, eqs).get
    assert(s.exact)
    assert(s.values.toSeq == Seq(BigInt(1), BigInt(0), BigInt(1)))
  }

  test("a node budget that runs out is reported as exhausted, not exact") {
    // x0+x1 = 1, x0+x2 = 1, x1+x2+x3 = 1: the LP vertex is (½,½,½,0); the
    // integer point (1,0,0,1) takes branching.
    val eqs = Seq(eq(1, 0 -> 1L, 1 -> 1L), eq(1, 0 -> 1L, 2 -> 1L), eq(1, 1 -> 1L, 2 -> 1L, 3 -> 1L))
    assert(!feasible(4, eqs).get.forall(_.isWhole))
    val cut = feasibleIntegral(4, eqs, maxNodes = 1).get
    assert(cut.exhausted && !cut.exact)
    val full = feasibleIntegral(4, eqs).get
    assert(full.exact && !full.exhausted)
  }

  test("random feasible partition systems (property)") {
    // Build: vars x0..x{n-1} with a known integral ground truth; constraints
    // are sums over random subsets with rhs evaluated on the truth.
    val gen = for {
      n <- Gen.chooseNum(2, 10)
      truth <- Gen.listOfN(n, Gen.chooseNum(0L, 50L))
      m <- Gen.chooseNum(1, 6)
      subsets <- Gen.listOfN(m, Gen.listOfN(n, Gen.oneOf(true, false)))
    } yield (n, truth.toVector, subsets.map(_.toVector))
    checkProp(Prop.forAll(gen) { case (n, truth, subsets) =>
      val eqs = subsets.map { sel =>
        val vars = (0 until n).filter(sel)
        Eq(vars.map(_ -> Rational.One), Rational(vars.map(truth).sum))
      } :+ Eq((0 until n).map(_ -> Rational.One), Rational(truth.sum))
      feasible(n, eqs) match {
        case None => false
        case Some(x) =>
          eqs.forall { e =>
            e.coeffs.foldLeft(Rational.Zero) { case (s, (j, c)) => s + c * x(j) } == e.rhs
          } && x.forall(_.signum >= 0)
      }
    }, minTests = 60)
  }

  test("random systems integralize exactly (property)") {
    val gen = for {
      n <- Gen.chooseNum(2, 8)
      truth <- Gen.listOfN(n, Gen.chooseNum(0L, 20L))
      m <- Gen.chooseNum(1, 5)
      subsets <- Gen.listOfN(m, Gen.listOfN(n, Gen.oneOf(true, false)))
    } yield (n, truth.toVector, subsets.map(_.toVector))
    checkProp(Prop.forAll(gen) { case (n, truth, subsets) =>
      val eqs = subsets.map { sel =>
        val vars = (0 until n).filter(sel)
        Eq(vars.map(_ -> Rational.One), Rational(vars.map(truth).sum))
      }
      feasibleIntegral(n, eqs) match {
        case None => false
        case Some(s) =>
          s.exact && eqs.forall { e =>
            e.coeffs.foldLeft(Rational.Zero) { case (sum, (j, c)) =>
              sum + c * Rational(s.values(j))
            } == e.rhs
          }
      }
    }, minTests = 60)
  }
}
