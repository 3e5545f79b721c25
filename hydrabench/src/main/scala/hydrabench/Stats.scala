package hydrabench

/** Order statistics for the benchmark's timings. */
object Stats {

  def median(xs: Seq[Double]): Double = {
    require(xs.nonEmpty, "median of no samples")
    val s = xs.sorted
    val n = s.size
    if (n % 2 == 1) s(n / 2) else (s(n / 2 - 1) + s(n / 2)) / 2
  }

  /** Percentiles a tail is reported at, lowest first. */
  val TailLadder: Vector[Double] = Vector(50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

  /** The tail of a timing: the highest percentile of [[TailLadder]] that
    * still has at least `beyond` samples above it, with its value
    * (nearest-rank) and the sample count it was taken from. None when there
    * are too few samples for even the median to have `beyond` above it.
    */
  final case class Tail(percentile: Double, value: Double, samples: Int)

  def tail(xs: Seq[Double], beyond: Int = 10): Option[Tail] = {
    val s = xs.sorted.toVector
    val n = s.size
    // Nearest rank of percentile p is ceil(p/100 * n); the samples strictly
    // past that rank are the ones "beyond" it.
    def rank(p: Double): Int = math.max(1, math.ceil(p / 100 * n - 1e-9).toInt)
    TailLadder.filter(p => n - rank(p) >= beyond).lastOption
      .map(p => Tail(p, s(rank(p) - 1), n))
  }
}
