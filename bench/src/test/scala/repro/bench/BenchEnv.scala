package repro.bench

import repro.SparkSpec
import repro.exhibits.{Exhibits, Inputs, Table}

/** The exhibit inputs every bench suite shares. Building CCs means executing
  * every workload query on Spark (the AQP step), so it is done once per JVM.
  */
object BenchEnv {
  lazy val inputs: Inputs = Inputs(SparkSpec.shared, Exhibits.DefaultSf)

  def show(t: Table): Unit = println(Exhibits.render(t))
}
