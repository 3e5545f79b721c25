package org.apache.spark

/** Waits until Spark has delivered every queued listener event, so the
  * benchmark's counters are complete when it reads them. The bus is
  * `private[spark]`, hence this file's package.
  */
object ListenerBusDrain {
  def apply(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}
