package hydrabench

import java.lang.management.ManagementFactory
import scala.collection.mutable
import scala.jdk.CollectionConverters._
import org.apache.spark.{ListenerBusDrain, SparkContext}
import org.apache.spark.scheduler.{SparkListener, SparkListenerJobStart, SparkListenerTaskEnd}

/** Spark-side work of one job group. */
final case class GroupCounts(
    jobs: Long = 0, tasks: Long = 0, cpuNs: Long = 0, gcMs: Long = 0,
    recordsRead: Long = 0, bytesWritten: Long = 0)

/** Spark listener registered from outside the program: attributes jobs,
  * tasks, executor CPU, GC time, records read and bytes written to the job
  * group the benchmark set around each layer call.
  */
final class SparkCounters extends SparkListener {
  private val stageGroup = mutable.Map[Int, String]()
  private val counts = mutable.Map[String, GroupCounts]().withDefaultValue(GroupCounts())

  override def onJobStart(e: SparkListenerJobStart): Unit = synchronized {
    val g = Option(e.properties).flatMap(p => Option(p.getProperty("spark.jobGroup.id")))
    g.foreach { group =>
      e.stageIds.foreach(stageGroup(_) = group)
      counts(group) = counts(group).copy(jobs = counts(group).jobs + 1)
    }
  }

  override def onTaskEnd(e: SparkListenerTaskEnd): Unit = synchronized {
    for (group <- stageGroup.get(e.stageId); m <- Option(e.taskMetrics)) {
      val c = counts(group)
      counts(group) = c.copy(
        tasks = c.tasks + 1,
        cpuNs = c.cpuNs + m.executorCpuTime,
        gcMs = c.gcMs + m.jvmGCTime,
        recordsRead = c.recordsRead + m.inputMetrics.recordsRead,
        bytesWritten = c.bytesWritten + m.outputMetrics.bytesWritten)
    }
  }

  /** Counts of `group` once every pending listener event has arrived. */
  def of(sc: SparkContext, group: String): GroupCounts = {
    ListenerBusDrain(sc)
    synchronized(counts(group))
  }
}

object SparkCounters {
  /** Run `body` with its Spark jobs tagged as `group`. */
  def inGroup[A](sc: SparkContext, group: String)(body: => A): A = {
    sc.setJobGroup(group, group)
    try body finally sc.clearJobGroup()
  }
}

/** Driver-JVM GC time and peak heap over an interval. */
final class JvmWindow {
  private def gcMs: Long = ManagementFactory.getGarbageCollectorMXBeans.asScala.map(_.getCollectionTime).sum
  private val heapPools = ManagementFactory.getMemoryPoolMXBeans.asScala
    .filter(_.getType == java.lang.management.MemoryType.HEAP)
  heapPools.foreach(_.resetPeakUsage())
  private val gc0 = gcMs

  def gcSeconds: Double = (gcMs - gc0) / 1e3
  /** Sum of each heap pool's peak since the window opened (an upper bound
    * on the true peak, as pools peak at different moments).
    */
  def heapPeakMb: Double = heapPools.map(_.getPeakUsage.getUsed).sum / 1048576.0
}
