package repro.hydra

object RegionTestSupport {
  implicit final class BlockRepresentative(private val b: Block) extends AnyVal {
    /** Deterministic representative point: the lo-corner of the first box,
      * the point the LP formulation instantiates the block to.
      */
    def representative(attrs: Vector[String]): Map[String, Double] =
      attrs.zip(b.boxes.head.loPoint).toMap
  }
}
