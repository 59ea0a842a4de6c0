package repro.core

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.Dataset
import org.apache.spark.storage.StorageLevel
import scala.reflect.ClassTag

/** A dataset point: stable id + original d-dimensional vector. */
case class Point(id: Long, vec: Array[Double])

object Points {

  /** The dimension d of `points`, read from the first point. Every engine
    * needs at least one point, so empty data is rejected here. */
  def dimension(points: Dataset[Point]): Int = {
    val first = points.take(1)
    require(first.nonEmpty, "the data is empty: an index needs at least one point")
    first(0).vec.length
  }

  /** One index per partition of `rows`, built by `build` from the
    * partition's points once every vector is checked (d coordinates, all
    * finite), and kept live: the RDD is persisted `MEMORY_ONLY`, so a
    * query's tasks probe the built objects in place. Empty partitions get
    * an index too. */
  def indexed[P: ClassTag](rows: RDD[Point], d: Int)(build: Array[Point] => P): RDD[P] =
    rows.mapPartitions { it =>
      val pts = it.toArray
      pts.foreach(p => Slots.requireRow(p.id, "vector", p.vec, d))
      Iterator.single(build(pts))
    }.persist(StorageLevel.MEMORY_ONLY)
}

/** A point carried through an index: id, projected (m-dim) coordinates,
  * and the original vector. The engines never build these; they are the
  * boxed view of an index's slots (`Slots.point`) and the input of the
  * trees' `IndexedPoint` builds.
  */
case class IndexedPoint(id: Long, proj: Array[Double], vec: Array[Double])

object IndexedPoint {

  /** `items` as the input of a tree's flat build: their vectors as `Point`
    * rows, their projections in one flat array, and m. Every item must have
    * as many projected and original coordinates as the first, all finite:
    * a short row would shift every later one. */
  def rows(items: Array[IndexedPoint]): (Array[Point], Array[Double], Int) = {
    val (m, d) = if (items.isEmpty) (0, 0) else (items(0).proj.length, items(0).vec.length)
    val proj = new Array[Double](items.length * m)
    val points = Array.tabulate(items.length) { i =>
      val p = items(i)
      Slots.requireRow(p.id, "projection", p.proj, m)
      Slots.requireRow(p.id, "vector", p.vec, d)
      System.arraycopy(p.proj, 0, proj, i * m, m)
      Point(p.id, p.vec)
    }
    (points, proj, m)
  }
}

/** One answer of a kNN query. */
case class Neighbor(id: Long, dist: Double)

/** Result of one (c,k)-ANN query plus diagnostics. */
case class QueryResult(neighbors: Array[Neighbor], rounds: Int, candidates: Int)
