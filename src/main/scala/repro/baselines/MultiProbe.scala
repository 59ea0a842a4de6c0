package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{Dataset, SparkSession}
import org.apache.spark.storage.StorageLevel
import repro.core._
import scala.collection.mutable

/** One partition of a Multi-Probe index: its points in input order, and
  * for each of the L hash tables a map from compound bucket key G(o) to the
  * member points' slots.
  */
final class MultiProbePart(
    val points: Slots,
    val tables: Array[mutable.HashMap[String, mutable.ArrayBuffer[Int]]]) extends Serializable {
  def size: Int = points.size
}

/** Multi-Probe LSH (Lv et al., §3.1) on Spark.
  *
  * L hash tables, each a compound of mB bucketed hashes h_i(o) =
  * ⌊(a_i·o + b_i)/w⌋. For a query, the classic query-directed probing
  * sequence (min-heap over perturbation sets with shift/expand, scored by
  * Σ x_i(δ)², x_i(δ) the distance from the query to the bucket boundary)
  * yields the probes-per-table most likely to hold near neighbors; probed
  * buckets' members are verified in the original space.
  *
  * w is data-driven (a multiple of the per-dimension interquartile range of
  * projected coordinates) since bucket widths must match the data scale.
  */
final class MultiProbe(
    spark: SparkSession,
    points: Dataset[Point],
    val probesPerTable: Int = 1500,
    val partitions: Int = 8,
    val seed: Long = 42) {

  val numTables: Int = 4
  val numDims: Int = 8
  val wFactor: Double = 1.0
  val coordSample: Int = 400

  private val sc = spark.sparkContext

  val d: Int = points.head().vec.length

  private val families: Array[ProjectionFamily] =
    Array.tabulate(numTables)(t => new ProjectionFamily(d, numDims, seed + 1000L * (t + 1)))

  /** Bucket width per table: wFactor × mean per-dimension IQR of projected
    * coordinates, from a driver-side sample, checked like the index's
    * points before it is hashed.
    */
  val widths: Array[Double] = {
    val sample = points.limit(coordSample).collect()
    require(sample.nonEmpty, "empty dataset")
    sample.foreach(p => Slots.requireRow(p.id, "vector", p.vec, d))
    families.map { fam =>
      val projs = sample.map(p => fam.project(p.vec))
      val iqrs = (0 until numDims).map { i =>
        val col = projs.map(_(i)).sorted
        col((col.length * 3) / 4) - col(col.length / 4)
      }
      math.max(iqrs.sum / numDims * wFactor, 1e-9)
    }
  }

  val lshs: Array[BucketedLsh] =
    Array.tabulate(numTables)(t => new BucketedLsh(families(t), widths(t), seed + 77L * (t + 1)))
  private val bcLshs = sc.broadcast(lshs)

  /** One index per partition, kept live: the query's tasks probe the cached
    * objects in place. Every vector is checked (d finite coordinates)
    * before it is hashed. */
  val index: RDD[MultiProbePart] = {
    // locals only inside the lambda: field access would capture `this`
    val nt = numTables
    val bl = bcLshs
    val dd = d
    points
      .repartition(partitions)
      .rdd
      .mapPartitions { it =>
        val ls = bl.value
        val pts = it.toArray
        val slots = Slots.of(pts, dd)
        val tables = Array.fill(nt)(mutable.HashMap.empty[String, mutable.ArrayBuffer[Int]])
        var j = 0
        while (j < pts.length) {
          var t = 0
          while (t < nt) {
            val key = ls(t).buckets(pts(j).vec).mkString(",")
            tables(t).getOrElseUpdate(key, new mutable.ArrayBuffer[Int]()) += j
            t += 1
          }
          j += 1
        }
        Iterator.single(new MultiProbePart(slots, tables))
      }
      .persist(StorageLevel.MEMORY_ONLY)
  }

  val n: Long = index.map(_.size.toLong).reduce(_ + _)

  /** Query-directed probing sequence for one table (Lv et al. 2007):
    * perturbation sets over the 2·mB sorted boundary distances, expanded
    * with the shift/expand heap; returns up to `maxProbes` bucket keys,
    * starting with the home bucket.
    */
  def probeSequence(tableLsh: BucketedLsh, q: Array[Double], maxProbes: Int): Array[String] = {
    val mB = tableLsh.family.m
    val coords = tableLsh.coords(q) // in units of w
    val base = coords.map(x => math.floor(x).toInt)
    val wQ = tableLsh.w
    // boundary distances x_i(δ) in original projected units
    // z: sorted ascending (value, dim, delta)
    val z: Array[(Double, Int, Int)] = (0 until mB).flatMap { i =>
      val frac = (coords(i) - base(i)) * wQ
      Seq((frac, i, -1), (wQ - frac, i, +1))
    }.sortBy(_._1).toArray
    val out = mutable.ArrayBuffer[String](base.mkString(","))
    if (maxProbes <= 1 || z.isEmpty) return out.toArray
    // perturbation set = sorted list of indices into z; score = Σ z(j)²
    case class PSet(score: Double, idxs: List[Int])
    val heap = mutable.PriorityQueue.empty[PSet](Ordering.by((p: PSet) => -p.score))
    heap.enqueue(PSet(z(0)._1 * z(0)._1, List(0)))
    def valid(idxs: List[Int]): Boolean = {
      val dims = idxs.map(j => z(j)._2)
      dims.distinct.length == dims.length
    }
    while (out.length < maxProbes && heap.nonEmpty) {
      val p = heap.dequeue()
      if (valid(p.idxs)) {
        val bucket = base.clone()
        p.idxs.foreach { j => bucket(z(j)._2) += z(j)._3 }
        out += bucket.mkString(",")
      }
      val jmax = p.idxs.head // idxs kept max-first
      if (jmax + 1 < z.length) {
        val zn = z(jmax + 1)._1
        val zo = z(jmax)._1
        heap.enqueue(PSet(p.score - zo * zo + zn * zn, (jmax + 1) :: p.idxs.tail))
        heap.enqueue(PSet(p.score + zn * zn, (jmax + 1) :: p.idxs))
      }
    }
    out.toArray
  }

  def knn(queries: Array[Array[Double]], k: Int): Array[QueryResult] = {
    if (queries.isEmpty) return Array.empty
    Vec.requireFinite(queries)
    // (query, table) → probe keys, computed on the driver
    val probes: Array[Array[Array[String]]] = queries.map { q =>
      lshs.map(l => probeSequence(l, q, probesPerTable))
    }
    val batch = queries.indices.map(i => (i, queries(i), probes(i))).toArray
    val bcBatch = sc.broadcast(batch)
    val merged = TopK.gather(index, k) { part =>
      bcBatch.value.iterator.map { case (qi, qv, keysPerTable) =>
        val found = mutable.HashSet.empty[Int]
        var t = 0
        while (t < keysPerTable.length) {
          val table = part.tables(t)
          keysPerTable(t).foreach { key =>
            table.get(key).foreach(_.foreach(found += _))
          }
          t += 1
        }
        // one probing pass, no radius: the within-c·r count is unused
        val slots = found.toArray
        qi -> part.points.verify(qv, slots, slots.length, k, Double.NegativeInfinity)
      }
    }
    bcBatch.destroy()
    queries.indices.map { qi =>
      val res = merged.getOrElse(qi, TopK.empty)
      QueryResult(res.neighbors, 1, res.count)
    }.toArray
  }

  def unpersist(): Unit = index.unpersist()
}
