package repro.core

import repro.SparkSpec
import repro.data.HighDim

/** Table-3 statistics: sanity of HV/RC/LID and their qualitative behavior
  * on controlled data (uniform vs clustered, low vs high dimension).
  */
class DataStatsSpec extends SparkSpec {

  private def stats(n: Long, d: Int, noise: Double, seed: Long): DatasetStats = {
    val cfg = HighDim.testConfig(n, d, seed).copy(noiseFrac = noise)
    val pts = HighDim.generate(spark, cfg).persist()
    pts.count()
    val s = DataStats.compute(spark, pts, seed = seed)
    pts.unpersist()
    s
  }

  test("basic shape: n, d recorded; metrics in valid ranges") {
    val s = stats(500, 16, 0.1, 3)
    assert(s.n == 500 && s.d == 16)
    assert(s.hv > 0.0 && s.hv <= 1.0)
    assert(s.rc > 1.0)
    assert(s.lid > 0.0 && s.lid < 100.0)
  }

  test("HV is high for both uniform and clustered data (paper: >= 0.9)") {
    assert(stats(500, 16, 1.0, 5).hv >= 0.85)
    assert(stats(500, 16, 0.0, 5).hv >= 0.8)
  }

  test("RC: clustered data has higher relative contrast than uniform") {
    val clustered = stats(600, 24, 0.0, 7)
    val uniform = stats(600, 24, 1.0, 7)
    assert(clustered.rc > uniform.rc,
      s"clustered=${clustered.rc} uniform=${uniform.rc}")
  }

  test("LID: uniform data LID grows with dimension") {
    val low = stats(600, 4, 1.0, 9)
    val high = stats(600, 24, 1.0, 9)
    assert(high.lid > low.lid, s"low=${low.lid} high=${high.lid}")
  }

  test("LID: clustered data has lower LID than uniform in the same dimension") {
    val clustered = stats(600, 24, 0.0, 11)
    val uniform = stats(600, 24, 1.0, 11)
    assert(clustered.lid < uniform.lid,
      s"clustered=${clustered.lid} uniform=${uniform.lid}")
  }

  test("deterministic for the same seed") {
    val a = stats(400, 8, 0.2, 13)
    val b = stats(400, 8, 0.2, 13)
    assert(a == b)
  }
}
