package repro.core

/** The node-based cost models of §4.2 (Ciaccia et al. style), Eqs. 4–9:
  * expected number of distance computations CC(range(q, r)) for a PM-tree
  * and an R-tree over the projected space, from empirical distance /
  * per-dimension distributions.
  */
object CostModel {

  /** The per-dimension empirical CDFs G_i (Eq. 8) of a projection sample,
    * each over its sorted column. */
  def cdfPerDim(projs: Array[Array[Double]]): Array[EmpiricalDistances] = {
    require(projs.nonEmpty, "empty projection sample")
    val m = projs.head.length
    Array.tabulate(m) { i =>
      val col = projs.map(_(i))
      java.util.Arrays.sort(col)
      new EmpiricalDistances(col)
    }
  }

  /** Eq. 6–7: CC for a PM-tree. `F` is the projected-space distance CDF.
    * Pr[e] = F(e.r + r_q) · Π_i [F(HR_i.max + r_q) − F(HR_i.min − r_q)];
    * the root contributes with probability 1.
    */
  def pmTreeCost(nodes: Seq[PMNodeSummary], f: EmpiricalDistances, rq: Double): Double =
    nodes.iterator.map { nd =>
      if (nd.isRoot) nd.nEntries.toDouble
      else {
        var pr = f.cdf(nd.radius + rq)
        var i = 0
        while (i < nd.hrMin.length && pr > 0) {
          pr *= math.max(0.0, f.cdf(nd.hrMax(i) + rq) - f.cdf(nd.hrMin(i) - rq))
          i += 1
        }
        nd.nEntries * pr
      }
    }.sum

  /** Side length of the isochoric hyper-cube substituting an m-ball of
    * radius r (§4.2): l = (2·π^{m/2} / (m·Γ(m/2)))^{1/m} · r, computed in
    * log space for large m.
    */
  def isochoricCubeSide(m: Int, r: Double): Double = {
    val logVolUnit = math.log(2.0) + (m / 2.0) * math.log(math.Pi) -
      math.log(m.toDouble) - ChiSquared.logGamma(m / 2.0)
    math.exp(logVolUnit / m) * r
  }

  /** Eq. 9: CC for an R-tree, exactly as printed in the paper — each MBR
    * side [l_i, u_i] becomes [l_i − l, u_i + l] with l the isochoric cube
    * side (G_i(u_i + l) − G_i(l_i − l)).
    */
  def rTreeCost(nodes: Seq[RNodeSummary], gs: Array[EmpiricalDistances], rq: Double): Double = {
    val m = gs.length
    val e = isochoricCubeSide(m, rq)
    nodes.iterator.map { nd =>
      if (nd.isRoot) nd.nEntries.toDouble
      else {
        var pr = 1.0
        var i = 0
        while (i < m && pr > 0) {
          pr *= math.max(0.0, gs(i).cdf(nd.hi(i) + e) - gs(i).cdf(nd.lo(i) - e))
          i += 1
        }
        nd.nEntries * pr
      }
    }.sum
  }
}
