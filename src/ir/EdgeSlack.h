//===- ir/EdgeSlack.h - Exact per-edge dependence slack ---------*- C++ -*-===//
///
/// \file
/// The coarsening order of the Section 4.1 partitioner: one slack value
/// per DDG edge. Under edge weights latency(e) - II * distance(e), with
/// MinDist(i, j) the longest-path weight of a non-empty walk from i to
/// j, edge e = (s, t) gets
///
///   slack(e) = -(MinDist(s, t) + MinDist(t, s)),
///
/// where an unreachable t -> s contributes 0. Lower slack = more
/// critical. This is exactly MinDistMatrix::slack(s, t, 0), read off the
/// edges alone: the all-pairs matrix costs O(N^3) time and O(N^2) space,
/// while the edges only need
///
///   - for each source s, longest paths to its own successors, swept in
///     the topological order of the SCC condensation and stopped at the
///     last block that holds one of them, and
///   - the backward term MinDist(t, s) only for edges inside one SCC.
///
/// Inside a cyclic SCC the nodes are ordered by the DDG's distance-0
/// edges, which are acyclic in any legal loop, so one in-order sweep
/// relaxes every intra-iteration chain and the number of sweeps is
/// bounded by the loop-carried edges on a path, not by the SCC size.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_EDGESLACK_H
#define HCVLIW_IR_EDGESLACK_H

#include "ir/DDG.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

/// Reusable working storage of computeEdgeSlackInto: two flat arenas
/// (per-node index arrays and path labels) that keep their high-water
/// capacity, so a warm caller analyses loop after loop without malloc.
struct EdgeSlackScratch {
  std::vector<unsigned> Index;
  std::vector<int64_t> Label;
};

/// Fills \p Out (resized to G.numEdges()) with the slack of every edge,
/// indexed like G.edges(), at initiation interval \p II. \p II must be
/// >= recMII, so that no cycle has positive weight (asserted). Returns
/// the number of edge relaxations performed: a deterministic work
/// counter for the analysis.
uint64_t computeEdgeSlackInto(std::vector<int64_t> &Out, const DDG &G,
                              const std::vector<unsigned> &NodeLatency,
                              int64_t II, EdgeSlackScratch *Scratch = nullptr);

} // namespace hcvliw

#endif // HCVLIW_IR_EDGESLACK_H
