//===- ir/MinDist.h - Deprecated slack-matrix entry point -------*- C++ -*-===//
///
/// \file
/// Source compatibility for callers written against the former
/// all-pairs MinDist matrix (Floyd-Warshall, O(N^3) time and an N x N
/// buffer). Its only library reader, the partitioner's coarsening
/// order, used the matrix's cells at the DDG edges alone, so the
/// library now computes exactly those values with computeEdgeSlackInto
/// (ir/EdgeSlack.h). MinDistMatrix::compute keeps the old call
/// working: it holds that per-edge slack and can still be passed as
/// PartitionContext::SlackMatrix. New code should use ir/EdgeSlack.h.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_IR_MINDIST_H
#define HCVLIW_IR_MINDIST_H

#include "ir/EdgeSlack.h"

namespace hcvliw {

class MinDistMatrix {
  std::vector<int64_t> Slack;

public:
  /// The per-edge slack of \p G at \p II (>= recMII).
  static MinDistMatrix compute(const DDG &G,
                               const std::vector<unsigned> &NodeLatency,
                               int64_t II) {
    MinDistMatrix M;
    computeEdgeSlackInto(M.Slack, G, NodeLatency, II);
    return M;
  }

  /// One value per DDG edge, indexed like DDG::edges().
  const std::vector<int64_t> &edgeSlack() const { return Slack; }
};

} // namespace hcvliw

#endif // HCVLIW_IR_MINDIST_H
