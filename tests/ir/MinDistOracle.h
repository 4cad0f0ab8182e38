//===- tests/ir/MinDistOracle.h - All-pairs MinDist reference ---*- C++ -*-===//
//
// The classic MinDist matrix of modulo scheduling, kept only as a test
// oracle: for a candidate II, at(i, j) is the longest-path weight of a
// non-empty walk from i to j under edge weights latency(e) - II *
// distance(e) (NegInf when j is unreachable). Floyd-Warshall, O(N^3)
// time and O(N^2) space. The library reads only the slack of the DDG's
// edges, which ir/EdgeSlack computes exactly without the matrix;
// EdgeSlackTest checks it against slack(Src, Dst, 0) here.
//
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_TESTS_IR_MINDISTORACLE_H
#define HCVLIW_TESTS_IR_MINDISTORACLE_H

#include "ir/DDG.h"

#include <algorithm>
#include <cstdint>
#include <vector>

namespace hcvliw {

class MinDistOracle {
  unsigned N = 0;
  std::vector<int64_t> Data; // row-major

public:
  static constexpr int64_t NegInf = INT64_MIN / 4;

  /// \p II must be >= recMII, so that no cycle has positive weight.
  static MinDistOracle compute(const DDG &G,
                               const std::vector<unsigned> &NodeLatency,
                               int64_t II) {
    MinDistOracle M;
    M.N = G.size();
    M.Data.assign(static_cast<size_t>(M.N) * M.N, NegInf);
    for (const DDG::Edge &E : G.edges()) {
      int64_t W = static_cast<int64_t>(edgeLatency(E, NodeLatency)) -
                  II * static_cast<int64_t>(E.Distance);
      int64_t &Cell = M.Data[E.Src * M.N + E.Dst];
      Cell = std::max(Cell, W);
    }
    for (unsigned K = 0; K < M.N; ++K)
      for (unsigned I = 0; I < M.N; ++I) {
        int64_t IK = M.Data[I * M.N + K];
        if (IK == NegInf)
          continue;
        for (unsigned J = 0; J < M.N; ++J) {
          int64_t KJ = M.Data[K * M.N + J];
          if (KJ != NegInf)
            M.Data[I * M.N + J] = std::max(M.Data[I * M.N + J], IK + KJ);
        }
      }
    return M;
  }

  int64_t at(unsigned I, unsigned J) const { return Data[I * N + J]; }
  bool reaches(unsigned I, unsigned J) const { return at(I, J) != NegInf; }

  /// Longest-path height of node I over all reachable J (>= 0).
  int64_t height(unsigned I) const {
    int64_t H = 0;
    for (unsigned J = 0; J < N; ++J)
      if (reaches(I, J))
        H = std::max(H, at(I, J));
    return H;
  }

  /// II - MinDist(i, j) - MinDist(j, i), an unreachable direction
  /// counting 0.
  int64_t slack(unsigned I, unsigned J, int64_t II) const {
    int64_t Forward = reaches(I, J) ? at(I, J) : 0;
    int64_t Backward = reaches(J, I) ? at(J, I) : 0;
    return II - Forward - Backward;
  }
};

} // namespace hcvliw

#endif // HCVLIW_TESTS_IR_MINDISTORACLE_H
