//===- tests/ir/EdgeSlackTest.cpp - Per-edge slack vs. all pairs ------------===//
//
// computeEdgeSlackInto must give every DDG edge exactly the slack that
// the all-pairs Floyd-Warshall oracle gives it (MinDistOracle::slack(
// Src, Dst, 0), the value the coarsening order used to read), on every
// loop family the pipeline sees, at the coarsening II = max(recMII, 1)
// and at a looser II. Its relaxation counter is pinned far below N^3 on
// the big shapes, so a quadratic-per-source regression fails here
// deterministically rather than as a slower benchmark.
//
//===----------------------------------------------------------------------===//

#include "MinDistOracle.h"

#include "ir/EdgeSlack.h"
#include "ir/LoopBuilder.h"
#include "ir/LoopDSL.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "machine/IsaTable.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

/// Compares every edge's slack with the oracle at II = max(recMII, 1)
/// and at recMII + 3, through one reused scratch (a stale arena must
/// not leak into the next loop). Returns the relaxation count at the
/// first II.
uint64_t expectMatchesOracle(const Loop &L, EdgeSlackScratch &Scratch) {
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(L);
  int64_t RecMII = analyzeRecurrences(G, Lat).RecMII;
  uint64_t FirstRelaxations = 0;
  for (int64_t II : {std::max<int64_t>(RecMII, 1), RecMII + 3}) {
    MinDistOracle M = MinDistOracle::compute(G, Lat, II);
    std::vector<int64_t> Slack = {42}; // stale contents are overwritten
    uint64_t Relaxations = computeEdgeSlackInto(Slack, G, Lat, II, &Scratch);
    if (II == std::max<int64_t>(RecMII, 1))
      FirstRelaxations = Relaxations;
    EXPECT_EQ(Slack.size(), G.numEdges()) << L.Name;
    if (Slack.size() != G.numEdges())
      continue;
    unsigned Mismatches = 0;
    for (unsigned EIx = 0; EIx < G.numEdges(); ++EIx) {
      const DDG::Edge &E = G.edge(EIx);
      int64_t Want = M.slack(E.Src, E.Dst, 0);
      if (Slack[EIx] != Want && Mismatches++ == 0)
        ADD_FAILURE() << L.Name << " II=" << II << " edge " << EIx << " ("
                      << E.Src << "->" << E.Dst << ", distance "
                      << E.Distance << "): " << Slack[EIx] << " != oracle "
                      << Want;
    }
    EXPECT_EQ(Mismatches, 0u) << L.Name << " II=" << II;
  }
  return FirstRelaxations;
}

uint64_t expectMatchesOracle(const Loop &L) {
  EdgeSlackScratch Scratch;
  return expectMatchesOracle(L, Scratch);
}

/// A ring of \p N fadds, each consuming its predecessor; the first
/// consumes the last of the previous iteration. One SCC of N nodes with
/// a single loop-carried edge.
Loop makeRing(unsigned N) {
  LoopBuilder B("ring" + std::to_string(N), 16);
  B.op(Opcode::FAdd, "r0", Operand::imm(1), Operand::imm(1));
  for (unsigned I = 1; I < N; ++I)
    B.op(Opcode::FAdd, "r" + std::to_string(I), Operand::def(I - 1),
         Operand::imm(1));
  B.rewireOperand(0, 0, Operand::def(N - 1, 1));
  B.setInit(N - 1, 0);
  return B.take();
}

TEST(EdgeSlack, MatchesOracleOnSpecFP) {
  EdgeSlackScratch Scratch;
  unsigned Loops = 0;
  for (const BenchmarkProgram &P : buildSpecFPSuite())
    for (const Loop &L : P.Loops) {
      expectMatchesOracle(L, Scratch);
      ++Loops;
    }
  EXPECT_GT(Loops, 10u);
}

TEST(EdgeSlack, MatchesOracleOnRandomLoops) {
  EdgeSlackScratch Scratch;
  for (int Seed = 0; Seed < 50; ++Seed) {
    RNG Rng(static_cast<uint64_t>(Seed) * 7919 + 13);
    RandomLoopParams P;
    P.MinOps = 4;
    P.MaxOps = 80;
    P.MaxDist = 1 + Seed % 4;
    P.OperandWindow = Seed % 3 == 0 ? 8 : 0;
    expectMatchesOracle(makeRandomLoop(Rng, P, "rand" + std::to_string(Seed)),
                        Scratch);
  }
}

TEST(EdgeSlack, MatchesOracleOnSyntheticFamilies) {
  EdgeSlackScratch Scratch;
  for (unsigned Muls : {1u, 3u})
    for (unsigned Adds : {0u, 2u})
      for (unsigned Dist : {1u, 2u, 3u})
        expectMatchesOracle(makeChainRecurrenceLoop("chain", Muls, Adds, Dist,
                                                    /*SideLanes=*/2, 32, 1.0),
                            Scratch);
  for (unsigned Adds : {2u, 8u, 24u})
    for (unsigned Dist : {1u, 4u})
      expectMatchesOracle(makeWideRecurrenceLoop("wide", Adds, Dist,
                                                 /*SideLanes=*/3, 32, 1.0),
                          Scratch);
  expectMatchesOracle(makeBorderlineLoop("border", 4, 6, 32, 1.0), Scratch);
  expectMatchesOracle(makeStencilLoop("stencil", 7, 32, 1.0), Scratch);
  expectMatchesOracle(makeStreamLoop("stream", 6, 32, 1.0), Scratch);
  expectMatchesOracle(makeUnrolledKernelLoop("kernel", 256), Scratch);
}

TEST(EdgeSlack, MatchesOracleOnParallelAndSelfEdges) {
  // Parallel flow edges (y = x * x, z = y + y), self edges (s, p),
  // two self-loops chained into one SCC (a <-> b over distances 1 and
  // 2), and memory edges between one store and loads at several
  // distances.
  Loop L = parseSingleLoop(R"(
loop t trip=16
  arrays A O
  x = load A
  y = fmul x x
  z = fadd y y
  s = fadd s@1 z init=0
  p = fmul p@2 s init=1
  a = fadd b@1 a@1 init=0
  b = fadd a b@2 init=0
  q = fadd a p
  store A q off=2
  w = load A off=1
  store O w
endloop
)");
  DDG G = DDG::build(L);
  unsigned SelfEdges = 0;
  for (const DDG::Edge &E : G.edges())
    SelfEdges += E.Src == E.Dst;
  EXPECT_GE(SelfEdges, 3u);
  expectMatchesOracle(L);
}

TEST(EdgeSlack, SingleSccRingIsExactAndNearLinear) {
  const unsigned N = 512;
  Loop L = makeRing(N);
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(L);
  RecurrenceInfo Recs = analyzeRecurrences(G, Lat);
  ASSERT_EQ(Recs.Recurrences.size(), 1u);
  ASSERT_EQ(Recs.Recurrences[0].Nodes.size(), N);

  uint64_t Relaxations = expectMatchesOracle(L);
  // From each source one sweep to the end of the ring, then one over
  // the loop-carried edge back to the source: every edge relaxed once
  // per source, N^2 in all, where Floyd-Warshall does N^3.
  EXPECT_LT(Relaxations, uint64_t(N) * N * N / 64);
  EXPECT_LE(Relaxations, uint64_t(N) * N);
}

TEST(EdgeSlack, RelaxationsStayFarBelowCubicOnBigKernels) {
  const unsigned N = 1024;
  Loop L = makeUnrolledKernelLoop("kernel", N);
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(L);
  int64_t II = std::max<int64_t>(analyzeRecurrences(G, Lat).RecMII, 1);
  std::vector<int64_t> Slack;
  EdgeSlackScratch Scratch;
  uint64_t Relaxations = computeEdgeSlackInto(Slack, G, Lat, II, &Scratch);
  EXPECT_EQ(Slack.size(), G.numEdges());
  EXPECT_GT(Relaxations, 0u);
  EXPECT_LT(Relaxations, uint64_t(N) * N * N / 64);
  EXPECT_LT(Relaxations, uint64_t(N) * N); // near-linear on this shape
  // Deterministic: the same loop always costs the same work.
  EXPECT_EQ(computeEdgeSlackInto(Slack, G, Lat, II, &Scratch), Relaxations);
}

TEST(EdgeSlack, DeprecatedMinDistEntryPointHoldsTheSameSlack) {
  Loop L = makeWideRecurrenceLoop("wide", 6, 2, 2, 32, 1.0);
  DDG G = DDG::build(L);
  std::vector<unsigned> Lat = IsaTable().nodeLatencies(L);
  int64_t II = std::max<int64_t>(analyzeRecurrences(G, Lat).RecMII, 1);
  std::vector<int64_t> Slack;
  computeEdgeSlackInto(Slack, G, Lat, II);
  EXPECT_EQ(MinDistMatrix::compute(G, Lat, II).edgeSlack(), Slack);
}

TEST(EdgeSlack, EdgelessLoop) {
  Loop L = parseSingleLoop(R"(
loop t trip=4
  arrays A
  x = load A
endloop
)");
  DDG G = DDG::build(L);
  std::vector<int64_t> Slack = {1, 2, 3};
  EXPECT_EQ(computeEdgeSlackInto(Slack, G, IsaTable().nodeLatencies(L), 1),
            0u);
  EXPECT_TRUE(Slack.empty());
}

} // namespace
