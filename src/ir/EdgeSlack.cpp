//===- ir/EdgeSlack.cpp - Exact per-edge dependence slack -------------------===//

#include "ir/EdgeSlack.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

namespace {

constexpr int64_t NegInf = INT64_MIN / 4;
constexpr unsigned Unassigned = ~0u;

/// Per-node arrays carved out of EdgeSlackScratch::Index. Order lists
/// the nodes as SCC blocks in a topological order of the condensation
/// (each block contiguous); Pos inverts it; component C occupies
/// Order[Start[C] .. End[C]). The Tarjan arrays are dead once the
/// blocks are laid out, and Idx/Low double as Kahn's in-degree and
/// queue.
struct Layout {
  unsigned *Comp, *Order, *Pos, *Start, *End, *Dirty;
  unsigned *Idx, *Low, *Stack, *CallNode, *CallCur;
  static constexpr unsigned NumArrays = 11;

  Layout(std::vector<unsigned> &Arena, unsigned N) {
    Arena.resize(static_cast<size_t>(NumArrays) * N);
    unsigned *P = Arena.data();
    for (unsigned **A : {&Comp, &Order, &Pos, &Start, &End, &Dirty, &Idx,
                         &Low, &Stack, &CallNode, &CallCur}) {
      *A = P;
      P += N;
    }
  }
};

/// Iterative Tarjan over the CSR adjacency. Tarjan emits an SCC only
/// after every SCC it reaches, so filling Order from the back lays the
/// blocks out in topological order.
void layOutComponents(const DDG &G, Layout &A) {
  const unsigned N = G.size();
  std::fill(A.Idx, A.Idx + N, 0u);
  std::fill(A.Comp, A.Comp + N, Unassigned);
  unsigned Counter = 0, Top = 0, Depth = 0, Filled = N, NumComps = 0;
  auto visit = [&](unsigned V) {
    A.Idx[V] = A.Low[V] = ++Counter;
    A.Stack[Top++] = V;
    A.CallNode[Depth] = V;
    A.CallCur[Depth++] = 0;
  };
  for (unsigned Root = 0; Root < N; ++Root) {
    if (A.Idx[Root])
      continue;
    visit(Root);
    while (Depth) {
      unsigned V = A.CallNode[Depth - 1];
      EdgeIxSpan Outs = G.outEdges(V);
      if (A.CallCur[Depth - 1] < Outs.size()) {
        unsigned W = G.edge(Outs.begin()[A.CallCur[Depth - 1]++]).Dst;
        if (!A.Idx[W])
          visit(W);
        else if (A.Comp[W] == Unassigned) // visited and still on the stack
          A.Low[V] = std::min(A.Low[V], A.Idx[W]);
        continue;
      }
      if (--Depth)
        A.Low[A.CallNode[Depth - 1]] =
            std::min(A.Low[A.CallNode[Depth - 1]], A.Low[V]);
      if (A.Low[V] != A.Idx[V])
        continue;
      // V roots an SCC: its members are the stack from V upwards.
      unsigned Size = 0;
      do
        ++Size;
      while (A.Stack[Top - Size] != V);
      Top -= Size;
      Filled -= Size;
      for (unsigned K = 0; K < Size; ++K) {
        A.Comp[A.Stack[Top + K]] = NumComps;
        A.Order[Filled + K] = A.Stack[Top + K];
      }
      A.Start[NumComps] = Filled;
      A.End[NumComps] = Filled + Size;
      ++NumComps;
    }
  }
}

/// Reorders each multi-node block by its distance-0 edges (Kahn). Those
/// edges are acyclic in a legal loop; should they not be, the nodes
/// Kahn cannot place keep their relative order (the sweeps then need
/// more rounds, never give other values).
void orderBlocksByDistanceZeroEdges(const DDG &G, Layout &A) {
  const unsigned N = G.size();
  unsigned *InDeg = A.Idx, *Queue = A.Low;
  for (unsigned B = 0; B < N;) {
    const unsigned C = A.Comp[A.Order[B]], E = A.End[C];
    if (E - B > 1) {
      auto forIntraZeroEdges = [&](unsigned X, auto &&Fn) {
        for (unsigned EIx : G.outEdges(X)) {
          const DDG::Edge &Ed = G.edge(EIx);
          if (Ed.Distance == 0 && Ed.Dst != X && A.Comp[Ed.Dst] == C)
            Fn(Ed.Dst);
        }
      };
      for (unsigned Q = B; Q < E; ++Q)
        InDeg[A.Order[Q]] = 0;
      for (unsigned Q = B; Q < E; ++Q)
        forIntraZeroEdges(A.Order[Q], [&](unsigned D) { ++InDeg[D]; });
      unsigned Tail = B;
      for (unsigned Q = B; Q < E; ++Q)
        if (InDeg[A.Order[Q]] == 0)
          Queue[Tail++] = A.Order[Q];
      for (unsigned Head = B; Head < Tail; ++Head)
        forIntraZeroEdges(Queue[Head], [&](unsigned D) {
          if (--InDeg[D] == 0)
            Queue[Tail++] = D;
        });
      for (unsigned Q = B; Q < E && Tail < E; ++Q)
        if (InDeg[A.Order[Q]] > 0)
          Queue[Tail++] = A.Order[Q];
      std::copy(Queue + B, Queue + E, A.Order + B);
    }
    B = E;
  }
  for (unsigned P = 0; P < N; ++P)
    A.Pos[A.Order[P]] = P;
}

} // namespace

uint64_t hcvliw::computeEdgeSlackInto(std::vector<int64_t> &Out,
                                      const DDG &G,
                                      const std::vector<unsigned> &NodeLatency,
                                      int64_t II, EdgeSlackScratch *Scratch) {
  EdgeSlackScratch Local;
  EdgeSlackScratch &S = Scratch ? *Scratch : Local;
  const unsigned N = G.size(), NE = G.numEdges();
  Out.assign(NE, 0);
  if (N == 0)
    return 0;

  Layout A(S.Index, N);
  layOutComponents(G, A);
  orderBlocksByDistanceZeroEdges(G, A);

  // Labels: Dist[N] (longest path from the current source; NegInf =
  // not reached) followed by the edge weights.
  S.Label.resize(static_cast<size_t>(N) + NE);
  int64_t *Dist = S.Label.data(), *Weight = Dist + N;
  std::fill(Dist, Dist + N, NegInf);
  for (unsigned EIx = 0; EIx < NE; ++EIx) {
    const DDG::Edge &Ed = G.edge(EIx);
    Weight[EIx] = static_cast<int64_t>(edgeLatency(Ed, NodeLatency)) -
                  II * static_cast<int64_t>(Ed.Distance);
  }
  std::fill(A.Dirty, A.Dirty + N, 0u);

  uint64_t Relaxations = 0;
  for (unsigned U = 0; U < N; ++U) {
    const unsigned C = A.Comp[U];
    // Blocks past the last one holding a successor of U (or U's own,
    // whose labels give the backward terms) cannot matter.
    unsigned Stop = A.End[C];
    for (unsigned EIx : G.outEdges(U))
      Stop = std::max(Stop, A.End[A.Comp[G.edge(EIx).Dst]]);

    // Single-source longest paths, block by block. Dist[U] = 0 is the
    // empty walk; a walk back into U only updates Cyc (the heaviest
    // cycle through U), since cycles are non-positive and so never
    // lengthen a walk to another node.
    int64_t Cyc = NegInf;
    Dist[U] = 0;
    A.Dirty[U] = 1;
    for (unsigned P = A.Pos[U]; P < Stop;) {
      const unsigned BStart = A.Start[A.Comp[A.Order[P]]];
      const unsigned BEnd = A.End[A.Comp[A.Order[P]]];
      // In-order sweeps over the block's dirty nodes; a label that
      // improves behind the sweep (over a loop-carried edge) starts
      // another sweep from there.
      unsigned Sweeps = 0;
      for (unsigned Lo = P; Lo < BEnd;) {
        if (++Sweeps > BEnd - BStart + 1) {
          assert(false && "II below recMII: positive cycle");
          break;
        }
        unsigned Next = BEnd;
        for (unsigned Q = Lo; Q < BEnd; ++Q) {
          const unsigned X = A.Order[Q];
          if (!A.Dirty[X])
            continue;
          A.Dirty[X] = 0;
          for (unsigned EIx : G.outEdges(X)) {
            ++Relaxations;
            const unsigned D = G.edge(EIx).Dst;
            const int64_t W = Dist[X] + Weight[EIx];
            if (D == U) {
              Cyc = std::max(Cyc, W);
              continue;
            }
            const unsigned PD = A.Pos[D];
            if (PD >= Stop || W <= Dist[D])
              continue;
            Dist[D] = W;
            A.Dirty[D] = 1;
            if (PD <= Q)
              Next = std::min(Next, PD);
          }
        }
        Lo = Next;
      }
      P = BEnd;
    }

    // Forward terms of U's out-edges; backward terms of the in-edges
    // that stay inside U's SCC (every other backward term is 0).
    for (unsigned EIx : G.outEdges(U)) {
      const unsigned D = G.edge(EIx).Dst;
      Out[EIx] -= D == U ? Cyc : Dist[D];
    }
    for (unsigned EIx : G.inEdges(U)) {
      const unsigned Src = G.edge(EIx).Src;
      if (A.Comp[Src] == C)
        Out[EIx] -= Src == U ? Cyc : Dist[Src];
    }
    for (unsigned P = A.Start[C]; P < Stop; ++P)
      Dist[A.Order[P]] = NegInf;
  }
  return Relaxations;
}
