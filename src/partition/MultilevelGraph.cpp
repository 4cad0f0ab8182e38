//===- partition/MultilevelGraph.cpp - Macro-node coarsening ----------------===//

#include "partition/MultilevelGraph.h"

#include <algorithm>
#include <cassert>
#include <cstdio>

using namespace hcvliw;

void MultilevelGraph::makeLevel(CoarseLevel &Out, unsigned NumGroups,
                                const std::vector<int64_t> &EdgeSlack) {
  unsigned N = G->size();
  Out.NumMacros = NumGroups;
  Out.MacroOf.resize(N);
  Out.Rep.assign(NumGroups, 0);
  Out.Size.assign(NumGroups, 0);
  Out.FUCounts.assign(static_cast<size_t>(NumGroups) * NumFUKinds, 0);
  Out.Weight.assign(NumGroups, 0.0);
  Out.Pin.assign(PinOfGroup.begin(), PinOfGroup.begin() + NumGroups);
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    assert(GroupOfNode[Nd] >= 0 && "node without a group");
    unsigned Gp = static_cast<unsigned>(GroupOfNode[Nd]);
    Out.MacroOf[Nd] = Gp;
    if (Out.Size[Gp]++ == 0)
      Out.Rep[Gp] = Nd; // nodes scanned ascending: lowest member id
    ++Out.FUCounts[static_cast<size_t>(Gp) * NumFUKinds +
                   static_cast<unsigned>(fuKindOf(L->Ops[Nd].Op))];
    Out.Weight[Gp] += M->Isa.energy(L->Ops[Nd].Op);
  }

  // Macro adjacency: sort the half-edges by (from, to) and fold runs
  // into CSR rows (edge multiplicity, minimum node-level slack).
  HE.clear();
  for (unsigned EIx = 0; EIx < G->numEdges(); ++EIx) {
    const DDG::Edge &E = G->edge(EIx);
    unsigned A = Out.MacroOf[E.Src], B = Out.MacroOf[E.Dst];
    if (A == B)
      continue;
    int64_t S = EdgeSlack[EIx];
    HE.push_back({(static_cast<uint64_t>(A) << 32) | B, S});
    HE.push_back({(static_cast<uint64_t>(B) << 32) | A, S});
  }
  std::sort(HE.begin(), HE.end(),
            [](const HalfEdge &X, const HalfEdge &Y) { return X.Key < Y.Key; });
  Out.AdjStart.assign(NumGroups + 1, 0);
  Out.AdjMacro.clear();
  Out.AdjWeight.clear();
  Out.AdjSlack.clear();
  for (size_t I = 0; I < HE.size();) {
    size_t J = I;
    int64_t MinSlack = HE[I].Slack;
    while (J < HE.size() && HE[J].Key == HE[I].Key) {
      MinSlack = std::min(MinSlack, HE[J].Slack);
      ++J;
    }
    unsigned From = static_cast<unsigned>(HE[I].Key >> 32);
    unsigned To = static_cast<unsigned>(HE[I].Key & 0xffffffffu);
    ++Out.AdjStart[From + 1];
    Out.AdjMacro.push_back(To);
    Out.AdjWeight.push_back(static_cast<unsigned>(J - I));
    Out.AdjSlack.push_back(MinSlack);
    I = J;
  }
  for (unsigned Mac = 0; Mac < NumGroups; ++Mac)
    Out.AdjStart[Mac + 1] += Out.AdjStart[Mac];
}

unsigned MultilevelGraph::matchRound(const CoarseLevel &Cur, CoarseLevel &Out,
                                     unsigned TargetMacros, double WeightCap,
                                     const std::vector<int64_t> &EdgeSlack) {
  unsigned NumMac = Cur.NumMacros;

  // Candidate pairs straight from the CSR (each undirected pair once).
  Cands.clear();
  for (unsigned A = 0; A < NumMac; ++A)
    for (unsigned I = Cur.AdjStart[A]; I < Cur.AdjStart[A + 1]; ++I) {
      unsigned B = Cur.AdjMacro[I];
      if (B <= A)
        continue;
      Cands.push_back({Cur.AdjSlack[I], Cur.AdjWeight[I], A, B});
    }
  std::sort(Cands.begin(), Cands.end(),
            [](const MatchCand &X, const MatchCand &Y) {
              if (X.Slack != Y.Slack)
                return X.Slack < Y.Slack; // most critical first
              if (X.Weight != Y.Weight)
                return X.Weight > Y.Weight; // then heaviest
              if (X.A != Y.A)
                return X.A < Y.A;
              return X.B < Y.B;
            });

  // The balance bound (file header): a merge may not push any per-kind
  // count or the energy weight past a 1/numClusters share of the loop.
  auto canMerge = [&](unsigned A, unsigned B) {
    if (Cur.Pin[A] >= 0 && Cur.Pin[B] >= 0 && Cur.Pin[A] != Cur.Pin[B])
      return false;
    for (unsigned K = 0; K < NumFUKinds; ++K)
      if (Cur.fuCount(A, K) + Cur.fuCount(B, K) > KindCap[K])
        return false;
    return Cur.Weight[A] + Cur.Weight[B] <= WeightCap;
  };

  NewIdOfMacro.assign(NumMac, -1);
  NewPins.clear();
  unsigned NewCount = 0, Remaining = NumMac, Pairs = 0;
  for (const MatchCand &C : Cands) {
    if (Remaining <= TargetMacros)
      break;
    if (NewIdOfMacro[C.A] >= 0 || NewIdOfMacro[C.B] >= 0 ||
        !canMerge(C.A, C.B))
      continue;
    int Pin = Cur.Pin[C.A] >= 0 ? Cur.Pin[C.A] : Cur.Pin[C.B];
    NewIdOfMacro[C.A] = NewIdOfMacro[C.B] = static_cast<int>(NewCount);
    NewPins.push_back(Pin);
    ++NewCount;
    --Remaining;
    ++Pairs;
  }
  if (Pairs == 0)
    return 0; // no contractible edge (caps, pins, or disconnection)

  // Unmatched macros survive unchanged; pairing up disconnected
  // leftovers is unnecessary -- the initial partition handles them.
  for (unsigned Mac = 0; Mac < NumMac; ++Mac)
    if (NewIdOfMacro[Mac] < 0) {
      NewIdOfMacro[Mac] = static_cast<int>(NewCount++);
      NewPins.push_back(Cur.Pin[Mac]);
    }

  for (unsigned Nd = 0; Nd < G->size(); ++Nd)
    GroupOfNode[Nd] = NewIdOfMacro[Cur.MacroOf[Nd]];
  PinOfGroup.assign(NewPins.begin(), NewPins.end());
  makeLevel(Out, NewCount, EdgeSlack);
  return Pairs;
}

void MultilevelGraph::recordLevel(const CoarseLevel &Lvl) {
  if (Levels.size() <= NumLvls)
    Levels.emplace_back();
  Levels[NumLvls] = Lvl; // copy-assign reuses the slot's capacity
  ++NumLvls;
}

void MultilevelGraph::build(
    const Loop &TheLoop, const DDG &TheDDG, const MachineDescription &TheMachine,
    const std::vector<std::vector<unsigned>> &InitialGroups,
    const std::vector<int> &GroupPins, const std::vector<int64_t> &EdgeSlack,
    unsigned TargetMacros, obs::Tracer *Trace) {
  L = &TheLoop;
  G = &TheDDG;
  M = &TheMachine;
  NumLvls = 0;
  Stats = BuildStats();
  assert(InitialGroups.size() == GroupPins.size() &&
         "one pin slot per initial group");

  // Finest grouping: initial groups plus singletons.
  unsigned N = G->size();
  GroupOfNode.assign(N, -1);
  PinOfGroup.clear();
  unsigned NumGroups = 0;
  for (unsigned Gp = 0; Gp < InitialGroups.size(); ++Gp) {
    for (unsigned Nd : InitialGroups[Gp]) {
      assert(GroupOfNode[Nd] < 0 && "node in two initial groups");
      GroupOfNode[Nd] = static_cast<int>(NumGroups);
    }
    PinOfGroup.push_back(GroupPins[Gp]);
    ++NumGroups;
  }
  for (unsigned Nd = 0; Nd < N; ++Nd)
    if (GroupOfNode[Nd] < 0) {
      GroupOfNode[Nd] = static_cast<int>(NumGroups++);
      PinOfGroup.push_back(-1);
    }

  // Balance bounds for matching (file header): no macro may outgrow
  // twice the average share of a target-count macro, per kind and in
  // energy weight. A looser 1/numClusters share lets a few "snowball"
  // macros swallow a whole cluster's worth of the loop, which leaves
  // the refinement no granularity to balance with.
  unsigned Tgt = std::max(1u, TargetMacros);
  KindCap.assign(NumFUKinds, 0);
  double WeightTotal = 0;
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    ++KindCap[static_cast<unsigned>(fuKindOf(L->Ops[Nd].Op))];
    WeightTotal += M->Isa.energy(L->Ops[Nd].Op);
  }
  for (unsigned K = 0; K < NumFUKinds; ++K)
    KindCap[K] = std::max<unsigned>(2, 2 * ((KindCap[K] + Tgt - 1) / Tgt));
  double WeightCap = 2.0 * WeightTotal / Tgt;

  makeLevel(WorkA, NumGroups, EdgeSlack);
  recordLevel(WorkA);

  CoarseLevel *CurW = &WorkA, *NextW = &WorkB;
  unsigned LastRecorded = CurW->NumMacros;
  while (CurW->NumMacros > TargetMacros) {
    char LvlBuf[16];
    std::snprintf(LvlBuf, sizeof LvlBuf, "%u", NumLvls);
    obs::Span Sp(Trace, "part.coarsen:", LvlBuf);
    unsigned SegPairs = 0;
    bool Recorded = false;
    // Matching rounds accumulate until the macro count has shrunk
    // geometrically (<= 3/4 of the last recorded level) or matching
    // stalls; only then is a level recorded, keeping the stack
    // O(log N) deep.
    while (true) {
      unsigned Pairs =
          matchRound(*CurW, *NextW, TargetMacros, WeightCap, EdgeSlack);
      ++Stats.Rounds;
      if (Pairs == 0)
        break;
      SegPairs += Pairs;
      Stats.MatchedPairs += Pairs;
      std::swap(CurW, NextW);
      if (CurW->NumMacros <=
          std::max(TargetMacros, LastRecorded * 3 / 4)) {
        recordLevel(*CurW);
        LastRecorded = CurW->NumMacros;
        Recorded = true;
        break;
      }
    }
    if (Sp.active()) {
      Sp.arg("macros", CurW->NumMacros);
      Sp.arg("pairs", SegPairs);
    }
    if (!Recorded) {
      // Stalled below the geometric threshold: keep whatever shrink the
      // rounds achieved as the coarsest level.
      if (CurW->NumMacros < LastRecorded)
        recordLevel(*CurW);
      break;
    }
  }
  Stats.Levels = NumLvls;
}
