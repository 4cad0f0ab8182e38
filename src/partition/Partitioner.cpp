//===- partition/Partitioner.cpp - Multilevel DDG partitioning --------------===//

#include "partition/Partitioner.h"
#include "fault/Fault.h"
#include "ir/EdgeSlack.h"
#include "ir/MinDist.h"
#include "partition/MultilevelGraph.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <new>

using namespace hcvliw;

namespace {

ScoreObjective objectiveOf(const PartitionContext &Ctx,
                           const PartitionerOptions &Opts) {
  ScoreObjective Obj;
  Obj.ED2 = Opts.ED2Objective;
  Obj.Energy = Ctx.Energy;
  Obj.Scaling = Ctx.Scaling;
  Obj.TripCount = Ctx.TripCount;
  return Obj;
}

} // namespace

double hcvliw::scorePartition(const PartitionContext &Ctx,
                              const PartitionerOptions &Opts,
                              const Partition &P) {
  // The full estimate: the reference every PartitionScorer score must
  // equal bit for bit.
  PseudoSchedule PS;
  estimatePseudoScheduleInto(PS, *Ctx.L, *Ctx.G, *Ctx.M, *Ctx.Plan, P);
  unsigned Mem = 0;
  for (const auto &O : Ctx.L->Ops)
    if (isMemoryOpcode(O.Op))
      ++Mem;
  std::vector<double> Tmp;
  return partitionObjective(objectiveOf(Ctx, Opts), *Ctx.M, *Ctx.Plan, Mem,
                            PS.Feasible, PS.Overflow, PS.Comms,
                            PS.WInsPerCluster, PS.ItLengthNs, Tmp);
}

namespace {

/// Binds \p Sc to this run's loop, plan and objective.
void bindScorer(PartitionScorer &Sc, const PartitionContext &Ctx,
                const PartitionerOptions &Opts) {
  Sc.bind(*Ctx.L, *Ctx.G, *Ctx.M, *Ctx.Plan, objectiveOf(Ctx, Opts));
}

/// Adds the scorer's work counters to the run's stats.
void addScoreStats(const PartitionContext &Ctx, const PartitionScorer &Sc) {
  if (!Ctx.Stats)
    return;
  Ctx.Stats->ScoreEvals += static_cast<uint32_t>(Sc.Evals);
  Ctx.Stats->ScoreRelaxations += Sc.Relaxations;
}

/// Pre-places critical recurrences; returns initial groups + pins for
/// coarsening (into the caller's reusable key buffers), or false when
/// some recurrence fits nowhere.
bool prePlaceRecurrences(const PartitionContext &Ctx, bool EnablePinning,
                         CoarsenMemoKey &Key, std::vector<int64_t> &Free) {
  const MachineDescription &M = *Ctx.M;
  const MachinePlan &Plan = *Ctx.Plan;
  unsigned NC = M.numClusters();

  // Remaining per-cluster, per-kind slot capacity (flat [C][K]).
  Free.resize(static_cast<size_t>(NC) * NumFUKinds);
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C * NumFUKinds + K] =
          Plan.Clusters[C].II *
          static_cast<int64_t>(
              M.Clusters[C].fuCount(static_cast<FUKind>(K)));

  int64_t MinII = Plan.Clusters[0].II;
  for (const auto &D : Plan.Clusters)
    MinII = std::min(MinII, D.II);

  size_t NG = 0;
  auto appendGroup = [&](const std::vector<unsigned> &Nodes, int Pin) {
    if (NG < Key.Groups.size())
      Key.Groups[NG].assign(Nodes.begin(), Nodes.end());
    else
      Key.Groups.push_back(Nodes);
    if (NG < Key.Pins.size())
      Key.Pins[NG] = Pin;
    else
      Key.Pins.push_back(Pin);
    ++NG;
  };

  // Recurrences arrive sorted by descending recMII (most critical first).
  for (const Recurrence &R : Ctx.Recs->Recurrences) {
    unsigned Need[NumFUKinds] = {0};
    for (unsigned N : R.Nodes)
      ++Need[static_cast<unsigned>(fuKindOf(Ctx.L->Ops[N].Op))];

    bool MustPin = EnablePinning && R.RecMII > MinII;
    if (!MustPin) {
      appendGroup(R.Nodes, -1);
      continue;
    }

    // Slowest feasible cluster: maximum running period whose II admits
    // the recurrence and whose capacity can still hold its operations.
    int Best = -1;
    for (unsigned C = 0; C < NC; ++C) {
      if (Plan.Clusters[C].II < R.RecMII)
        continue;
      bool Fits = true;
      for (unsigned K = 0; K < NumFUKinds; ++K)
        if (static_cast<int64_t>(Need[K]) > Free[C * NumFUKinds + K])
          Fits = false;
      if (!Fits)
        continue;
      if (Best < 0 ||
          Plan.Clusters[C].PeriodNs > Plan.Clusters[Best].PeriodNs)
        Best = static_cast<int>(C);
    }
    if (Best < 0)
      return false; // grow the IT
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[static_cast<unsigned>(Best) * NumFUKinds + K] -= Need[K];
    appendGroup(R.Nodes, Best);
  }
  Key.Groups.resize(NG);
  Key.Pins.resize(NG);
  return true;
}

/// Boundary FM-style refinement of one level on the surrogate objective
///
///   1e6 * (total per-cluster per-kind capacity overload)
///   + (DDG edges cut between clusters)
///   + 1e-3 * (sum of squared per-cluster energy weights)
///
/// evaluated incrementally: each pass picks the highest-gain unlocked
/// boundary macro from a max-heap, applies the move when its recomputed
/// gain is strictly positive, locks the macro, and refreshes its
/// neighbors, until no improving move remains. Every applied move
/// strictly decreases the surrogate, so the passes terminate; the
/// caller only keeps the result when the *exact* objective did not get
/// worse. Deterministic: ties break toward the lowest macro id and
/// lowest cluster id, and the warm path's cut-row stamp cache
/// (FMCutStamp) reuses values the cold path recomputes identically.
uint64_t refineLevelFM(const PartitionContext &Ctx,
                       const PartitionerOptions &Opts, PartitionScratch &S,
                       const CoarseLevel &Lvl, std::vector<unsigned> &Assign,
                       PartitionStats *Stats) {
  const MachineDescription &M = *Ctx.M;
  const MachinePlan &Plan = *Ctx.Plan;
  const unsigned NC = M.numClusters();
  const unsigned LN = Lvl.NumMacros;
  const bool Memo = S.EnableMemo;

  S.FMCap.resize(static_cast<size_t>(NC) * NumFUKinds);
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K)
      S.FMCap[C * NumFUKinds + K] =
          Plan.Clusters[C].II *
          static_cast<int64_t>(
              M.Clusters[C].fuCount(static_cast<FUKind>(K)));
  S.FMLoad.assign(static_cast<size_t>(NC) * NumFUKinds, 0);
  S.FMWeight.assign(NC, 0.0);
  for (unsigned Mac = 0; Mac < LN; ++Mac) {
    unsigned C = Assign[Mac];
    for (unsigned K = 0; K < NumFUKinds; ++K)
      S.FMLoad[C * NumFUKinds + K] += Lvl.fuCount(Mac, K);
    S.FMWeight[C] += Lvl.Weight[Mac];
  }
  S.FMCutTo.assign(static_cast<size_t>(LN) * NC, 0);
  S.FMCutStamp.assign(LN, ~uint64_t(0));
  S.FMNbrVer.assign(LN, 0);
  S.FMLocked.assign(LN, 0);

  // Overload reduction of moving Mac from Home to C (positive = less).
  auto capGain = [&](unsigned Mac, unsigned Home, unsigned C) {
    int64_t D = 0;
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      int64_t W = Lvl.fuCount(Mac, K);
      if (!W)
        continue;
      int64_t LH = S.FMLoad[Home * NumFUKinds + K];
      int64_t CH = S.FMCap[Home * NumFUKinds + K];
      int64_t LC = S.FMLoad[C * NumFUKinds + K];
      int64_t CC = S.FMCap[C * NumFUKinds + K];
      D += std::max<int64_t>(0, LH - CH) - std::max<int64_t>(0, LH - W - CH);
      D -= std::max<int64_t>(0, LC + W - CC) - std::max<int64_t>(0, LC - CC);
    }
    return D;
  };

  // Cut mass of Mac toward every cluster. The row only changes when a
  // neighbor moves, so the warm path stamps it with the macro's
  // neighbor version and skips the rescan on a match (exact: the cold
  // path recomputes the identical sums).
  auto cutRow = [&](unsigned Mac) -> const int64_t * {
    int64_t *Row = &S.FMCutTo[static_cast<size_t>(Mac) * NC];
    if (!(Memo && S.FMCutStamp[Mac] == S.FMNbrVer[Mac])) {
      std::fill(Row, Row + NC, int64_t(0));
      for (unsigned I = Lvl.AdjStart[Mac]; I < Lvl.AdjStart[Mac + 1]; ++I)
        Row[Assign[Lvl.AdjMacro[I]]] += Lvl.AdjWeight[I];
      S.FMCutStamp[Mac] = S.FMNbrVer[Mac];
    }
    return Row;
  };

  auto bestMove = [&](unsigned Mac, double &BestGain, unsigned &BestC) {
    unsigned Home = Assign[Mac];
    const int64_t *Cut = cutRow(Mac);
    double WMac = Lvl.Weight[Mac];
    double WH = S.FMWeight[Home];
    BestGain = -std::numeric_limits<double>::infinity();
    BestC = Home;
    for (unsigned C = 0; C < NC; ++C) {
      if (C == Home)
        continue;
      double WC = S.FMWeight[C];
      double DW2 = (WH - WMac) * (WH - WMac) + (WC + WMac) * (WC + WMac) -
                   WH * WH - WC * WC;
      double G = 1e6 * static_cast<double>(capGain(Mac, Home, C)) +
                 static_cast<double>(Cut[C] - Cut[Home]) - 1e-3 * DW2;
      if (G > BestGain) { // strict: ties keep the lowest cluster id
        BestGain = G;
        BestC = C;
      }
    }
  };

  auto apply = [&](unsigned Mac, unsigned C) {
    unsigned Home = Assign[Mac];
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      int64_t W = Lvl.fuCount(Mac, K);
      S.FMLoad[Home * NumFUKinds + K] -= W;
      S.FMLoad[C * NumFUKinds + K] += W;
    }
    S.FMWeight[Home] -= Lvl.Weight[Mac];
    S.FMWeight[C] += Lvl.Weight[Mac];
    Assign[Mac] = C;
    for (unsigned I = Lvl.AdjStart[Mac]; I < Lvl.AdjStart[Mac + 1]; ++I)
      ++S.FMNbrVer[Lvl.AdjMacro[I]];
  };

  auto HeapLess = [](const PartitionScratch::FMHeapEntry &A,
                     const PartitionScratch::FMHeapEntry &B) {
    if (A.Gain != B.Gain)
      return A.Gain < B.Gain; // max-heap on gain
    return A.Mac > B.Mac;     // ties: lowest macro id on top
  };

  uint64_t Moves = 0;
  unsigned PassesRun = 0;
  for (unsigned Pass = 0; Pass < Opts.MaxFMPasses; ++Pass) {
    std::fill(S.FMLocked.begin(), S.FMLocked.end(), uint8_t(0));
    uint64_t MovesThisPass = 0;
    while (true) {
      // Fill: every unlocked, unpinned macro with a positive best gain.
      S.FMHeap.clear();
      for (unsigned Mac = 0; Mac < LN; ++Mac) {
        if (S.FMLocked[Mac] || Lvl.Pin[Mac] >= 0)
          continue;
        double G;
        unsigned C;
        bestMove(Mac, G, C);
        if (G > 0)
          S.FMHeap.push_back({G, Mac});
      }
      if (S.FMHeap.empty())
        break;
      std::make_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
      // Drain: lazy invalidation — a popped entry whose gain is stale
      // is re-inserted at its current value instead of applied.
      while (!S.FMHeap.empty()) {
        std::pop_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
        PartitionScratch::FMHeapEntry E = S.FMHeap.back();
        S.FMHeap.pop_back();
        if (S.FMLocked[E.Mac])
          continue;
        double G;
        unsigned C;
        bestMove(E.Mac, G, C);
        if (G != E.Gain) {
          if (G > 0) {
            S.FMHeap.push_back({G, E.Mac});
            std::push_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
          }
          continue;
        }
        if (G <= 0)
          continue;
        apply(E.Mac, C);
        S.FMLocked[E.Mac] = 1;
        ++MovesThisPass;
        for (unsigned I = Lvl.AdjStart[E.Mac]; I < Lvl.AdjStart[E.Mac + 1];
             ++I) {
          unsigned Nb = Lvl.AdjMacro[I];
          if (S.FMLocked[Nb] || Lvl.Pin[Nb] >= 0)
            continue;
          double NG;
          unsigned NbC;
          bestMove(Nb, NG, NbC);
          if (NG > 0) {
            S.FMHeap.push_back({NG, Nb});
            std::push_heap(S.FMHeap.begin(), S.FMHeap.end(), HeapLess);
          }
        }
      }
    }
    ++PassesRun;
    Moves += MovesThisPass;
    if (MovesThisPass == 0)
      break;
  }
  if (Stats) {
    Stats->FMPasses += PassesRun;
    Stats->FMMoves += static_cast<uint32_t>(Moves);
  }
  return Moves;
}

/// The graceful-degradation rung behind the multilevel path: a flat,
/// coarsening-free partition built directly from the pre-placement
/// groups (recurrences stay whole) plus singleton nodes, assigned by
/// the same pins-first / weight-descending capacity best-fit as the
/// coarsest-level initial assignment, with no refinement. Runs when an
/// armed injector degrades "part.coarsen" or when the multilevel path
/// itself runs out of memory. Allocation-light and a pure function of
/// (loop, plan, options), so degraded runs stay deterministic; the
/// usual feasibility gate still applies, so an infeasible flat
/// partition reports std::nullopt and the IT sweep grows the IT
/// normally.
std::optional<Partition> flatPartition(const PartitionContext &Ctx,
                                       const PartitionerOptions &Opts) {
  const MachineDescription &M = *Ctx.M;
  const MachinePlan &Plan = *Ctx.Plan;
  unsigned NC = M.numClusters();
  unsigned NumNodes = Ctx.G->size();
  if (Ctx.Stats)
    ++Ctx.Stats->FlatFallbacks;

  // Recompute the pre-placement into local buffers (pure function):
  // the scratch copy may be mid-mutation when the multilevel path
  // threw, and this rung must not depend on partial state.
  CoarsenMemoKey Key;
  std::vector<int64_t> Free;
  if (!prePlaceRecurrences(Ctx, Opts.PrePlaceRecurrences, Key, Free))
    return std::nullopt;

  // Units: one per pre-placement group (recurrences are never split),
  // plus a singleton unit per node outside every group.
  struct Unit {
    std::vector<unsigned> Nodes;
    int Pin = -1;
  };
  std::vector<uint8_t> Grouped(NumNodes, 0);
  std::vector<Unit> Units(Key.Groups.size());
  for (size_t G = 0; G < Key.Groups.size(); ++G) {
    Units[G].Nodes = Key.Groups[G];
    Units[G].Pin = Key.Pins[G];
    for (unsigned N : Key.Groups[G])
      Grouped[N] = 1;
  }
  for (unsigned N = 0; N < NumNodes; ++N)
    if (!Grouped[N]) {
      Units.emplace_back();
      Units.back().Nodes.push_back(N);
    }

  // Per-unit FU demand (flat [unit][kind]).
  std::vector<int64_t> Need(Units.size() * NumFUKinds, 0);
  for (size_t U = 0; U < Units.size(); ++U)
    for (unsigned N : Units[U].Nodes)
      ++Need[U * NumFUKinds +
             static_cast<unsigned>(fuKindOf(Ctx.L->Ops[N].Op))];

  // Fresh capacity, then the coarse initial-assignment policy: pins at
  // their cluster, everything else largest-first onto the cluster with
  // the most remaining slack (least overflow when nothing fits).
  Free.assign(static_cast<size_t>(NC) * NumFUKinds, 0);
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C * NumFUKinds + K] =
          Plan.Clusters[C].II *
          static_cast<int64_t>(
              M.Clusters[C].fuCount(static_cast<FUKind>(K)));

  Partition P;
  P.ClusterOf.assign(NumNodes, 0);
  auto place = [&](size_t U, unsigned C) {
    for (unsigned N : Units[U].Nodes)
      P.ClusterOf[N] = C;
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C * NumFUKinds + K] -= Need[U * NumFUKinds + K];
  };

  std::vector<unsigned> Order(Units.size());
  for (unsigned I = 0; I < Units.size(); ++I)
    Order[I] = I;
  std::sort(Order.begin(), Order.end(), [&](unsigned A, unsigned B) {
    if (Units[A].Nodes.size() != Units[B].Nodes.size())
      return Units[A].Nodes.size() > Units[B].Nodes.size();
    return A < B;
  });
  for (unsigned U : Order) {
    if (Units[U].Pin >= 0) {
      place(U, static_cast<unsigned>(Units[U].Pin));
      continue;
    }
    int BestFit = -1;
    int64_t BestFitSlack = 0;
    int BestOverflow = -1;
    int64_t LeastOverflow = 0;
    for (unsigned C = 0; C < NC; ++C) {
      bool Fits = true;
      int64_t Slk = 0, Overflow = 0;
      for (unsigned K = 0; K < NumFUKinds; ++K) {
        int64_t Rem = Free[C * NumFUKinds + K] - Need[U * NumFUKinds + K];
        if (Rem < 0) {
          Fits = false;
          Overflow -= Rem;
        } else {
          Slk += Rem;
        }
      }
      if (Fits && (BestFit < 0 || Slk > BestFitSlack)) {
        BestFit = static_cast<int>(C);
        BestFitSlack = Slk;
      }
      if (!Fits && (BestOverflow < 0 || Overflow < LeastOverflow)) {
        BestOverflow = static_cast<int>(C);
        LeastOverflow = Overflow;
      }
    }
    place(U, BestFit >= 0 ? static_cast<unsigned>(BestFit)
                          : static_cast<unsigned>(BestOverflow));
  }

  PartitionScorer LocalScorer;
  PartitionScorer &Sc = Ctx.Scratch ? Ctx.Scratch->Scorer : LocalScorer;
  bindScorer(Sc, Ctx, Opts);
  Sc.reset(P.ClusterOf);
  double Score = Sc.score();
  addScoreStats(Ctx, Sc);
  if (Ctx.Stats) {
    Ctx.Stats->InitialScore = Score;
    Ctx.Stats->FinalScore = Score;
  }
  if (Score >= InfeasiblePartitionScore)
    return std::nullopt; // still infeasible: grow the IT normally
  return P;
}

/// The normal multilevel path (file header steps 2-4); \p S holds the
/// pre-placement result in S.Key / S.Free.
std::optional<Partition> multilevelPartition(const PartitionContext &Ctx,
                                             const PartitionerOptions &Opts,
                                             PartitionScratch &S) {
  const MachineDescription &M = *Ctx.M;
  unsigned NC = M.numClusters();
  unsigned NumNodes = Ctx.G->size();
  // Coarsest target: CoarsestPerCluster macros per cluster, but never
  // more than half the node count — small loops must still coarsen, or
  // the initial best-fit scatters connected nodes that a few greedy
  // passes cannot regroup.
  S.Key.TargetMacros =
      std::max(NC, std::min(NC * std::max(1u, Opts.CoarsestPerCluster),
                            NumNodes / 2));

  // Per-edge slack for the coarsening order, on reference latencies at
  // the recurrence-safe II; IT-independent, so drivers that retry IT
  // steps pass it precomputed through the context.
  std::vector<int64_t> OwnSlack;
  const std::vector<int64_t> *Slack = Ctx.EdgeSlack;
  if (!Slack && Ctx.SlackMatrix)
    Slack = &Ctx.SlackMatrix->edgeSlack();
  if (!Slack) {
    computeEdgeSlackInto(OwnSlack, *Ctx.G, M.Isa.nodeLatencies(*Ctx.L),
                         std::max<int64_t>(Ctx.Recs->RecMII, 1));
    Slack = &OwnSlack;
  }

  // Coarsening: on the warm-start path, reuse the previous attempt's
  // level stack when the CoarsenMemoKey matches exactly (hash first,
  // then the full comparison) — the other build inputs (loop, DDG,
  // machine, slack) are fixed for the whole Figure 5 run, so the key
  // match makes the reuse exact. The cold reference path (EnableMemo
  // false) rebuilds every attempt.
  size_t KeyHash = CoarsenMemoKeyHash{}(S.Key);
  bool ReuseML = S.EnableMemo && S.MLValid && KeyHash == S.MemoHashVal &&
                 S.Key == S.MemoKey;
  if (!ReuseML) {
    S.ML.build(*Ctx.L, *Ctx.G, M, S.Key.Groups, S.Key.Pins, *Slack,
               S.Key.TargetMacros, Ctx.Trace);
    if (Ctx.Stats) {
      ++Ctx.Stats->CoarsenBuilds;
      Ctx.Stats->Levels += S.ML.buildStats().Levels;
      Ctx.Stats->MatchedPairs += S.ML.buildStats().MatchedPairs;
    }
    if (S.EnableMemo) {
      std::swap(S.MemoKey, S.Key); // keep both buffers' capacity alive
      S.MemoHashVal = KeyHash;
      S.MLValid = true;
    }
  } else if (Ctx.Stats) {
    ++Ctx.Stats->CoarsenMemoHits;
  }
  const MultilevelGraph &ML = S.ML;

  // Initial assignment of the coarsest macros: pins first, then largest
  // macros onto the cluster with the most remaining per-kind slot
  // capacity (capacity-aware best fit keeps the starting point feasible
  // whenever the coarse macros allow it).
  const CoarseLevel &Coarsest = ML.coarsest();
  unsigned NumMac = Coarsest.NumMacros;
  std::vector<unsigned> &ClusterOfMacro = S.ClusterOfMacro;
  ClusterOfMacro.assign(NumMac, 0);
  std::vector<int64_t> &Free = S.Free;
  Free.resize(static_cast<size_t>(NC) * NumFUKinds);
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C * NumFUKinds + K] =
          Ctx.Plan->Clusters[C].II *
          static_cast<int64_t>(
              M.Clusters[C].fuCount(static_cast<FUKind>(K)));
  auto place = [&](unsigned Mac, unsigned C) {
    ClusterOfMacro[Mac] = C;
    for (unsigned K = 0; K < NumFUKinds; ++K)
      Free[C * NumFUKinds + K] -= Coarsest.fuCount(Mac, K);
  };

  std::vector<unsigned> &ByWeight = S.ByWeight;
  ByWeight.resize(NumMac);
  for (unsigned I = 0; I < NumMac; ++I)
    ByWeight[I] = I;
  std::sort(ByWeight.begin(), ByWeight.end(), [&](unsigned A, unsigned B) {
    if (Coarsest.Weight[A] != Coarsest.Weight[B])
      return Coarsest.Weight[A] > Coarsest.Weight[B];
    return A < B;
  });
  for (unsigned Mac : ByWeight) {
    if (Coarsest.Pin[Mac] >= 0) {
      place(Mac, static_cast<unsigned>(Coarsest.Pin[Mac]));
      continue;
    }
    int BestFit = -1;
    int64_t BestFitSlack = 0;
    int BestOverflow = -1;
    int64_t LeastOverflow = 0;
    for (unsigned C = 0; C < NC; ++C) {
      bool Fits = true;
      int64_t Slk = 0, Overflow = 0;
      for (unsigned K = 0; K < NumFUKinds; ++K) {
        int64_t Rem = Free[C * NumFUKinds + K] -
                      static_cast<int64_t>(Coarsest.fuCount(Mac, K));
        if (Rem < 0) {
          Fits = false;
          Overflow -= Rem;
        } else {
          Slk += Rem;
        }
      }
      if (Fits && (BestFit < 0 || Slk > BestFitSlack)) {
        BestFit = static_cast<int>(C);
        BestFitSlack = Slk;
      }
      if (!Fits && (BestOverflow < 0 || Overflow < LeastOverflow)) {
        BestOverflow = static_cast<int>(C);
        LeastOverflow = Overflow;
      }
    }
    place(Mac, BestFit >= 0 ? static_cast<unsigned>(BestFit)
                            : static_cast<unsigned>(BestOverflow));
  }

  // Refinement, coarsest to finest. Small levels get the exact greedy
  // (pseudo-schedule-scored) moves; big levels get boundary FM passes
  // whose result is kept only when the exact score did not get worse —
  // so CurrentScore is non-increasing across the whole uncoarsening.
  // The scorer's assignment is the current partition: a candidate is a
  // transaction of member moves, accepted or undone after its score.
  PartitionScorer &Sc = S.Scorer;
  bindScorer(Sc, Ctx, Opts);
  S.NodeCluster.resize(NumNodes);
  for (unsigned N = 0; N < NumNodes; ++N)
    S.NodeCluster[N] = ClusterOfMacro[Coarsest.MacroOf[N]];
  Sc.reset(S.NodeCluster);
  double CurrentScore = Sc.score();
  Sc.accept();
  if (Ctx.Stats)
    Ctx.Stats->InitialScore = CurrentScore;

  for (int LvlIx = static_cast<int>(ML.numLevels()) - 1; LvlIx >= 0;
       --LvlIx) {
    const CoarseLevel &Lvl = ML.level(static_cast<unsigned>(LvlIx));
    unsigned LN = Lvl.NumMacros;
    char LvlBuf[16];
    std::snprintf(LvlBuf, sizeof LvlBuf, "%u", LvlIx);
    obs::Span RefineSp(Ctx.Trace, "part.refine:", LvlBuf);

    // Project the current node-level partition onto this level's macros
    // (members of one macro share a cluster by construction).
    const std::vector<unsigned> &Current = Sc.partition().ClusterOf;
    std::vector<unsigned> &Assign = S.Assign;
    Assign.resize(LN);
    for (unsigned Mac = 0; Mac < LN; ++Mac)
      Assign[Mac] = Current[Lvl.Rep[Mac]];

    if (LN > Opts.MaxRefineMacros) {
      // Boundary FM on the surrogate objective; guarded acceptance.
      uint64_t FMMoves = refineLevelFM(Ctx, Opts, S, Lvl, Assign, Ctx.Stats);
      if (RefineSp.active()) {
        RefineSp.arg("macros", LN);
        RefineSp.arg("fm_moves", static_cast<int64_t>(FMMoves));
      }
      if (FMMoves == 0)
        continue;
      for (unsigned N = 0; N < NumNodes; ++N)
        Sc.moveNode(N, Assign[Lvl.MacroOf[N]]);
      double FMScore = Sc.score();
      if (FMScore < CurrentScore) {
        CurrentScore = FMScore;
        Sc.accept();
      } else {
        Sc.undo();
      }
      continue;
    }

    // Member lists of this level's macros (counting sort on MacroOf).
    std::vector<unsigned> &MemberStart = S.MemberStart;
    std::vector<unsigned> &Members = S.Members;
    MemberStart.assign(LN + 1, 0);
    for (unsigned N = 0; N < NumNodes; ++N)
      ++MemberStart[Lvl.MacroOf[N] + 1];
    for (unsigned Mac = 0; Mac < LN; ++Mac)
      MemberStart[Mac + 1] += MemberStart[Mac];
    Members.resize(NumNodes);
    for (unsigned N = 0; N < NumNodes; ++N)
      Members[MemberStart[Lvl.MacroOf[N]]++] = N;
    for (unsigned Mac = LN; Mac > 0; --Mac)
      MemberStart[Mac] = MemberStart[Mac - 1];
    MemberStart[0] = 0;

    uint64_t Accepts = 0;
    for (unsigned Pass = 0; Pass < Opts.MaxRefinePasses; ++Pass) {
      bool Improved = false;
      if (Ctx.Stats)
        ++Ctx.Stats->RefinePasses;
      for (unsigned Mac = 0; Mac < LN; ++Mac) {
        if (Lvl.Pin[Mac] >= 0)
          continue;
        unsigned Home = Assign[Mac];
        for (unsigned C = 0; C < NC; ++C) {
          if (C == Home)
            continue;
          for (unsigned I = MemberStart[Mac]; I < MemberStart[Mac + 1]; ++I)
            Sc.moveNode(Members[I], C);
          double Cand = Sc.score();
          if (Cand < CurrentScore) {
            CurrentScore = Cand;
            Sc.accept();
            Assign[Mac] = Home = C;
            Improved = true;
            ++Accepts;
            if (Ctx.Stats)
              ++Ctx.Stats->RefineMoves;
          } else {
            Sc.undo();
          }
        }
      }
      if (!Improved)
        break;
    }
    if (RefineSp.active()) {
      RefineSp.arg("macros", LN);
      RefineSp.arg("accepts", static_cast<int64_t>(Accepts));
    }
  }

  addScoreStats(Ctx, Sc);
  if (Ctx.Stats)
    Ctx.Stats->FinalScore = CurrentScore;
  if (CurrentScore >= InfeasiblePartitionScore)
    return std::nullopt; // nothing feasible found at this IT
  return Sc.partition();
}

} // namespace

std::optional<Partition>
hcvliw::partitionLoop(const PartitionContext &Ctx,
                      const PartitionerOptions &Opts) {
  unsigned NC = Ctx.M->numClusters();
  unsigned NumNodes = Ctx.G->size();

  if (NC == 1)
    return Partition::allInCluster(NumNodes, 0);

  PartitionScratch Local;
  PartitionScratch &S = Ctx.Scratch ? *Ctx.Scratch : Local;
  if (Ctx.Stats)
    ++Ctx.Stats->Runs;

  if (!prePlaceRecurrences(Ctx, Opts.PrePlaceRecurrences, S.Key, S.Free))
    return std::nullopt;

  // Graceful degradation (the "flat partition" rung): forced by an
  // armed injector, or taken for real when coarsening cannot allocate.
  // Partition quality drops; determinism and the feasibility gate do
  // not.
  if (HCVLIW_FAULT_DEGRADE(Ctx.Fault, "part.coarsen", Ctx.FaultCtx))
    return flatPartition(Ctx, Opts);
  try {
    return multilevelPartition(Ctx, Opts, S);
  } catch (const std::bad_alloc &) {
    // The scratch may hold a partially built level stack; drop the
    // memo so no later attempt reuses it.
    S.MLValid = false;
    return flatPartition(Ctx, Opts);
  }
}
