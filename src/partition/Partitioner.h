//===- partition/Partitioner.h - Multilevel DDG partitioning ----*- C++ -*-===//
///
/// \file
/// The Section 4.1 graph partitioner. Produces the cluster assignment
/// the heterogeneous modulo scheduler consumes:
///
///  1. *Critical-recurrence pre-placement* (4.1.1): recurrences whose
///     recMII exceeds the II of some cluster are placed, most critical
///     first, in the **slowest** cluster that can still schedule them,
///     keeping energy low while protecting the IT.
///  2. *Coarsening*: multilevel heavy-edge matching along low-slack
///     edges, balance-bounded so no macro outgrows a cluster share
///     (MultilevelGraph.h); recurrences are never split.
///  3. *Initial partition* of the coarsest macros, honoring pins.
///  4. *Refinement* (4.1.2), uncoarsening from the coarsest level to
///     the finest. Levels with at most MaxRefineMacros macros use
///     greedy macro moves scored by the exact pseudo-schedule objective
///     (estimated ED2 for heterogeneous machines, the [2][3] baseline
///     for homogeneous ones). Finer levels use boundary FM-style passes
///     on a cheap surrogate (capacity overload, cut, weight balance)
///     whose result is only kept when the exact objective did not get
///     worse — so the tracked objective is monotone across the whole
///     uncoarsening, at every granularity. Every exact score comes from
///     one live PartitionScorer (PartitionScorer.h): a candidate is a
///     move of the macro's members, scored by delta on the DDG state
///     and accepted or undone, so no candidate rebuilds the partitioned
///     graph, its tick lowering or a from-zero ASAP.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_PARTITIONER_H
#define HCVLIW_PARTITION_PARTITIONER_H

#include "ir/RecurrenceAnalysis.h"
#include "mcd/DomainPlanner.h"
#include "obs/Trace.h"
#include "partition/MultilevelGraph.h"
#include "partition/PartitionScorer.h"
#include "power/EnergyModel.h"
#include "sched/Partition.h"

#include <cstdint>
#include <optional>
#include <string_view>

namespace hcvliw {

class MinDistMatrix;

namespace fault {
class FaultInjector;
}

/// Warm-start coarsening memo key: the only MultilevelGraph::build
/// inputs that vary within one Figure 5 run (loop, DDG, machine and
/// edge slack are fixed per run; groups and pins follow the plan's
/// IIs, and the target follows the options). An exact key match makes
/// reusing the memoized level stack provably exact.
struct CoarsenMemoKey {
  std::vector<std::vector<unsigned>> Groups;
  std::vector<int> Pins;
  unsigned TargetMacros = 0;

  bool operator==(const CoarsenMemoKey &O) const {
    return TargetMacros == O.TargetMacros && Pins == O.Pins &&
           Groups == O.Groups;
  }
};

/// FNV-1a over every field of CoarsenMemoKey; the memo compares the
/// hash before paying the exact vector comparison.
struct CoarsenMemoKeyHash {
  size_t operator()(const CoarsenMemoKey &K) const {
    uint64_t H = 1469598103934665603ull;
    auto mix = [&H](uint64_t V) {
      H ^= V;
      H *= 1099511628211ull;
    };
    mix(K.TargetMacros);
    mix(K.Pins.size());
    for (int P : K.Pins)
      mix(static_cast<uint64_t>(static_cast<int64_t>(P)));
    mix(K.Groups.size());
    for (const auto &Gp : K.Groups) {
      mix(Gp.size());
      for (unsigned N : Gp)
        mix(N);
    }
    return static_cast<size_t>(H);
  }
};

/// Partitioner effort counters, accumulated across the attempts of a
/// Figure 5 run (observability: they report work *performed*, so — like
/// LoopScheduleResult::PrunedITSteps — the warm and cold paths report
/// different values and they are excluded from the warm==cold
/// equivalence contract; the partition itself never depends on them).
///
/// The counts of one run stay far below 2^32 (a run is at most
/// 2 * (MaxITSteps + 1) partitions), so they are 32-bit: every cached
/// LoopScheduleResult embeds one. Edge relaxations can exceed that.
struct PartitionStats {
  uint32_t Runs = 0;            ///< partitionLoop invocations
  uint32_t CoarsenBuilds = 0;   ///< multilevel stacks built
  uint32_t CoarsenMemoHits = 0; ///< stacks reused from the memo
  uint32_t Levels = 0;          ///< recorded levels across all builds
  uint32_t MatchedPairs = 0;    ///< pair contractions across all builds
  uint32_t RefinePasses = 0;    ///< exact greedy passes run
  uint32_t RefineMoves = 0;     ///< exact greedy moves accepted
  uint32_t FMPasses = 0;        ///< boundary FM passes run
  uint32_t FMMoves = 0;         ///< boundary FM moves applied
  uint32_t ScoreEvals = 0;      ///< exact partition scores computed
  /// Runs that took the pre-fused flat-partition rung instead of the
  /// multilevel path (forced by an injected part.coarsen degrade or by
  /// an allocation failure inside coarsening). Unlike the effort
  /// counters above this is part of the result contract: the rung
  /// changes the partition, so the count is deterministic and cached
  /// results replay it exactly.
  uint32_t FlatFallbacks = 0;
  /// Edge relaxations done by the delta scorer's live ASAP (scores
  /// taken by the full-estimate fallback add none).
  uint64_t ScoreRelaxations = 0;
  /// Exact score of the initial (coarsest) assignment and of the final
  /// refined partition of the most recent run — the refinement
  /// invariant FinalScore <= InitialScore is pinned by MultilevelTest.
  double InitialScore = 0;
  double FinalScore = 0;
};

/// Reusable buffers + warm-start memo for partitionLoop. One partition
/// run builds groups, a multilevel coarsening, an initial assignment
/// and hundreds of refinement candidates; the Figure 5 driver runs it
/// up to twice per IT step. A scratch removes the allocation churn, and
/// — on the warm-start path only (EnableMemo) — carries the coarsening
/// across attempts and IT steps via an exact CoarsenMemoKey match.
struct PartitionScratch {
  /// Warm-start switch, set by the driver; the cold reference path
  /// leaves it false and recomputes the coarsening every attempt.
  bool EnableMemo = false;

  // Per-attempt buffers (no information carried between attempts).
  CoarsenMemoKey Key;        ///< this attempt's (groups, pins, target)
  std::vector<int64_t> Free; ///< flat [cluster][kind] slot capacity
  std::vector<unsigned> ClusterOfMacro;
  std::vector<unsigned> ByWeight;
  std::vector<unsigned> Assign;
  std::vector<unsigned> NodeCluster; ///< initial node-level assignment
  /// Members of each macro of the level being refined (CSR over
  /// CoarseLevel::MacroOf, nodes ascending).
  std::vector<unsigned> MemberStart, Members;
  /// The live scoring state; its assignment is the current partition.
  PartitionScorer Scorer;

  // Boundary FM refinement working set (levels above MaxRefineMacros;
  // all sized per level and reused, so steady state is allocation-free
  // — the "gain buckets in the arena" half of the big-loop work).
  std::vector<int64_t> FMLoad;     ///< flat [cluster][kind] op counts
  std::vector<int64_t> FMCap;      ///< flat [cluster][kind] capacity
  std::vector<double> FMWeight;    ///< [cluster] energy mass
  std::vector<uint8_t> FMLocked;   ///< [macro] moved this pass
  struct FMHeapEntry {
    double Gain;
    unsigned Mac;
  };
  std::vector<FMHeapEntry> FMHeap; ///< binary max-heap storage
  /// Boundary-refinement eval stamps (warm path only; exact): cached
  /// per-macro cut mass toward every cluster, valid while no neighbor
  /// of the macro has moved (FMCutStamp[mac] == FMNbrVer[mac]). The
  /// cold path rescans the adjacency every evaluation and computes the
  /// identical values.
  std::vector<int64_t> FMCutTo;    ///< flat [macro][cluster]
  std::vector<uint64_t> FMCutStamp; ///< [macro]
  std::vector<uint64_t> FMNbrVer;   ///< [macro]

  // Coarsening memo, valid for one Figure 5 run (the driver clears
  // MLValid per loop); keyed exactly on CoarsenMemoKey, hash-first.
  MultilevelGraph ML;
  CoarsenMemoKey MemoKey;
  size_t MemoHashVal = 0;
  bool MLValid = false;
};

struct PartitionerOptions {
  /// Score moves by estimated ED2 (the heterogeneous objective); when
  /// false, use the homogeneous baseline objective of [2][3].
  bool ED2Objective = true;
  /// Pre-place critical recurrences (ablation knob of DESIGN.md #2).
  bool PrePlaceRecurrences = true;
  /// Greedy exact-refinement passes per level.
  unsigned MaxRefinePasses = 2;
  /// Levels with more macros than this skip the exact greedy
  /// refinement (every move costs a pseudo-schedule) and run boundary
  /// FM passes on the surrogate objective instead.
  unsigned MaxRefineMacros = 48;
  /// Coarsening target, in macros per cluster. One macro per cluster
  /// keeps each coarsest macro a connected low-slack blob, which the
  /// ED2-quality pins of PipelineTest show beats a finer coarsest
  /// level: the weight-sorted initial best-fit ignores connectivity,
  /// and with many macros it scatters connected work across clusters
  /// into a local optimum the refinement cannot escape.
  unsigned CoarsestPerCluster = 1;
  /// Boundary FM passes per level (levels above MaxRefineMacros).
  unsigned MaxFMPasses = 4;
};

/// Everything a partitioning run needs to see.
struct PartitionContext {
  const Loop *L = nullptr;
  const DDG *G = nullptr;
  const MachineDescription *M = nullptr;
  const MachinePlan *Plan = nullptr;
  const RecurrenceInfo *Recs = nullptr;
  /// Optional energy scoring (required when ED2Objective is set).
  const EnergyModel *Energy = nullptr;
  const HeteroScaling *Scaling = nullptr;
  uint64_t TripCount = 1;
  /// Optional precomputed coarsening slack, one value per DDG edge
  /// (computeEdgeSlackInto(G, Isa latencies, max(RecMII, 1))). It does
  /// not depend on the IT, so drivers retrying II/IT steps compute it
  /// once per loop; when null the partitioner computes its own.
  const std::vector<int64_t> *EdgeSlack = nullptr;
  /// Deprecated spelling of EdgeSlack for callers of the former
  /// MinDistMatrix API (ir/MinDist.h); read only when EdgeSlack is null.
  const MinDistMatrix *SlackMatrix = nullptr;
  /// Optional reusable buffers + warm-start coarsening memo; results
  /// are bit-identical with or without one.
  PartitionScratch *Scratch = nullptr;
  /// Optional span tracer ("part.coarsen:<level>" / "part.refine:
  /// <level>" phases); observation only — the assignment never depends
  /// on it.
  obs::Tracer *Trace = nullptr;
  /// Optional effort counters, accumulated (+=) per run; observation
  /// only (see PartitionStats).
  PartitionStats *Stats = nullptr;
  /// Optional fault injector (armed test/chaos runs only; null in
  /// production). The "part.coarsen" degrade site forces the
  /// flat-partition rung; context is FaultCtx ("<program>/<loop>").
  fault::FaultInjector *Fault = nullptr;
  std::string_view FaultCtx;
};

/// Runs the partitioner; std::nullopt when no feasible assignment exists
/// at this IT (the driver must grow the IT).
std::optional<Partition> partitionLoop(const PartitionContext &Ctx,
                                       const PartitionerOptions &Opts);

/// The exact partition objective from a full pseudo-schedule estimate:
/// lower is better; infeasible partitions score >=
/// InfeasiblePartitionScore, graded by violation. Refinement scores
/// through PartitionScorer instead; this is the reference its scores
/// are tested against.
double scorePartition(const PartitionContext &Ctx,
                      const PartitionerOptions &Opts, const Partition &P);

} // namespace hcvliw

#endif // HCVLIW_PARTITION_PARTITIONER_H
