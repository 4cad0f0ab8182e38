//===- partition/LoopScheduler.h - Figure 5 driver ---------------*- C++ -*-===//
///
/// \file
/// The top-level per-loop code-generation flow of the paper's Figure 5:
///
///   compute MIT -> IT := MIT -> select IIs & frequencies -> partition
///   the DDG -> schedule; on any failure (synchronization, partitioning,
///   scheduling, register pressure) increase the IT and retry.
///
/// The same driver serves homogeneous machines (every domain at one
/// frequency, baseline [2][3] objective) and heterogeneous ones (ED2
/// objective, Section 4 extensions).
///
/// The sweep is *warm-started* by default (LoopScheduleOptions::
/// WarmStart): an IT step whose critical recurrence provably cannot be
/// placed is skipped without paying the partition attempts, the
/// coarsening level stack is carried across attempts and IT steps when
/// its inputs are unchanged, the partitioned graph is carried forward
/// whenever an attempt re-derives the previous assignment, and a second
/// attempt that re-derives the first attempt's failed assignment reuses
/// its outcome. Every one of these is an exact memo or an exact lower
/// bound — results (schedule, counters, failure log) are bit-identical
/// to the retained WarmStart=false cold path, which recomputes
/// everything from scratch at every step; tests/sched/WarmStartTest
/// pins the equivalence the way TickDomainTest pins tick-vs-Rational.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_LOOPSCHEDULER_H
#define HCVLIW_PARTITION_LOOPSCHEDULER_H

#include "partition/Partitioner.h"
#include "sched/HeteroModuloScheduler.h"
#include "sched/RegisterPressure.h"
#include "sched/ScheduleValidator.h"

namespace hcvliw {

namespace fault {
class FaultInjector;
}

struct ScheduleScratch;

struct LoopScheduleOptions {
  FrequencyMenu Menu = FrequencyMenu::continuous();
  SchedulerOptions Sched;
  PartitionerOptions Part;
  /// IT growth attempts before giving up.
  unsigned MaxITSteps = 64;
  /// Warm-start the IT sweep (exact memos + lower-bound prune; see the
  /// file header). Bit-identical to the cold path, so — like
  /// SchedulerOptions::UseTickGrid — not part of any cache key.
  bool WarmStart = true;
  /// Hard ceiling on scheduler effort for one schedule() run, in
  /// BudgetUsed units (placement-loop iterations); 0 = unlimited. When
  /// the accumulated budget crosses the ceiling the sweep stops with
  /// an "effort deadline exhausted" failure — a *deterministic* per-loop
  /// deadline (effort, never wall clock), so every thread count and
  /// every machine gives up at the same point. Changes results when it
  /// fires, hence part of the schedule-cache key (loopScheduleKey).
  uint64_t EffortDeadline = 0;
  /// Optional fault injector (armed test/chaos runs only; null in
  /// production). Fault sites: "sched.warm" fires on the warm path
  /// only, "sched.place" before every scheduler run. Injection changes
  /// results by design; callers must not mix armed runs with shared
  /// caches (ScheduleMeasurer bypasses the ScheduleCache while armed).
  fault::FaultInjector *Fault = nullptr;
  /// Context string for fault sites: the program name; per-loop sites
  /// use FaultContext + "/" + Loop::Name, which is a serial execution
  /// stream, so occurrence counts are thread-count invariant.
  std::string FaultContext;
};

/// One failed (IT step, attempt) of the Figure 5 sweep; consecutive
/// identical failures at one step are folded into Count.
struct ITFailure {
  unsigned Step = 0; ///< IT growths past the MIT when this failed
  Rational ITNs;     ///< the IT attempted
  std::string Reason;
  unsigned Count = 1;
};

struct LoopScheduleResult {
  bool Success = false;
  unsigned ITSteps = 0; ///< times the IT was increased past the MIT
  std::string Failure;

  Schedule Sched;
  PartitionedGraph PG;
  Partition Assignment;
  RegisterPressureResult Pressure;

  Rational MITNs;

  /// Scheduler effort over the whole Figure 5 run (every attempt at
  /// every IT step, failed ones included): placements made, nodes
  /// ejected, and placement-loop iterations consumed. Deterministic for
  /// fixed inputs, so cached results carry identical counters.
  uint64_t Placements = 0;
  uint64_t Ejections = 0;
  uint64_t BudgetUsed = 0;

  /// Scheduler runs (over the whole sweep) that silently fell back from
  /// the requested tick grid to the Rational path (SchedulerResult::
  /// FallbackRational). Unlike the effort counters this is part of the
  /// warm==cold equivalence contract — the duplicate-assignment replay
  /// re-counts it from the recorded first attempt — and cached results
  /// carry it, so the sched.fallback_rational metric is identical with
  /// or without the schedule cache.
  unsigned FallbackRational = 0;

  /// IT steps the warm-start lower bound skipped without paying the
  /// partition attempts. Diagnostic only (always 0 on the cold path):
  /// the one field that reports work *saved*, so it is excluded from
  /// the warm-vs-cold equivalence contract.
  unsigned PrunedITSteps = 0;

  /// Every failed (IT step, attempt) of the sweep, in order — the
  /// per-IT failure aggregation SuiteFailure records surface. Identical
  /// on the warm and cold paths (warm-start skips work, not outcomes).
  std::vector<ITFailure> FailureLog;

  /// Partitioner effort over the whole sweep (coarsening levels,
  /// matched pairs, refinement passes/moves; PartitionStats). Like
  /// PrunedITSteps these report work *performed*, so the warm path —
  /// which skips work — legitimately reports smaller values and they
  /// are excluded from the warm-vs-cold equivalence contract.
  PartitionStats PartStats;

  /// Reference-machine classification stats (Table 2): recurrence- and
  /// resource-constrained MII of the loop.
  int64_t RecMII = 0;
  int64_t ResMII = 0;

  /// Human-readable digest of FailureLog: which stage failed at which
  /// IT, most recent \p MaxEntries steps, earlier ones summarized.
  std::string failureSummary(size_t MaxEntries = 4) const;
};

class LoopScheduler {
  const MachineDescription &Machine;
  HeteroConfig Config;
  LoopScheduleOptions Opts;
  DomainPlanner Planner; ///< fixed per (machine, config, menu)

public:
  LoopScheduler(const MachineDescription &M, const HeteroConfig &C,
                const LoopScheduleOptions &O = LoopScheduleOptions());

  /// Schedules \p L; \p Energy / \p Scaling enable the ED2 partitioning
  /// objective (both or neither). \p Scratch provides the per-worker
  /// arena (reusable buffers + warm-start memos); when null a local
  /// arena serves this one call. Results are bit-identical for any
  /// scratch (ScheduleScratch contract). \p Trace, when enabled,
  /// records a "loop.schedule:<name>" span per run and one
  /// "loop.itstep" span per IT step (observation only; the schedule
  /// never depends on it).
  LoopScheduleResult schedule(const Loop &L,
                              const EnergyModel *Energy = nullptr,
                              const HeteroScaling *Scaling = nullptr,
                              ScheduleScratch *Scratch = nullptr,
                              obs::Tracer *Trace = nullptr) const;
};

} // namespace hcvliw

#endif // HCVLIW_PARTITION_LOOPSCHEDULER_H
