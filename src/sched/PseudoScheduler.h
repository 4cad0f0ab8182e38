//===- sched/PseudoScheduler.h - Fast schedule estimates ---------*- C++ -*-===//
///
/// \file
/// Pseudo-schedules (Section 4.1.2, after [3]): a cheap approximation of
/// the schedule a partition would obtain, used to compare candidate
/// partitions during refinement without running the full scheduler.
/// The estimate checks
///   - per-cluster functional-unit capacity at the plan's IIs,
///   - bus capacity against the partition's communication count,
///   - recurrence feasibility through the exact ASAP fixpoint,
///   - a sum-of-lifetimes register proxy (Section 3.2's third bullet),
/// and reports the activity distribution the energy model needs (the
/// paper's p_Ci) plus an it_length approximation from the ASAP times.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_SCHED_PSEUDOSCHEDULER_H
#define HCVLIW_SCHED_PSEUDOSCHEDULER_H

#include "sched/PartitionedGraph.h"
#include "sched/Schedule.h"
#include "sched/TickGraph.h"

#include <string>
#include <vector>

namespace hcvliw {

struct PseudoSchedule {
  bool Feasible = false;
  std::string Reason;
  /// Graded infeasibility: total normalized violation over all checks
  /// (0 when feasible). Refinement uses this as a gradient so greedy
  /// moves can walk *out* of an infeasible region instead of stalling
  /// on a flat "infinite" score.
  double Overflow = 0;

  /// Inter-cluster transfers per iteration (copy nodes materialized).
  unsigned Comms = 0;
  /// Energy-weighted instructions per cluster (normalizes to p_Ci).
  std::vector<double> WInsPerCluster;
  /// Approximate time for one iteration to complete.
  Rational ItLengthNs;
  /// Sum-of-lifetimes register proxy per cluster, in cluster cycles.
  std::vector<int64_t> LifetimeProxy;
};

/// Reusable buffers for estimatePseudoSchedule. Each estimate
/// materializes a PartitionedGraph plus a tick lowering and runs the
/// ASAP fixpoint from zero. Partition refinement does not pay that per
/// candidate: it scores by delta (partition/PartitionScorer.h) and
/// falls back to this full estimate only for plans without a tick grid
/// or assignments that split a recurrence; the estimate is also the
/// reference the delta scores are tested against. Contents carry
/// nothing between calls.
struct PseudoScratch {
  PartitionedGraph PG;
  std::vector<int> CopySlots;
  std::vector<unsigned> NodeLat;
  TickGraph Ticks;
  std::vector<int64_t> Asap;
  std::vector<unsigned> Counts; ///< flat [cluster][kind] op counts
  PseudoSchedule Result;        ///< reused by PartitionScorer
};

/// Estimates the schedule quality of \p P for \p L under \p Plan.
/// \p Scratch provides reusable buffers (optional; identical results).
PseudoSchedule estimatePseudoSchedule(const Loop &L, const DDG &G,
                                      const MachineDescription &M,
                                      const MachinePlan &Plan,
                                      const Partition &P,
                                      PseudoScratch *Scratch = nullptr);

/// In-place form: writes the estimate into \p PS, reusing its vectors
/// (refinement scores hundreds of candidates; with this plus a scratch
/// the whole scoring loop is allocation-free in steady state).
void estimatePseudoScheduleInto(PseudoSchedule &PS, const Loop &L,
                                const DDG &G, const MachineDescription &M,
                                const MachinePlan &Plan, const Partition &P,
                                PseudoScratch *Scratch = nullptr);

} // namespace hcvliw

#endif // HCVLIW_SCHED_PSEUDOSCHEDULER_H
