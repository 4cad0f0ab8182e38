//===- hcbench/Replay.h - Layer split and schedule checks --------*- C++ -*-===//
//
// The library's Figure 5 driver (LoopScheduler::schedule) runs the ir,
// partition and sched layers inside one call. The traced run splits that
// call by *replaying* it: each inner layer's public entry point is called
// again, on the same loop and at the machine plan the sweep settled on,
// under its own span.
//
//===----------------------------------------------------------------------===//

#ifndef HCBENCH_REPLAY_H
#define HCBENCH_REPLAY_H

#include "Bench.h"
#include "Spans.h"

#include "ir/DDG.h"
#include "ir/MinDist.h"
#include "ir/RecurrenceAnalysis.h"
#include "partition/LoopScheduler.h"

namespace hcbench {

/// Adds the exact work counts of one Figure 5 run (PartitionStats and
/// the scheduler effort fields) to \p C.
void addSweepCounts(Counts &C, const hcvliw::LoopScheduleResult &R);

/// Adds the derived ratios (coarsening-memo hit ratio, placement yield)
/// to counts accumulated by addSweepCounts.
void finishSweepCounts(Counts &C);

/// The IT-independent analyses of one loop that the Figure 5 driver
/// computes (or takes from its cross-run memo): DDG, latencies,
/// recurrences and the O(N^3) MinDist slack matrix.
struct LoopAnalysis {
  hcvliw::DDG G;
  std::vector<unsigned> Lat;
  hcvliw::RecurrenceInfo Recs;
  hcvliw::MinDistMatrix Slack;
};

/// Computes \p L's analyses under the span "ir.analysis".
LoopAnalysis analyzeLoop(SpanRecorder &Sp, const hcvliw::Loop &L,
                         const hcvliw::MachineDescription &M);

/// Replays one successful Figure 5 run layer by layer under the spans
/// "partition" (partitionLoop at the final plan, on analysis \p A),
/// "sched" (HeteroModuloScheduler::run on the run's own partitioned
/// graph) and "sched.validate" (validateSchedule). The scheduler replay
/// and the validator are checked operations.
void replayLayers(Outcome &Out, SpanRecorder &Sp, const hcvliw::Loop &L,
                  const LoopAnalysis &A, const hcvliw::MachineDescription &M,
                  const hcvliw::LoopScheduleOptions &LSO,
                  const hcvliw::EnergyModel *Energy,
                  const hcvliw::HeteroScaling *Scaling,
                  const hcvliw::LoopScheduleResult &R);

/// Independent check of one schedule: validateSchedule, then the
/// pipelined simulator (runPipelined) against the sequential
/// interpreter (runFunctional) for min(trip count, \p Iterations)
/// iterations: final memory images and every op's last value.
void checkSchedule(Outcome &Out, const hcvliw::Loop &L,
                   const hcvliw::MachineDescription &M,
                   const hcvliw::LoopScheduleResult &R, uint64_t Iterations);

/// Prints the traced run's attribution table: the pass's self time by
/// layer with the unattributed remainder, the tracing overhead, and the
/// replay split of the Figure 5 runs.
void printLayerTable(const std::string &Workload,
                     const std::map<std::string, double> &PassSelfMs,
                     double TracedPassMs, double UntracedPassMs,
                     const std::map<std::string, double> &ReplaySelfMs);

} // namespace hcbench

#endif // HCBENCH_REPLAY_H
