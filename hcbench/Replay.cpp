//===- hcbench/Replay.cpp - Layer split and schedule checks -----------------===//

#include "Replay.h"

#include "sched/HeteroModuloScheduler.h"
#include "sched/ScheduleValidator.h"
#include "vliwsim/FunctionalSimulator.h"
#include "vliwsim/PipelinedSimulator.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

using namespace hcvliw;

namespace hcbench {

void addSweepCounts(Counts &C, const LoopScheduleResult &R) {
  const PartitionStats &P = R.PartStats;
  C["partition.runs"] += static_cast<double>(P.Runs);
  C["partition.refine_passes"] += static_cast<double>(P.RefinePasses);
  C["partition.refine_moves"] += static_cast<double>(P.RefineMoves);
  C["partition.fm_moves"] += static_cast<double>(P.FMMoves);
  C["partition.coarsen_builds"] += static_cast<double>(P.CoarsenBuilds);
  C["partition.coarsen_memo_hits"] += static_cast<double>(P.CoarsenMemoHits);
  C["sched.placements"] += static_cast<double>(R.Placements);
  C["sched.ejections"] += static_cast<double>(R.Ejections);
  C["sched.budget_used"] += static_cast<double>(R.BudgetUsed);
  C["sched.it_steps"] += R.ITSteps;
  C["sched.loop_schedules"] += 1;
}

void finishSweepCounts(Counts &C) {
  C["partition.coarsen_memo_hit_ratio"] =
      ratioOr0(C["partition.coarsen_memo_hits"],
               C["partition.coarsen_builds"] + C["partition.coarsen_memo_hits"]);
  C["sched.placement_yield"] =
      C["sched.placements"] > 0
          ? 1.0 - C["sched.ejections"] / C["sched.placements"]
          : 0.0;
}

LoopAnalysis analyzeLoop(SpanRecorder &Sp, const Loop &L,
                         const MachineDescription &M) {
  Scope S(Sp, "ir.analysis");
  LoopAnalysis A;
  A.G = DDG::build(L);
  A.Lat = M.Isa.nodeLatencies(L);
  A.Recs = analyzeRecurrences(A.G, A.Lat);
  A.Slack =
      MinDistMatrix::compute(A.G, A.Lat, std::max<int64_t>(A.Recs.RecMII, 1));
  return A;
}

void replayLayers(Outcome &Out, SpanRecorder &Sp, const Loop &L,
                  const LoopAnalysis &A, const MachineDescription &M,
                  const LoopScheduleOptions &LSO, const EnergyModel *Energy,
                  const HeteroScaling *Scaling,
                  const LoopScheduleResult &R) {
  {
    Scope S(Sp, "partition");
    PartitionContext Ctx;
    Ctx.L = &L;
    Ctx.G = &A.G;
    Ctx.M = &M;
    Ctx.Plan = &R.Sched.Plan;
    Ctx.Recs = &A.Recs;
    Ctx.Energy = Energy;
    Ctx.Scaling = Scaling;
    Ctx.TripCount = L.TripCount;
    Ctx.SlackMatrix = &A.Slack;
    // The sweep partitions on the warm-start path (exact within-run
    // refinement skips), so the replay does too, from a fresh arena.
    PartitionScratch Scratch;
    Scratch.EnableMemo = LSO.WarmStart;
    Ctx.Scratch = &Scratch;
    PartitionerOptions PO = LSO.Part;
    if (!Energy)
      PO.ED2Objective = false;
    // The first attempt may legitimately fail at the final plan (the
    // sweep then succeeded on its balance-first retry): timing only.
    (void)partitionLoop(Ctx, PO);
  }
  bool SchedOk;
  {
    Scope S(Sp, "sched");
    HeteroModuloScheduler HS(M, R.PG, R.Sched.Plan, LSO.Sched);
    SchedOk = HS.run().Success;
  }
  Out.check(SchedOk, L.Name + ": scheduler replay on the sweep's own "
                              "partitioned graph and plan failed");
  std::string Err;
  {
    Scope S(Sp, "sched.validate");
    Err = validateSchedule(M, R.PG, R.Sched);
  }
  Out.check(Err.empty(), L.Name + ": validateSchedule: " + Err);
}

namespace {

/// Equal values, where NaN equals NaN: both simulators evaluate every
/// opcode through the same evalOpcode, so a NaN on one side is a NaN on
/// the other. (checkFunctionalEquivalence compares with !=, which
/// reports big random bodies whose arithmetic overflows to NaN as
/// mismatches; the comparison here is otherwise the same.)
bool sameValue(double A, double B) {
  return A == B || (std::isnan(A) && std::isnan(B));
}

bool sameValues(const std::vector<double> &A, const std::vector<double> &B) {
  return A.size() == B.size() &&
         std::equal(A.begin(), A.end(), B.begin(), sameValue);
}

} // namespace

void checkSchedule(Outcome &Out, const Loop &L, const MachineDescription &M,
                   const LoopScheduleResult &R, uint64_t Iterations) {
  std::string Err = validateSchedule(M, R.PG, R.Sched);
  Out.check(Err.empty(), L.Name + ": validateSchedule: " + Err);
  uint64_t N = std::min(L.TripCount, Iterations);
  PipelinedResult P = runPipelined(L, R.PG, R.Sched, M, N);
  Out.check(P.Ok, L.Name + ": pipelined execution: " + P.Error);
  if (!P.Ok)
    return;
  FunctionalResult F = runFunctional(L, N);
  bool SameMemory = P.Memory.Arrays.size() == F.Memory.Arrays.size();
  for (size_t A = 0; SameMemory && A < F.Memory.Arrays.size(); ++A)
    SameMemory = sameValues(P.Memory.Arrays[A], F.Memory.Arrays[A]);
  Out.check(SameMemory && sameValues(P.LastValues, F.LastValues),
            L.Name + ": pipelined execution equals sequential execution");
}

void printLayerTable(const std::string &Workload,
                     const std::map<std::string, double> &PassSelfMs,
                     double TracedPassMs, double UntracedPassMs,
                     const std::map<std::string, double> &ReplaySelfMs) {
  std::printf("\n== layer attribution: %s (one pass, 1 thread, medians of "
              "traced passes) ==\n",
              Workload.c_str());
  std::printf("%-28s %12s %8s\n", "span (self time)", "ms", "share");
  for (const auto &[Name, Ms] : PassSelfMs)
    std::printf("%-28s %12.3f %7.1f%%\n",
                Name == "pass" ? "(unattributed)" : Name.c_str(), Ms,
                100.0 * ratioOr0(Ms, TracedPassMs));
  std::printf("%-28s %12.3f\n", "traced pass wall", TracedPassMs);
  std::printf("%-28s %12.3f\n", "untraced pass wall", UntracedPassMs);
  std::printf("tracing overhead: %.3f ms (%.1f%% of untraced)\n",
              TracedPassMs - UntracedPassMs,
              100.0 * ratioOr0(TracedPassMs - UntracedPassMs, UntracedPassMs));
  double Total = 0;
  for (const auto &KV : ReplaySelfMs)
    Total += KV.second;
  std::printf("-- replay of the pass's Figure 5 runs, layer by layer, on the "
              "same (loop, plan) pairs --\n");
  for (const auto &[Name, Ms] : ReplaySelfMs)
    std::printf("%-28s %12.3f %7.1f%%\n",
                Name == "replay" ? "(unattributed)" : Name.c_str(), Ms,
                100.0 * ratioOr0(Ms, Total));
  std::printf("%-28s %12.3f\n", "replay wall", Total);
}

} // namespace hcbench
