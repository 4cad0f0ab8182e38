//===- partition/LoopScheduler.cpp - Figure 5 driver ------------------------===//
//
// The IT sweep, with the warm-start optimisations of the file header.
// Every warm-start shortcut below is exact:
//
//   - The recurrence lower-bound prune skips an IT only when *every*
//     cluster assignment provably fails: a dependence cycle needs
//     sum(latency_e * period(cluster(src_e))) <= distance * IT, every
//     source period is >= the plan's fastest cluster period Pmin, and
//     sync-queue alignment only delays — so IT <= (RecMII - 1) * Pmin
//     (which implies IT/Pmin below the critical cycle ratio) makes the
//     pseudo-schedule's recurrence check fail for every candidate and
//     both partition attempts return "no feasible partition", exactly
//     what the cold path computes the long way.
//   - The coarsening memo and the partitioned-graph memo fire only on
//     exact input matches (MultilevelGraph and PartitionedGraph are
//     pure functions of those inputs).
//   - A second attempt whose partition equals the first attempt's
//     failed one replays the recorded outcome; the scheduler is a pure
//     function of (PG, plan), so the cold path's second run returns the
//     identical result and counter deltas.
//
//===----------------------------------------------------------------------===//

#include "partition/LoopScheduler.h"
#include "fault/Fault.h"
#include "mcd/DomainPlanner.h"
#include "partition/ScheduleScratch.h"
#include "support/StrUtil.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

std::string LoopScheduleResult::failureSummary(size_t MaxEntries) const {
  if (FailureLog.empty())
    return Success ? "" : Failure;
  std::string Out;
  size_t First =
      FailureLog.size() > MaxEntries ? FailureLog.size() - MaxEntries : 0;
  if (First > 0)
    Out += formatString("[%zu earlier failures] ", First);
  for (size_t I = First; I < FailureLog.size(); ++I) {
    const ITFailure &F = FailureLog[I];
    if (I > First)
      Out += "; ";
    Out += formatString("IT+%u (%s ns): %s", F.Step, F.ITNs.str().c_str(),
                        F.Reason.c_str());
    if (F.Count > 1)
      Out += formatString(" x%u", F.Count);
  }
  return Out;
}

LoopScheduler::LoopScheduler(const MachineDescription &M,
                             const HeteroConfig &C,
                             const LoopScheduleOptions &O)
    : Machine(M), Config(C), Opts(O), Planner(M, Config, Opts.Menu) {
  assert(C.numClusters() == M.numClusters() &&
         "configuration does not match machine");
}

namespace {

/// Appends one failed attempt to the log, folding consecutive identical
/// failures of one step (the warm path replays these folds exactly).
void logFailure(std::vector<ITFailure> &Log, unsigned Step,
                const Rational &ITNs, const std::string &Reason,
                unsigned Count = 1) {
  if (!Log.empty() && Log.back().Step == Step && Log.back().Reason == Reason) {
    Log.back().Count += Count;
    return;
  }
  ITFailure F;
  F.Step = Step;
  F.ITNs = ITNs;
  F.Reason = Reason;
  F.Count = Count;
  Log.push_back(std::move(F));
}

} // namespace

LoopScheduleResult
LoopScheduler::schedule(const Loop &L, const EnergyModel *Energy,
                        const HeteroScaling *Scaling,
                        ScheduleScratch *Scratch,
                        obs::Tracer *Trace) const {
  LoopScheduleResult R;
  assert(L.validate().empty() && "scheduling an invalid loop");
  assert(((Energy == nullptr) == (Scaling == nullptr)) &&
         "energy model and scaling come together");
  obs::Span LoopSp(Trace, "loop.schedule:", L.Name);

  // The arena: caller-provided per-worker scratch, or a local one for
  // this call (still reused across the whole IT sweep).
  std::unique_ptr<ScheduleScratch> Own;
  if (!Scratch) {
    Own = std::make_unique<ScheduleScratch>();
    Scratch = Own.get();
  }
  ScheduleScratch &S = *Scratch;
  S.beginLoopRun();
  const bool Warm = Opts.WarmStart;
  S.Part.EnableMemo = Warm;

  // Per-loop fault context ("<program>/<loop>" — a serial execution
  // stream, so occurrence counts are thread-count invariant). Composed
  // only while the injector is armed; idle runs pay one branch.
  std::string FaultCtx;
  if (Opts.Fault && Opts.Fault->armed())
    FaultCtx = Opts.FaultContext + "/" + L.Name;
  // Warm-path-only site: a throw here leaves the cold (WarmStart=false)
  // path untouched, so the measurement layer's cold-replay rung can
  // retry this loop and succeed — and the retry does not re-fire,
  // because the occurrence already counted.
  if (Warm)
    HCVLIW_FAULT_POINT(Opts.Fault, "sched.warm", FaultCtx);

  DDG::buildInto(S.G, L);
  Machine.Isa.nodeLatenciesInto(S.Lat, L);

  // Recurrence analysis + per-edge coarsening slack: IT-independent
  // pure functions of (loop, latencies). The warm path memoizes them
  // across whole schedule() runs; the cold path recomputes both every
  // call.
  const RecurrenceInfo *Recs;
  const std::vector<int64_t> *Slack;
  RecurrenceInfo ColdRecs;
  if (const LoopAnalysisMemo *A =
          Warm ? S.findAnalysis(L.structuralFingerprint(), S.Lat) : nullptr) {
    Recs = &A->Recs;
    Slack = &A->Slack;
  } else {
    ColdRecs = analyzeRecurrences(S.G, S.Lat);
    const int64_t SlackII = std::max<int64_t>(ColdRecs.RecMII, 1);
    if (Warm) {
      LoopAnalysisMemo &Slot = S.analysisSlot();
      Slot.Fp = L.structuralFingerprint();
      Slot.Lat = S.Lat;
      Slot.Recs = std::move(ColdRecs);
      computeEdgeSlackInto(Slot.Slack, S.G, S.Lat, SlackII, &S.SlackWork);
      Recs = &Slot.Recs;
      Slack = &Slot.Slack;
    } else {
      computeEdgeSlackInto(S.Slack, S.G, S.Lat, SlackII, &S.SlackWork);
      Recs = &ColdRecs;
      Slack = &S.Slack;
    }
  }
  R.RecMII = Recs->RecMII;
  R.ResMII = Machine.computeResMII(L);

  R.MITNs = Planner.computeMIT(Recs->RecMII, L.opCountsByFU());

  PartitionerOptions PartOpts = Opts.Part;
  if (!Energy)
    PartOpts.ED2Objective = false;
  const unsigned NumAttempts = PartOpts.ED2Objective ? 2 : 1;
  const unsigned NC = Machine.numClusters();

  Rational IT = R.MITNs;
  bool Done = false;
  for (unsigned Step = 0; Step <= Opts.MaxITSteps && !Done; ++Step) {
    obs::Span StepSp(Trace, "loop.itstep");
    if (StepSp.active())
      StepSp.arg("step", Step);
    R.ITSteps = Step;
    // Deterministic per-loop deadline: effort (BudgetUsed is part of
    // the warm==cold equivalence contract), never wall clock, so every
    // thread count gives up at the identical point.
    if (Opts.EffortDeadline && R.BudgetUsed >= Opts.EffortDeadline) {
      R.Failure = "effort deadline exhausted";
      logFailure(R.FailureLog, Step, IT, R.Failure);
      break;
    }
    auto Plan = Planner.planForIT(IT);
    if (!Plan) {
      R.Failure = "synchronization: no (II, freq) pair for some domain";
      logFailure(R.FailureLog, Step, IT, R.Failure);
      IT = Planner.nextIT(IT);
      continue;
    }

    // Warm-start lower-bound prune (exact; see file header): when the
    // critical recurrence cannot be placed in *any* cluster at this IT,
    // both partition attempts are doomed to "no feasible partition" —
    // record that outcome without paying them. (NC == 1 machines skip
    // partitioning entirely, so the cold path fails elsewhere there.)
    if (Warm && NC > 1 && R.RecMII >= 2) {
      Rational Pmin = Plan->Clusters[0].PeriodNs;
      for (unsigned C = 1; C < NC; ++C)
        Pmin = Rational::min(Pmin, Plan->Clusters[C].PeriodNs);
      if (!(Rational(R.RecMII - 1) * Pmin < IT)) {
        R.Failure = "no feasible partition";
        logFailure(R.FailureLog, Step, IT, R.Failure, NumAttempts);
        ++R.PrunedITSteps;
        IT = Planner.nextIT(IT);
        continue;
      }
    }

    PartitionContext Ctx;
    Ctx.L = &L;
    Ctx.G = &S.G;
    Ctx.M = &Machine;
    Ctx.Plan = &*Plan;
    Ctx.Recs = Recs;
    Ctx.Energy = Energy;
    Ctx.Scaling = Scaling;
    Ctx.TripCount = L.TripCount;
    Ctx.EdgeSlack = Slack;
    Ctx.Scratch = &S.Part;
    Ctx.Trace = Trace;
    Ctx.Stats = &R.PartStats;
    Ctx.Fault = Opts.Fault;
    Ctx.FaultCtx = FaultCtx;

    // The ED2-guided partition is tried first; if its schedule cannot be
    // completed at this IT, fall back to the balance-first partition of
    // [3] before paying an IT increase (growing the IT on a restricted
    // frequency menu can overshoot to a much slower sync point).
    PartitionerOptions Attempts[2] = {PartOpts, PartOpts};
    if (NumAttempts == 2)
      Attempts[1].ED2Objective = false;

    // Outcome of this step's first failed attempt, for the exact
    // duplicate-assignment replay (scheduler and pressure are pure
    // functions of (PG, plan), so an identical partition fails
    // identically — the cold path recomputes the same counters).
    Partition FirstTry;
    SchedulerResult FirstSR;
    std::string FirstFailure;
    bool HaveFirstTry = false;

    for (unsigned Att = 0; Att < NumAttempts; ++Att) {
      const PartitionerOptions &PO = Attempts[Att];
      auto Assignment = partitionLoop(Ctx, PO);
      if (!Assignment) {
        R.Failure = "no feasible partition";
        logFailure(R.FailureLog, Step, IT, R.Failure);
        continue;
      }

      if (Warm && HaveFirstTry &&
          Assignment->ClusterOf == FirstTry.ClusterOf) {
        // Same partition as the failed first attempt: replay its
        // outcome (identical SR on recomputation) instead of paying it.
        R.Placements += FirstSR.Placements;
        R.Ejections += FirstSR.Ejections;
        R.BudgetUsed += FirstSR.BudgetUsed;
        R.FallbackRational += FirstSR.FallbackRational ? 1 : 0;
        R.Failure = FirstFailure;
        logFailure(R.FailureLog, Step, IT, R.Failure);
        continue;
      }

      // Materialize the partitioned graph — reusing the memoized one
      // when this assignment is the one it already holds (the common
      // case across IT steps once the partition stabilizes).
      if (!(Warm && S.PGValid &&
            Assignment->ClusterOf == S.PGAssignment.ClusterOf)) {
        PartitionedGraph::buildInto(S.PG, L, S.G, Machine.Isa, *Assignment,
                                    NC, Machine.BusLatency, &S.PGCopySlots,
                                    &S.Lat);
        if (Warm) {
          S.PGAssignment = *Assignment;
          S.PGValid = true;
        }
      }

      // One tick lowering per attempt, shared by the scheduler, the
      // register-pressure computation and the validator. An invalid
      // lowering (grid overflow) is passed through as-is: every
      // consumer treats it as "known no grid, use Rational".
      if (Opts.Sched.UseTickGrid)
        TickGraph::buildInto(S.Ticks, S.PG, *Plan);
      const TickGraph *Ticks =
          Opts.Sched.UseTickGrid ? &S.Ticks : nullptr;

      HCVLIW_FAULT_POINT(Opts.Fault, "sched.place", FaultCtx);
      HeteroModuloScheduler Scheduler(Machine, S.PG, *Plan, Opts.Sched);
      SchedulerResult SR = Scheduler.run(Ticks, &S.Sched, Trace);
      R.Placements += SR.Placements;
      R.Ejections += SR.Ejections;
      R.BudgetUsed += SR.BudgetUsed;
      R.FallbackRational += SR.FallbackRational ? 1 : 0;
      if (!SR.Success) {
        R.Failure = SR.FailureReason;
        logFailure(R.FailureLog, Step, IT, R.Failure);
        if (Warm && !HaveFirstTry) {
          FirstTry = std::move(*Assignment);
          FirstSR = std::move(SR);
          FirstFailure = R.Failure;
          HaveFirstTry = true;
        }
        continue;
      }

      RegisterPressureResult Pressure = computeRegisterPressure(
          S.PG, SR.Sched, Opts.Sched.UseTickGrid, Ticks, &S.Pressure);
      if (!Pressure.fits(Machine) && Opts.Sched.CompactLifetimes) {
        // Salvage: stage compaction collapses whole-II lifetime
        // crossings (the dominant pressure term on wide graphs) while
        // keeping the schedule valid by construction. Applied only on
        // overflow — schedules that already fit keep the historical
        // makespan-optimal shape. Pure function of (PG, Plan, Sched),
        // so warm and cold sweeps rescue identically.
        obs::Span CSp(Trace, "sched.compact");
        unsigned Moved = compactScheduleLifetimes(
            S.PG, *Plan, Ticks, SR.Sched, Opts.Sched.MaxSlotMultiple,
            &S.Sched);
        if (Moved)
          Pressure = computeRegisterPressure(
              S.PG, SR.Sched, Opts.Sched.UseTickGrid, Ticks, &S.Pressure);
        if (CSp.active()) {
          CSp.arg("moved", static_cast<int64_t>(Moved));
          CSp.arg("fits", Pressure.fits(Machine) ? 1 : 0);
        }
      }
      if (!Pressure.fits(Machine)) {
        R.Failure = "register pressure exceeds the register files";
        logFailure(R.FailureLog, Step, IT, R.Failure);
        if (Warm && !HaveFirstTry) {
          FirstTry = std::move(*Assignment);
          FirstSR = std::move(SR);
          FirstFailure = R.Failure;
          HaveFirstTry = true;
        }
        continue;
      }

      ValidatorOptions VO;
      VO.UseTickGrid = Opts.Sched.UseTickGrid;
      VO.Ticks = Ticks;
      // Pressure was computed and bounds-checked just above; don't pay
      // a second full computation inside the validator.
      VO.CheckRegisterPressure = false;
      std::string Err = validateSchedule(Machine, S.PG, SR.Sched, VO);
      assert(Err.empty() && "scheduler produced an invalid schedule");
      (void)Err;

      R.Success = true;
      R.Failure.clear();
      R.Sched = std::move(SR.Sched);
      // The graph escapes the arena as a copy (nothing may reference
      // arena storage after schedule() returns): the result holds no
      // capacity slack from earlier attempts, and the arena keeps its
      // buffers for the next run.
      R.PG = S.PG;
      R.Assignment = std::move(*Assignment);
      R.Pressure = std::move(Pressure);
      Done = true;
      break;
    }
    if (!Done)
      IT = Planner.nextIT(IT);
  }
  if (LoopSp.active()) {
    LoopSp.arg("it_steps", R.ITSteps);
    LoopSp.arg("placements", static_cast<int64_t>(R.Placements));
    LoopSp.arg("ejections", static_cast<int64_t>(R.Ejections));
    LoopSp.arg("ok", R.Success ? 1 : 0);
  }
  return R;
}
