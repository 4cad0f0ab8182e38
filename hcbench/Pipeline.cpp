//===- hcbench/Pipeline.cpp - suite_cold workload ---------------------------===//
//
// The seeded program list through the full profile -> select -> measure
// pipeline with SuiteRunner on cold caches (what every fresh invocation
// pays), in a closed loop: one client submits one program at a time
// (ProgramLanes = 1) and each pass starts after the previous one ends.
// Every pass uses a fresh Session with a fixed 2-thread pool, which
// parallelises each program's exploration grid. Timings come from the
// run's fastest passes (see fastestPasses).
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Replay.h"
#include "Spans.h"

#include "explore/ConfigurationSelector.h"
#include "mcd/DomainPlanner.h"
#include "partition/ScheduleScratch.h"
#include "profiling/Profiler.h"
#include "runtime/SuiteRunner.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>

using namespace hcvliw;

namespace hcbench {

namespace {

constexpr unsigned PassThreads = 2;
constexpr unsigned NumSynthetic = 40;
/// Set-ups before the first pass, and between each two timed passes
/// (the median of all is reported).
constexpr unsigned SetupRepeats = 5;
constexpr unsigned SetupsPerPass = 2;
constexpr unsigned MinPasses = 3;
constexpr uint64_t SimCheckIterations = 16;

void countFailures(Outcome &Out, const SuiteResult &R) {
  Out.Attempted += R.Names.size();
  for (const SuiteFailure &F : R.Failures)
    Out.check(false, F.Program + " (" + pipelineStageName(F.Stage) +
                         "): " + F.Reason);
}

/// One timed SuiteRunner pass; per-program latency is the time between
/// consecutive completions (programs run one at a time).
struct Pass {
  SuiteResult R;
  double WallMs = 0;
  std::map<std::string, double> LatencyMs;
};

Pass runPass(const std::vector<BenchmarkProgram> &Progs, unsigned Threads) {
  Pass P;
  Clock::time_point Start = Clock::now(), Last = Start;
  auto S = std::make_unique<Session>(PipelineOptions(), Threads);
  SuiteOptions O;
  O.ProgramLanes = 1;
  O.OnProgramDone = [&](const SuiteProgress &Pr) {
    Clock::time_point Now = Clock::now();
    P.LatencyMs[Pr.Program] =
        std::chrono::duration<double, std::milli>(Now - Last).count();
    Last = Now;
  };
  P.R = SuiteRunner(*S).run(Progs, O);
  P.WallMs = msSince(Start);
  return P;
}

/// Loop schedules program \p I consumed: one reference-machine schedule
/// per loop for profiling, and one per loop for each of the two measured
/// configurations (the selected heterogeneous and homogeneous designs).
double loopSchedulesOf(const SuiteResult &R, size_t I) {
  return static_cast<double>(R.Details[I].Profile.Loops.size()) * 3.0;
}

uint64_t digestOf(const SuiteResult &R) {
  Digest D;
  for (size_t I = 0; I < R.Names.size(); ++I) {
    D.str(R.Names[I]);
    D.num(R.ED2Ratios[I]);
    for (const ConfigRunResult *C :
         {&R.Details[I].HetMeasured, &R.Details[I].HomMeasured})
      for (const LoopRunStat &L : C->Loops)
        D.num(L.ITNs);
  }
  for (const SuiteFailure &F : R.Failures)
    D.str(F.Program + F.Reason);
  return D.value();
}

/// The options ScheduleMeasurer hands the Figure 5 driver for one
/// configuration of \p MO (heterogeneous: restricted menu and the ED2
/// objective; homogeneous: continuous menu, baseline objective).
LoopScheduleOptions loopOptionsFor(const MeasureOptions &MO,
                                   const FrequencyMenu &Menu, bool ED2) {
  LoopScheduleOptions LSO;
  LSO.Menu = ED2 ? Menu : FrequencyMenu::continuous();
  LSO.Part = MO.Part;
  LSO.Part.ED2Objective = ED2 && MO.Part.ED2Objective;
  LSO.Sched = MO.Sched;
  LSO.MaxITSteps = MO.MaxITSteps;
  LSO.EffortDeadline = MO.EffortDeadline;
  return LSO;
}

const Loop *findLoop(const BenchmarkProgram &P, const std::string &Name) {
  for (const Loop &L : P.Loops)
    if (L.Name == Name)
      return &L;
  return nullptr;
}

std::map<std::string, const BenchmarkProgram *>
byName(const std::vector<BenchmarkProgram> &Progs) {
  std::map<std::string, const BenchmarkProgram *> M;
  for (const BenchmarkProgram &P : Progs)
    M[P.Name] = &P;
  return M;
}

/// Mean achieved IT over MIT of every measured heterogeneous and
/// homogeneous loop schedule.
double meanItOverMit(const SuiteResult &R,
                     const std::vector<BenchmarkProgram> &Progs) {
  Session S(PipelineOptions(), 1);
  auto Programs = byName(Progs);
  double Sum = 0;
  size_t N = 0;
  for (size_t I = 0; I < R.Names.size(); ++I) {
    const ProgramRunResult &D = R.Details[I];
    const BenchmarkProgram &P = *Programs.at(R.Names[I]);
    for (bool Het : {true, false}) {
      const ConfigRunResult &C = Het ? D.HetMeasured : D.HomMeasured;
      DomainPlanner Plan(S.machine(),
                         Het ? D.HetDesign.Config : D.HomDesign.Config,
                         Het ? S.menu() : FrequencyMenu::continuous());
      for (const LoopRunStat &St : C.Loops) {
        const Loop *L = findLoop(P, St.Name);
        if (St.Degraded || !L)
          continue;
        size_t Ix = static_cast<size_t>(L - P.Loops.data());
        Rational Mit =
            Plan.computeMIT(D.Profile.Loops[Ix].RecMII, L->opCountsByFU());
        Sum += St.ITNs / Mit.toDouble();
        ++N;
      }
    }
  }
  return ratioOr0(Sum, static_cast<double>(N));
}

/// Share of the SPECfp programs whose estimated and measured ED2 argmin
/// over {heterogeneous, homogeneous} agree. Each program contributes a 0 or 1, so over a
/// seeded draw of a few dozen programs the share would swing by whole
/// programs from seed to seed; the ten fixed SPECfp programs keep it a
/// steady quality signal.
double argminAgreement(const SuiteResult &R) {
  const std::vector<std::string> &Spec = specFPProgramNames();
  double Agree = 0, N = 0;
  for (size_t I = 0; I < R.Names.size(); ++I) {
    if (std::find(Spec.begin(), Spec.end(), R.Names[I]) == Spec.end())
      continue;
    ++N;
    const ProgramRunResult &D = R.Details[I];
    bool Est = D.HetDesign.EstED2 < D.HomDesign.EstED2;
    bool Meas = D.HetMeasured.ED2 < D.HomMeasured.ED2;
    Agree += Est == Meas ? 1 : 0;
  }
  return ratioOr0(Agree, N);
}

void printTraffic(const std::string &Name, const SuiteResult &R) {
  std::vector<double> Share(3, 0.0);
  for (const ProgramRunResult &D : R.Details) {
    std::vector<double> S = D.Profile.shareByConstraint();
    for (size_t K = 0; K < 3; ++K)
      Share[K] += S[K] / static_cast<double>(R.Details.size());
  }
  std::printf("traffic %s: %zu programs; mean time share resource %.1f%%, "
              "borderline %.1f%%, recurrence %.1f%%\n",
              Name.c_str(), R.Details.size(), 100 * Share[0], 100 * Share[1],
              100 * Share[2]);
}

//===-- traced run -------------------------------------------------------===//

/// One program as the decomposed pass saw it, kept for the replay.
struct DecomposedProgram {
  const BenchmarkProgram *P = nullptr;
  ProgramProfile Profile;
  std::optional<EnergyModel> Energy;
  std::vector<std::pair<SelectedDesign, bool>> Measured; ///< (design, ED2)
};

/// The pipeline's stages called one by one through their public entry
/// points, each under its span, on a fresh 1-thread Session: Profiler::
/// profileProgram, ExplorationEngine::explore (and the homogeneous
/// search), ScheduleMeasurer::measure. Results must equal the SuiteRunner
/// pass \p Ref program by program.
double decomposedPass(Outcome &Out, const std::vector<BenchmarkProgram> &Progs,
                      const SuiteResult &Ref, SpanRecorder &Sp, Counts &C,
                      std::vector<DecomposedProgram> *Keep) {
  std::map<std::string, size_t> RefIx;
  for (size_t I = 0; I < Ref.Names.size(); ++I)
    RefIx[Ref.Names[I]] = I;

  Clock::time_point Start = Clock::now();
  Scope Root(Sp, "pass");
  auto S = std::make_unique<Session>(PipelineOptions(), 1);
  const PipelineOptions &PO = S->pipelineOptions();
  MeasureOptions MO = HeterogeneousPipeline::measureOptionsFor(PO);
  MO.Menu = S->menu();
  ScheduleMeasurer Meas(S->machine(), MO, &S->scheduleCache(),
                        &S->scheduleScratchPool());
  Profiler Prof(S->machine(), PO.ProgramBudgetNs);

  for (const BenchmarkProgram &P : Progs) {
    std::optional<ProgramProfile> Profile;
    {
      Scope Sc(Sp, "profiling");
      Profile = Prof.profileProgram(P.Name, P.Loops);
    }
    Out.check(Profile.has_value(), P.Name + ": decomposed profiling failed");
    if (!Profile)
      continue;
    C["profiling.loops"] += static_cast<double>(P.Loops.size());
    EnergyModel Energy(PO.Breakdown, Profile->Totals, Profile->TexecRefNs,
                       S->machine().numClusters());
    ExplorationEngine Engine(*Profile, S->machine(), Energy, PO.Tech,
                             S->menu(), PO.Space);
    ExploreOptions EO;
    EO.ComputeFrontier = false;
    EO.Pool = &S->pool();
    EO.SharedCache = &S->evalCache();
    SelectedDesign Het, Hom;
    {
      Scope Sc(Sp, "explore");
      ExplorationResult X = Engine.explore(EO);
      Het = X.Best;
      C["explore.candidates"] += static_cast<double>(X.Stats.Enumerated);
      ConfigurationSelector Sel(*Profile, S->machine(), Energy, PO.Tech,
                                S->menu(), PO.Space, &S->evalCache(),
                                &S->pool());
      Hom = Sel.selectOptimumHomogeneous();
    }
    Out.check(Het.Valid && Hom.Valid, P.Name + ": decomposed selection");
    if (!Het.Valid || !Hom.Valid)
      continue;
    ConfigRunResult HetM, HomM;
    {
      Scope Sc(Sp, "measure");
      HetM = Meas.measure(*Profile, P.Loops, Het.Config, Het.Scaling, Energy,
                          true);
      HomM = Meas.measure(*Profile, P.Loops, Hom.Config, Hom.Scaling, Energy,
                          false);
    }
    C["measure.configs"] += 2;
    auto It = RefIx.find(P.Name);
    Out.check(HetM.Ok && HomM.Ok && It != RefIx.end() &&
                  HetM.ED2 / HomM.ED2 == Ref.ED2Ratios[It->second],
              P.Name + ": decomposed pipeline ED2 ratio equals SuiteRunner's");

    DecomposedProgram DP;
    DP.P = &P;
    DP.Measured = {{Het, true}, {Hom, false}};
    if (Keep) {
      DP.Profile = std::move(*Profile);
      DP.Energy.emplace(PO.Breakdown, DP.Profile.Totals,
                        DP.Profile.TexecRefNs, S->machine().numClusters());
      Keep->push_back(std::move(DP));
    }
  }
  return msSince(Start);
}

/// One Figure 5 run of the pass, as the replay re-executes it.
struct ReplayPair {
  const Loop *L = nullptr;
  HeteroConfig Config;
  LoopScheduleOptions LSO;
  const EnergyModel *Energy = nullptr; ///< null: baseline objective
  HeteroScaling Scaling;
  bool SharedScratch = false; ///< measure-side runs share one arena
};

/// Every Figure 5 run the pass performed: each loop's reference-machine
/// schedule in profiling, and each distinct measure-side schedule
/// (distinct ScheduleCache key).
std::vector<ReplayPair> replayPairs(const std::vector<DecomposedProgram> &Keep) {
  Session S(PipelineOptions(), 1);
  MeasureOptions MO =
      HeterogeneousPipeline::measureOptionsFor(S.pipelineOptions());
  MO.Menu = S.menu();
  ScheduleMeasurer Keyer(S.machine(), MO);
  LoopScheduleOptions ProfileLSO;
  ProfileLSO.Part.ED2Objective = false; // Profiler's baseline objective
  std::set<uint64_t> Seen;
  std::vector<ReplayPair> Pairs;
  for (const DecomposedProgram &DP : Keep) {
    for (const Loop &L : DP.P->Loops) {
      ReplayPair R;
      R.L = &L;
      R.Config = HeteroConfig::reference(S.machine());
      R.LSO = ProfileLSO;
      Pairs.push_back(std::move(R));
    }
    for (const auto &[D, ED2] : DP.Measured)
      for (const Loop &L : DP.P->Loops) {
        if (!Seen.insert(Keyer.loopScheduleKey(L, D.Config, D.Scaling,
                                               *DP.Energy, ED2))
                 .second)
          continue;
        ReplayPair R;
        R.L = &L;
        R.Config = D.Config;
        R.LSO = loopOptionsFor(MO, S.menu(), ED2);
        R.Energy = ED2 ? &*DP.Energy : nullptr;
        R.Scaling = D.Scaling;
        R.SharedScratch = true;
        Pairs.push_back(std::move(R));
      }
  }
  return Pairs;
}

/// Re-runs every pair through LoopScheduler::schedule (exact counts),
/// then splits each run into its layers. Analyses are replayed where the
/// pass paid them: on every profiling run (the Profiler schedules without
/// an arena) and once per distinct loop on the measure side (the shared
/// arena's analysis memo serves the loop's other configurations).
Counts replay(Outcome &Out, SpanRecorder &Sp,
              const std::vector<ReplayPair> &Pairs) {
  MachineDescription M = Session(PipelineOptions(), 1).machine();
  ScheduleScratch Scratch;
  std::map<uint64_t, LoopAnalysis> Memo;
  Counts C;
  double Allocs = 0;
  Scope Root(Sp, "replay");
  for (const ReplayPair &P : Pairs) {
    const HeteroScaling *Sc = P.Energy ? &P.Scaling : nullptr;
    LoopScheduleResult R;
    {
      Scope S(Sp, "replay.sweep");
      uint64_t A0 = allocations();
      R = LoopScheduler(M, P.Config, P.LSO)
              .schedule(*P.L, P.Energy, Sc,
                        P.SharedScratch ? &Scratch : nullptr);
      Allocs += static_cast<double>(allocations() - A0);
    }
    addSweepCounts(C, R);
    Out.check(R.Success, P.L->Name + ": replayed Figure 5 run succeeds");
    if (!R.Success)
      continue;
    if (!P.SharedScratch) {
      replayLayers(Out, Sp, *P.L, analyzeLoop(Sp, *P.L, M), M, P.LSO,
                   P.Energy, Sc, R);
      continue;
    }
    uint64_t Fp = P.L->structuralFingerprint();
    auto It = Memo.find(Fp);
    if (It == Memo.end())
      It = Memo.emplace(Fp, analyzeLoop(Sp, *P.L, M)).first;
    replayLayers(Out, Sp, *P.L, It->second, M, P.LSO, P.Energy, Sc, R);
  }
  C["sched.allocs_per_loop_schedule"] =
      ratioOr0(Allocs, C["sched.loop_schedules"]);
  finishSweepCounts(C);
  return C;
}

/// A real SuiteRunner pass on a fresh 1-thread Session, for exact cache
/// counts, then a snapshot round trip of its caches (runtime layer): the
/// snapshot is loaded into a fresh Session, which runs the programs again
/// from those warm caches.
struct CountsPass {
  Counts C;
  uint64_t Digest = 0;
  uint64_t WarmDigest = 0; ///< the rerun on the loaded snapshot
  double SaveMs = 0, LoadMs = 0, SnapshotMb = 0;
};

CountsPass countsPass(Outcome &Out, const std::vector<BenchmarkProgram> &Progs,
                      const std::string &RoundTrip) {
  CountsPass P;
  auto S = std::make_unique<Session>(PipelineOptions(), 1);
  SuiteOptions O;
  O.ProgramLanes = 1;
  SuiteResult R = SuiteRunner(*S).run(Progs, O);
  countFailures(Out, R);
  P.Digest = digestOf(R);
  const EvalCache &E = S->evalCache();
  const ScheduleCache &Sc = S->scheduleCache();
  P.C["explore.eval_cache_hits"] = static_cast<double>(E.hits());
  P.C["explore.eval_cache_misses"] = static_cast<double>(E.misses());
  P.C["explore.selection_memo_hits"] = static_cast<double>(E.selectionHits());
  P.C["explore.selection_memo_misses"] =
      static_cast<double>(E.selectionMisses());
  P.C["measure.schedule_cache_hits"] = static_cast<double>(Sc.hits());
  P.C["measure.schedule_cache_misses"] = static_cast<double>(Sc.misses());

  Clock::time_point T = Clock::now();
  std::string Err;
  Out.check(S->saveCacheTo(RoundTrip, &Err), "save cache snapshot: " + Err);
  P.SaveMs = msSince(T);
  Session Fresh(PipelineOptions(), 1);
  T = Clock::now();
  Out.check(Fresh.loadCacheFrom(RoundTrip, &Err),
            "load cache snapshot: " + Err);
  P.LoadMs = msSince(T);
  P.C["runtime.snapshot_records"] =
      static_cast<double>(Fresh.cachePersistLoadStats().loaded());
  SuiteResult Warm = SuiteRunner(Fresh).run(Progs, O);
  countFailures(Out, Warm);
  P.WarmDigest = digestOf(Warm);
  P.C["runtime.persist_hits"] = static_cast<double>(Fresh.cachePersistHits());
  P.C["runtime.warm_schedule_cache_misses"] =
      static_cast<double>(Fresh.scheduleCache().misses());
  std::error_code EC;
  P.SnapshotMb = static_cast<double>(
                     std::filesystem::file_size(RoundTrip, EC)) /
                 (1024.0 * 1024.0);
  std::filesystem::remove(RoundTrip, EC);
  return P;
}

void tracedRun(Outcome &Out, const std::vector<BenchmarkProgram> &Progs,
               const RunOptions &Opts, double GenMs, SpanRecorder &Sp) {
  // The 2-thread result every 1-thread run below must reproduce.
  Pass Ref = runPass(Progs, PassThreads);
  countFailures(Out, Ref.R);
  uint64_t RefDigest = digestOf(Ref.R);

  std::string RoundTrip = Opts.WorkDir + "/roundtrip-suite_cold.snapshot";
  CountsPass C1 = countsPass(Out, Progs, RoundTrip);
  CountsPass C2 = countsPass(Out, Progs, RoundTrip);
  checkCountsIdentical(Out, C1.C, C2.C);
  Out.check(C1.Digest == RefDigest && C2.Digest == RefDigest,
            "1-thread results equal 2-thread results");
  Out.check(C1.WarmDigest == RefDigest && C2.WarmDigest == RefDigest,
            "results from the loaded snapshot equal cold results");
  Out.check(C1.C["runtime.warm_schedule_cache_misses"] == 0,
            "the loaded snapshot serves every schedule");

  // Decomposed passes, untraced and traced alternately.
  SpanRecorder Off(false);
  std::vector<double> Untraced, Traced;
  std::vector<std::map<std::string, double>> Self;
  std::vector<Counts> DC;
  std::vector<DecomposedProgram> Keep;
  Clock::time_point T0 = Clock::now();
  while (Traced.size() < MinPasses || msSince(T0) < Opts.Seconds * 1000) {
    Counts Ignored;
    Untraced.push_back(
        decomposedPass(Out, Progs, Ref.R, Off, Ignored, nullptr));
    size_t From = Sp.size();
    DC.emplace_back();
    Traced.push_back(decomposedPass(Out, Progs, Ref.R, Sp, DC.back(),
                                    Keep.empty() ? &Keep : nullptr));
    Self.push_back(Sp.selfMsByName(From));
  }
  checkCountsIdentical(Out, DC[0], DC[1]);

  // The replay, twice: its counts must repeat exactly too.
  std::vector<ReplayPair> Pairs = replayPairs(Keep);
  std::vector<std::map<std::string, double>> ReplaySelf;
  Counts RC;
  for (int Rep = 0; Rep < 2; ++Rep) {
    size_t From = Sp.size();
    Counts C = replay(Out, Sp, Pairs);
    ReplaySelf.push_back(Sp.selfMsByName(From));
    if (Rep)
      checkCountsIdentical(Out, RC, C);
    RC = std::move(C);
  }

  std::map<std::string, double> PassSelf = medianByName(Self);
  std::map<std::string, double> ReplayMed = medianByName(ReplaySelf);
  double TracedMs = median(Traced), UntracedMs = median(Untraced);
  printLayerTable("suite_cold", PassSelf, TracedMs, UntracedMs, ReplayMed);

  const Counts &D = DC.front();
  std::map<std::string, double> V = RC;
  V["workloads.gen_ms"] = GenMs;
  V["profiling.ms"] = PassSelf["profiling"];
  V["profiling.loops"] = D.at("profiling.loops");
  V["explore.ms"] = PassSelf["explore"];
  V["explore.candidates"] = D.at("explore.candidates");
  auto hitRatio = [&](const std::string &Prefix) {
    double H = C1.C[Prefix + "_hits"], M = C1.C[Prefix + "_misses"];
    return ratioOr0(H, H + M);
  };
  V["explore.eval_cache_hit_ratio"] = hitRatio("explore.eval_cache");
  V["explore.selection_memo_hit_ratio"] = hitRatio("explore.selection_memo");
  V["measure.ms"] = PassSelf["measure"];
  V["measure.configs"] = D.at("measure.configs");
  V["measure.schedule_cache_hit_ratio"] = hitRatio("measure.schedule_cache");
  V["partition.ms"] = ReplayMed["partition"];
  V["sched.ms"] = ReplayMed["sched"] + ReplayMed["sched.validate"];
  V["ir.analysis_ms"] = ReplayMed["ir.analysis"];
  double LoadMs = (C1.LoadMs + C2.LoadMs) / 2;
  V["runtime.cache_load_ms"] = LoadMs;
  V["runtime.cache_load_mb_per_s"] = ratioOr0(C1.SnapshotMb, LoadMs / 1000);
  V["runtime.cache_save_ms"] = (C1.SaveMs + C2.SaveMs) / 2;
  V["runtime.persist_hits"] = C1.C["runtime.persist_hits"];
  emitMetrics(Out, LayerMetrics, V, false);
}

} // namespace

double verifySpecFP(Outcome &Out, const SuiteResult *Ref) {
  PipelineOptions PO;
  PO.SimCheckIterations = SimCheckIterations;
  Session S(PO, PassThreads);
  std::vector<BenchmarkProgram> Spec = buildSpecFPSuite();
  SuiteResult R = SuiteRunner(S).run(Spec);
  countFailures(Out, R);
  auto Programs = byName(Spec);
  MeasureOptions MO = HeterogeneousPipeline::measureOptionsFor(PO);
  for (size_t I = 0; I < R.Names.size(); ++I) {
    const ProgramRunResult &D = R.Details[I];
    if (Ref) {
      bool Same = false;
      for (size_t K = 0; K < Ref->Names.size(); ++K)
        if (Ref->Names[K] == R.Names[I])
          Same = Ref->ED2Ratios[K] == R.ED2Ratios[I];
      Out.check(Same, R.Names[I] + ": simulator-checked ED2 ratio equals "
                                   "the workload pass");
    }
    EnergyModel Energy(PO.Breakdown, D.Profile.Totals, D.Profile.TexecRefNs,
                       S.machine().numClusters());
    for (bool Het : {true, false}) {
      const SelectedDesign &Design = Het ? D.HetDesign : D.HomDesign;
      const ConfigRunResult &C = Het ? D.HetMeasured : D.HomMeasured;
      LoopScheduler LS(S.machine(), Design.Config,
                       loopOptionsFor(MO, S.menu(), Het));
      for (const LoopRunStat &St : C.Loops) {
        const Loop *L = findLoop(*Programs.at(R.Names[I]), St.Name);
        Out.check(L != nullptr, St.Name + ": measured loop exists");
        if (!L)
          continue;
        LoopScheduleResult LR =
            LS.schedule(*L, Het ? &Energy : nullptr,
                        Het ? &Design.Scaling : nullptr);
        Out.check(LR.Success && LR.Sched.Plan.ITNs.toDouble() == St.ITNs,
                  L->Name + ": re-scheduled IT equals the measured IT");
        if (LR.Success)
          checkSchedule(Out, *L, S.machine(), LR, SimCheckIterations);
      }
    }
  }
  return R.meanRatio();
}

Outcome runSuiteCold(const RunOptions &Opts) {
  Outcome Out;
  SpanRecorder Sp(Opts.Trace);

  // Set-up: program generation and Session construction. It is repeated
  // before the timed passes and between them, so its median spans the
  // run rather than one moment of a shared host.
  std::vector<BenchmarkProgram> Progs;
  std::vector<double> SetupS, GenMs;
  auto setUp = [&](std::vector<BenchmarkProgram> &Into) {
    Clock::time_point T = Clock::now();
    Scope Setup(Sp, "setup");
    {
      Scope G(Sp, "workloads.gen");
      Into = generatePrograms(Opts.Seed, NumSynthetic);
    }
    GenMs.push_back(msSince(T));
    Session S(PipelineOptions(), PassThreads);
    SetupS.push_back(msSince(T) / 1000.0);
  };
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep)
    setUp(Progs);

  if (Opts.Trace) {
    tracedRun(Out, Progs, Opts, median(GenMs), Sp);
  } else {
    std::optional<Pass> First;
    uint64_t FirstDigest = 0;
    std::vector<double> PassMs;
    std::vector<std::map<std::string, double>> PassLatencyMs;
    CpuRotation Rot(PassThreads); // the pool threads inherit the pin
    Clock::time_point T0 = Clock::now();
    while (PassMs.size() < MinPasses || msSince(T0) < Opts.Seconds * 1000) {
      Rot.pinForPass(PassMs.size());
      for (unsigned Rep = 0; !PassMs.empty() && Rep < SetupsPerPass; ++Rep) {
        std::vector<BenchmarkProgram> Again;
        setUp(Again);
      }
      Pass P = runPass(Progs, PassThreads);
      countFailures(Out, P.R);
      uint64_t Dg = digestOf(P.R);
      if (First)
        Out.check(Dg == FirstDigest, "pass result digest equals the first "
                                     "pass's");
      PassMs.push_back(P.WallMs);
      PassLatencyMs.push_back(std::move(P.LatencyMs));
      if (!First) {
        FirstDigest = Dg;
        First = std::move(P);
      }
    }
    Rot.restore();
    const SuiteResult &R = First->R;
    double Scheds = 0;
    for (size_t I = 0; I < R.Names.size(); ++I)
      Scheds += loopSchedulesOf(R, I);
    std::vector<size_t> Fast = fastestPasses(PassMs);
    std::vector<double> FastMs, MsPerSched;
    for (size_t K : Fast) {
      FastMs.push_back(PassMs[K]);
      for (size_t I = 0; I < R.Names.size(); ++I)
        MsPerSched.push_back(PassLatencyMs[K].at(R.Names[I]) /
                             loopSchedulesOf(R, I));
    }
    printTraffic("suite_cold", R);
    std::printf("%zu passes; the fastest %zu give %zu program latency "
                "samples\n",
                PassMs.size(), Fast.size(), MsPerSched.size());
    double Sec = median(FastMs) / 1000.0;
    std::map<std::string, double> V;
    V["setup_s"] = median(SetupS);
    V["programs_per_s"] = static_cast<double>(R.numPrograms()) / Sec;
    V["loop_schedules_per_s"] = Scheds / Sec;
    V["loop_schedule_ms_p50"] = percentile(MsPerSched, 50);
    V["loop_schedule_ms_p90"] = percentile(MsPerSched, 90);
    V["mean_ed2_ratio"] = R.meanRatio();
    V["argmin_agreement"] = argminAgreement(R);
    V["mean_it_over_mit"] = meanItOverMit(R, Progs);

    // Correctness gate, untimed: the same programs on 1 thread, then the
    // simulator-checked SPECfp pass.
    Pass One = runPass(Progs, 1);
    countFailures(Out, One.R);
    Out.check(digestOf(One.R) == FirstDigest,
              "1-thread results equal 2-thread results");
    verifySpecFP(Out, &R);
    V["peak_rss_mb"] = peakRssMb();
    emitMetrics(Out, EndToEndMetrics, V, false);
  }

  if (Opts.Trace) {
    std::string Path = Opts.WorkDir + "/trace-suite_cold.json";
    if (Sp.writeChromeTrace(Path))
      std::printf("chrome trace: %s\n", Path.c_str());
    // The per-layer run still gates correctness.
    verifySpecFP(Out, nullptr);
  }
  return Out;
}

} // namespace hcbench
