//===- hcbench/BigLoops.cpp - big_loops workload ----------------------------===//
//
// The unrolled-kernel size series, 12 bodies of 256-1536 ops in a seeded
// order, each on its register-scaled machine, through
// LoopScheduler::schedule under the fixed heterogeneous plans, on one
// thread. Each body is scheduled under every plan in turn (as the loops
// of one program are across Pareto points) from a fresh
// ScheduleScratch arena, so a pass pays the O(N^3) slack analysis once
// per body and hits the arena's analysis memo on the body's other plans.
// (One arena per body rather than per pass: the arena keeps up to 16
// slack matrices of up to 19 MB each.) This is the only workload that
// reaches multilevel coarsening, boundary FM refinement and the sqrt(N)
// ejection budgets: SPECfp loops stay under ~100 ops.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"
#include "Generator.h"
#include "Replay.h"
#include "Spans.h"

#include "partition/ScheduleScratch.h"
#include "profiling/ProfileData.h"

#include <algorithm>
#include <cstdio>
#include <memory>

using namespace hcvliw;

namespace hcbench {

namespace {

constexpr unsigned NumBodies = 12;
constexpr unsigned MinOps = 256;
constexpr unsigned MaxOps = 1536;
/// Set-ups before the first pass, and between each two timed passes
/// (the median of all is reported).
constexpr unsigned SetupRepeats = 5;
constexpr unsigned SetupsPerPass = 8;
constexpr unsigned MinPasses = 3;
constexpr uint64_t SimCheckIterations = 8;

struct Inputs {
  std::vector<BigLoopBody> Bodies;
  /// Body-major: Schedulers[B * NumPlans + P] runs body B under plan P.
  std::vector<std::unique_ptr<LoopScheduler>> Schedulers;
  size_t NumPlans = 0;
};

Inputs makeInputs(uint64_t Seed) {
  Inputs In;
  In.Bodies = generateBigLoops(Seed, NumBodies, MinOps, MaxOps);
  In.NumPlans = In.Bodies.front().Plans.size();
  for (const BigLoopBody &B : In.Bodies)
    for (const HeteroConfig &Plan : B.Plans)
      In.Schedulers.push_back(std::make_unique<LoopScheduler>(B.M, Plan));
  return In;
}

struct BigPass {
  std::vector<LoopScheduleResult> Results; ///< indexed like Schedulers
  std::vector<double> LatencyMs;
  double WallMs = 0;
  uint64_t Digest = 0;
  uint64_t Allocs = 0;
};

BigPass runPass(Outcome &Out, const Inputs &In, SpanRecorder &Sp) {
  BigPass P;
  Digest D;
  Clock::time_point Start = Clock::now();
  {
    Scope Root(Sp, "pass");
    std::unique_ptr<ScheduleScratch> Scratch;
    for (size_t I = 0; I < In.Schedulers.size(); ++I) {
      if (I % In.NumPlans == 0) {
        Scratch.reset(); // before the next arena: one live at a time
        Scratch = std::make_unique<ScheduleScratch>();
      }
      const Loop &L = In.Bodies[I / In.NumPlans].L;
      Clock::time_point T = Clock::now();
      LoopScheduleResult R;
      {
        Scope S(Sp, "loop_schedule");
        uint64_t A0 = allocations();
        R = In.Schedulers[I]->schedule(L, nullptr, nullptr, Scratch.get());
        P.Allocs += allocations() - A0;
      }
      P.LatencyMs.push_back(msSince(T));
      Out.check(R.Success, L.Name + ": schedulable under plan " +
                               std::to_string(I % In.NumPlans) + ": " +
                               R.Failure);
      D.num(R.Success ? R.Sched.Plan.ITNs.toDouble() : -1.0);
      P.Results.push_back(std::move(R));
    }
  }
  P.WallMs = msSince(Start);
  P.Digest = D.value();
  return P;
}

Counts passCounts(const BigPass &P) {
  Counts C;
  for (const LoopScheduleResult &R : P.Results)
    addSweepCounts(C, R);
  C["sched.allocs_per_loop_schedule"] =
      ratioOr0(static_cast<double>(P.Allocs), C["sched.loop_schedules"]);
  finishSweepCounts(C);
  return C;
}

/// Mean achieved IT over MIT, and the share of bodies whose lowest-MIT
/// plan also achieves the lowest IT (the estimate's argmin agrees with
/// the measured one).
std::pair<double, double> quality(const Inputs &In, const BigPass &P) {
  double Sum = 0, N = 0, Agree = 0;
  for (size_t B = 0; B < NumBodies; ++B) {
    size_t BestMit = 0, BestIt = 0;
    for (size_t Pl = 0; Pl < In.NumPlans; ++Pl) {
      const LoopScheduleResult &R = P.Results[B * In.NumPlans + Pl];
      if (!R.Success)
        continue;
      Sum += (R.Sched.Plan.ITNs / R.MITNs).toDouble();
      ++N;
      const LoopScheduleResult &M = P.Results[B * In.NumPlans + BestMit];
      const LoopScheduleResult &I = P.Results[B * In.NumPlans + BestIt];
      if (R.MITNs < M.MITNs)
        BestMit = Pl;
      if (R.Sched.Plan.ITNs < I.Sched.Plan.ITNs)
        BestIt = Pl;
    }
    Agree += BestMit == BestIt ? 1 : 0;
  }
  return {ratioOr0(Sum, N), Agree / NumBodies};
}

void printTraffic(const Inputs &In, const BigPass &P) {
  double Share[3] = {0, 0, 0}, Total = 0;
  for (size_t B = 0; B < NumBodies; ++B) {
    const LoopScheduleResult &R = P.Results[B * In.NumPlans];
    LoopProfile LP;
    LP.RecMII = R.RecMII;
    LP.ResMII = R.ResMII;
    double Ops = In.Bodies[B].L.size();
    Share[static_cast<unsigned>(LP.classification())] += Ops;
    Total += Ops;
  }
  std::printf("traffic big_loops: %u bodies of %u-%u ops x %zu plans; op "
              "share resource %.1f%%, borderline %.1f%%, recurrence %.1f%%\n",
              NumBodies, MinOps, MaxOps, In.NumPlans, 100 * Share[0] / Total,
              100 * Share[1] / Total, 100 * Share[2] / Total);
}

} // namespace

Outcome runBigLoops(const RunOptions &Opts) {
  Outcome Out;
  SpanRecorder Sp(Opts.Trace);
  SpanRecorder Off(false);

  // Set-up is repeated before the timed passes and between them, so its
  // median spans the run rather than one moment of a shared host.
  Inputs In;
  std::vector<double> SetupS;
  auto setUp = [&](Inputs &Into) {
    Clock::time_point T = Clock::now();
    Scope G(Sp, "workloads.gen");
    Into = makeInputs(Opts.Seed);
    SetupS.push_back(msSince(T) / 1000.0);
  };
  for (unsigned Rep = 0; Rep < SetupRepeats; ++Rep)
    setUp(In);

  std::vector<BigPass> Untraced, Traced;
  std::vector<std::map<std::string, double>> PassSelf;
  CpuRotation Rot(1);
  Clock::time_point T0 = Clock::now();
  while (Untraced.size() < MinPasses || msSince(T0) < Opts.Seconds * 1000) {
    Rot.pinForPass(Untraced.size());
    for (unsigned Rep = 0; !Opts.Trace && !Untraced.empty() &&
                           Rep < SetupsPerPass;
         ++Rep) {
      Inputs Again;
      setUp(Again);
    }
    Untraced.push_back(runPass(Out, In, Off));
    Out.check(Untraced.back().Digest == Untraced.front().Digest,
              "pass result digest equals the first pass's");
    if (Opts.Trace) {
      size_t From = Sp.size();
      Traced.push_back(runPass(Out, In, Sp));
      PassSelf.push_back(Sp.selfMsByName(From));
      Traced.back().Results.clear();
    }
    // Only the first pass's results are kept (1000-op bodies carry
    // sizeable partitioned graphs); on a traced run the second's feed the
    // count check. Keeping one whole pass and no partial one also makes
    // the peak resident set independent of the seeded body order.
    if (Untraced.size() > (Opts.Trace ? 2u : 1u))
      Untraced.back().Results.clear();
  }
  Rot.restore();
  const BigPass &First = Untraced.front();
  printTraffic(In, First);

  // Correctness gate, untimed: every schedule of the first pass.
  for (size_t I = 0; I < First.Results.size(); ++I)
    if (First.Results[I].Success)
      checkSchedule(Out, In.Bodies[I / In.NumPlans].L,
                    In.Bodies[I / In.NumPlans].M, First.Results[I],
                    SimCheckIterations);

  std::map<std::string, double> V;
  if (!Opts.Trace) {
    std::vector<double> PassMs, FastMs, Lat;
    for (const BigPass &P : Untraced)
      PassMs.push_back(P.WallMs);
    for (size_t K : fastestPasses(PassMs)) {
      FastMs.push_back(PassMs[K]);
      Lat.insert(Lat.end(), Untraced[K].LatencyMs.begin(),
                 Untraced[K].LatencyMs.end());
    }
    auto [ItOverMit, Agreement] = quality(In, First);
    std::printf("%zu passes; the fastest %zu give %zu loop-schedule latency "
                "samples\n",
                PassMs.size(), FastMs.size(), Lat.size());
    double Sec = median(FastMs) / 1000.0;
    V["setup_s"] = median(SetupS);
    V["programs_per_s"] = NumBodies / Sec;
    V["loop_schedules_per_s"] = In.Schedulers.size() / Sec;
    V["loop_schedule_ms_p50"] = percentile(Lat, 50);
    V["loop_schedule_ms_p90"] = percentile(Lat, 90);
    V["mean_ed2_ratio"] = verifySpecFP(Out, nullptr);
    V["argmin_agreement"] = Agreement;
    V["mean_it_over_mit"] = ItOverMit;
    V["peak_rss_mb"] = peakRssMb();
    emitMetrics(Out, EndToEndMetrics, V, false);
    return Out;
  }

  // Traced run: exact counts from two untraced passes, the traced
  // passes' self time by span, then the layer-by-layer replay, twice.
  V = passCounts(Untraced[0]);
  checkCountsIdentical(Out, V, passCounts(Untraced[1]));
  std::vector<std::map<std::string, double>> ReplaySelf;
  for (int Rep = 0; Rep < 2; ++Rep) {
    size_t From = Sp.size();
    {
      // One analysis per body: the pass computes each body's analyses
      // once and its arena's memo serves the other plans.
      Scope Root(Sp, "replay");
      for (size_t B = 0; B < NumBodies; ++B) {
        const BigLoopBody &Body = In.Bodies[B];
        LoopAnalysis A = analyzeLoop(Sp, Body.L, Body.M);
        for (size_t Pl = 0; Pl < In.NumPlans; ++Pl) {
          const LoopScheduleResult &R = First.Results[B * In.NumPlans + Pl];
          if (R.Success)
            replayLayers(Out, Sp, Body.L, A, Body.M, LoopScheduleOptions(),
                         nullptr, nullptr, R);
        }
      }
    }
    ReplaySelf.push_back(Sp.selfMsByName(From));
  }
  std::vector<double> UntracedMs, TracedMs;
  for (const BigPass &P : Untraced)
    UntracedMs.push_back(P.WallMs);
  for (const BigPass &P : Traced)
    TracedMs.push_back(P.WallMs);
  std::map<std::string, double> Self = medianByName(PassSelf);
  std::map<std::string, double> Replay = medianByName(ReplaySelf);
  double TracedMed = median(TracedMs), UntracedMed = median(UntracedMs);
  printLayerTable("big_loops", Self, TracedMed, UntracedMed, Replay);
  std::string Path = Opts.WorkDir + "/trace-big_loops.json";
  if (Sp.writeChromeTrace(Path))
    std::printf("chrome trace: %s\n", Path.c_str());
  verifySpecFP(Out, nullptr);

  V["workloads.gen_ms"] = median(SetupS) * 1000.0;
  V["partition.ms"] = Replay["partition"];
  V["sched.ms"] = Replay["sched"] + Replay["sched.validate"];
  V["ir.analysis_ms"] = Replay["ir.analysis"];
  // The profiling, explore, measure and runtime layers are never called
  // on this workload and read 0.
  emitMetrics(Out, LayerMetrics, V, true);
  return Out;
}

} // namespace hcbench
