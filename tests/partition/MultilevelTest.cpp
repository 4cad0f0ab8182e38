//===- tests/partition/MultilevelTest.cpp - Coarsen/refine hierarchy --------===//
//
// Pins the multilevel partitioner's structural invariants — level sizes
// shrink geometrically, every recorded level is a valid partition of
// the loop, pins survive coarsening, refinement never worsens the
// tracked objective — and the headline behavioral guarantee of the
// hierarchy: loops far beyond the old ~200-op ceiling schedule
// end-to-end through the real partitioner, validator-clean, with
// results bit-identical across worker thread counts.
//
//===----------------------------------------------------------------------===//

#include "ir/EdgeSlack.h"
#include "mcd/DomainPlanner.h"
#include "partition/LoopScheduler.h"
#include "partition/MultilevelGraph.h"
#include "partition/Partitioner.h"
#include "partition/ScheduleScratch.h"
#include "runtime/WorkerPool.h"
#include "sched/ScheduleValidator.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <map>

using namespace hcvliw;

namespace {

HeteroConfig heteroConfig(const MachineDescription &M) {
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < C.numClusters(); ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  return C;
}

/// The machine of the big-loop fixtures: the paper machine with its
/// register files scaled for the body size (see bigLoopRegisters).
MachineDescription bigLoopMachine(unsigned Ops) {
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(Ops);
  return M;
}

/// Everything MultilevelGraph::build consumes, derived the same way
/// partitionLoop derives it (no pre-placement: all-singleton groups).
struct CoarsenFixture {
  Loop L;
  DDG G;
  MachineDescription M;
  std::vector<int64_t> Slack;
  MultilevelGraph ML;

  explicit CoarsenFixture(Loop TheLoop, unsigned TargetMacros,
                          std::vector<std::vector<unsigned>> Groups = {},
                          std::vector<int> Pins = {})
      : L(std::move(TheLoop)), M(bigLoopMachine(
            static_cast<unsigned>(L.Ops.size()))) {
    G = DDG::build(L);
    RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
    computeEdgeSlackInto(Slack, G, M.Isa.nodeLatencies(L),
                         std::max<int64_t>(Recs.RecMII, 1));
    ML.build(L, G, M, Groups, Pins, Slack, TargetMacros);
  }
};

TEST(Multilevel, LevelSizesShrinkGeometrically) {
  CoarsenFixture F(makeUnrolledKernelLoop("geo", 384), /*TargetMacros=*/4);
  ASSERT_GE(F.ML.numLevels(), 3u);
  unsigned N = static_cast<unsigned>(F.L.Ops.size());
  EXPECT_EQ(F.ML.level(0).NumMacros, N); // finest = all singletons
  for (unsigned I = 1; I < F.ML.numLevels(); ++I) {
    unsigned Prev = F.ML.level(I - 1).NumMacros;
    unsigned Cur = F.ML.level(I).NumMacros;
    EXPECT_LT(Cur, Prev) << "level " << I;
    // The recording rule: a level is only recorded once it has shrunk
    // to <= 3/4 of the previous one (or coarsening stalled/hit target,
    // which only the last level may claim).
    if (I + 1 < F.ML.numLevels())
      EXPECT_LE(Cur, std::max(4u, Prev * 3 / 4)) << "level " << I;
  }
  EXPECT_LE(F.ML.coarsest().NumMacros, N / 2);
  const MultilevelGraph::BuildStats &BS = F.ML.buildStats();
  EXPECT_EQ(BS.Levels, F.ML.numLevels());
  EXPECT_GT(BS.MatchedPairs, 0u);
  EXPECT_GE(BS.Rounds, BS.Levels - 1);
}

TEST(Multilevel, EveryLevelIsAValidPartitionOfTheLoop) {
  CoarsenFixture F(makeUnrolledKernelLoop("valid", 320), /*TargetMacros=*/4);
  unsigned N = static_cast<unsigned>(F.L.Ops.size());

  // Loop-level totals the per-macro aggregates must add up to.
  std::vector<unsigned> KindTotal(NumFUKinds, 0);
  double WeightTotal = 0;
  for (unsigned Nd = 0; Nd < N; ++Nd) {
    ++KindTotal[static_cast<unsigned>(fuKindOf(F.L.Ops[Nd].Op))];
    WeightTotal += F.M.Isa.energy(F.L.Ops[Nd].Op);
  }

  for (unsigned LI = 0; LI < F.ML.numLevels(); ++LI) {
    const CoarseLevel &Lvl = F.ML.level(LI);
    SCOPED_TRACE(testing::Message() << "level " << LI);
    ASSERT_EQ(Lvl.MacroOf.size(), N);
    ASSERT_EQ(Lvl.Rep.size(), Lvl.NumMacros);
    ASSERT_EQ(Lvl.Size.size(), Lvl.NumMacros);
    ASSERT_EQ(Lvl.Weight.size(), Lvl.NumMacros);
    ASSERT_EQ(Lvl.Pin.size(), Lvl.NumMacros);
    ASSERT_EQ(Lvl.FUCounts.size(),
              static_cast<size_t>(Lvl.NumMacros) * NumFUKinds);

    // MacroOf is a total map onto [0, NumMacros); Size/Rep agree with
    // it; FUCounts and Weight aggregate exactly the members.
    std::vector<unsigned> SeenSize(Lvl.NumMacros, 0);
    std::vector<unsigned> FirstMember(Lvl.NumMacros, ~0u);
    std::vector<unsigned> Kinds(static_cast<size_t>(Lvl.NumMacros) *
                                NumFUKinds);
    std::vector<double> W(Lvl.NumMacros, 0.0);
    for (unsigned Nd = 0; Nd < N; ++Nd) {
      unsigned Mac = Lvl.MacroOf[Nd];
      ASSERT_LT(Mac, Lvl.NumMacros);
      if (SeenSize[Mac]++ == 0)
        FirstMember[Mac] = Nd;
      ++Kinds[static_cast<size_t>(Mac) * NumFUKinds +
              static_cast<unsigned>(fuKindOf(F.L.Ops[Nd].Op))];
      W[Mac] += F.M.Isa.energy(F.L.Ops[Nd].Op);
    }
    unsigned SizeSum = 0;
    std::vector<unsigned> KindSum(NumFUKinds, 0);
    double WeightSum = 0;
    for (unsigned Mac = 0; Mac < Lvl.NumMacros; ++Mac) {
      EXPECT_GT(Lvl.Size[Mac], 0u) << "empty macro " << Mac;
      EXPECT_EQ(Lvl.Size[Mac], SeenSize[Mac]) << Mac;
      EXPECT_EQ(Lvl.Rep[Mac], FirstMember[Mac]) << Mac;
      EXPECT_DOUBLE_EQ(Lvl.Weight[Mac], W[Mac]) << Mac;
      for (unsigned K = 0; K < NumFUKinds; ++K) {
        EXPECT_EQ(Lvl.fuCount(Mac, K),
                  Kinds[static_cast<size_t>(Mac) * NumFUKinds + K])
            << Mac;
        KindSum[K] += Lvl.fuCount(Mac, K);
      }
      SizeSum += Lvl.Size[Mac];
      WeightSum += Lvl.Weight[Mac];
    }
    EXPECT_EQ(SizeSum, N);
    EXPECT_EQ(KindSum, KindTotal);
    EXPECT_NEAR(WeightSum, WeightTotal, 1e-9 * WeightTotal);

    // CSR adjacency: monotone offsets, in-range targets, no self
    // edges, and symmetric (same multiplicity and slack both ways).
    ASSERT_EQ(Lvl.AdjStart.size(), Lvl.NumMacros + 1u);
    ASSERT_EQ(Lvl.AdjStart.back(), Lvl.AdjMacro.size());
    ASSERT_EQ(Lvl.AdjMacro.size(), Lvl.AdjWeight.size());
    ASSERT_EQ(Lvl.AdjMacro.size(), Lvl.AdjSlack.size());
    std::map<std::pair<unsigned, unsigned>, std::pair<unsigned, int64_t>>
        Half;
    for (unsigned Mac = 0; Mac < Lvl.NumMacros; ++Mac) {
      ASSERT_LE(Lvl.AdjStart[Mac], Lvl.AdjStart[Mac + 1]);
      for (unsigned I = Lvl.AdjStart[Mac]; I < Lvl.AdjStart[Mac + 1]; ++I) {
        unsigned To = Lvl.AdjMacro[I];
        ASSERT_LT(To, Lvl.NumMacros);
        EXPECT_NE(To, Mac) << "self edge on macro " << Mac;
        Half[{Mac, To}] = {Lvl.AdjWeight[I], Lvl.AdjSlack[I]};
      }
    }
    for (const auto &KV : Half) {
      auto Rev = Half.find({KV.first.second, KV.first.first});
      ASSERT_NE(Rev, Half.end())
          << "asymmetric edge " << KV.first.first << "<->"
          << KV.first.second;
      EXPECT_EQ(Rev->second, KV.second);
    }
  }
}

TEST(Multilevel, PinsSurviveCoarseningAndNeverMerge) {
  Loop L = makeUnrolledKernelLoop("pins", 160);
  // Two pre-fused groups pinned to different clusters (the shape the
  // critical-recurrence pre-placement produces).
  std::vector<std::vector<unsigned>> Groups = {{0, 1, 2}, {3, 4}};
  std::vector<int> Pins = {2, 0};
  CoarsenFixture F(std::move(L), /*TargetMacros=*/4, Groups, Pins);
  for (unsigned LI = 0; LI < F.ML.numLevels(); ++LI) {
    const CoarseLevel &Lvl = F.ML.level(LI);
    SCOPED_TRACE(testing::Message() << "level " << LI);
    unsigned MacA = Lvl.MacroOf[0], MacB = Lvl.MacroOf[3];
    // Group members stay fused...
    EXPECT_EQ(Lvl.MacroOf[1], MacA);
    EXPECT_EQ(Lvl.MacroOf[2], MacA);
    EXPECT_EQ(Lvl.MacroOf[4], MacB);
    // ...their macros keep their pins and never merge with each other.
    EXPECT_NE(MacA, MacB);
    EXPECT_EQ(Lvl.Pin[MacA], 2);
    EXPECT_EQ(Lvl.Pin[MacB], 0);
  }
}

TEST(Multilevel, RefinementNeverWorsensTrackedObjective) {
  // Exercises both refinement regimes: the 64-op loop stays below
  // MaxRefineMacros everywhere (exact greedy only), the 320-op one has
  // levels above it (boundary FM with guarded acceptance).
  for (unsigned Ops : {64u, 320u}) {
    SCOPED_TRACE(testing::Message() << Ops << " ops");
    Loop L = makeUnrolledKernelLoop("mono", Ops);
    MachineDescription M = bigLoopMachine(Ops);
    HeteroConfig C = heteroConfig(M);
    DDG G = DDG::build(L);
    RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
    DomainPlanner Planner(M, C, FrequencyMenu::continuous());

    // Relax the IT until the partitioner finds room (the Figure 5
    // driver's retry loop); the monotonicity contract holds at every
    // attempt, feasible or not.
    std::optional<Partition> P;
    PartitionStats Stats;
    for (int64_t IT : {8, 16, 32, 64}) {
      auto Plan = Planner.planForIT(Rational(IT));
      ASSERT_TRUE(Plan.has_value());
      PartitionContext Ctx;
      Ctx.L = &L;
      Ctx.G = &G;
      Ctx.M = &M;
      Ctx.Plan = &*Plan;
      Ctx.Recs = &Recs;
      Ctx.TripCount = L.TripCount;
      Stats = PartitionStats();
      Ctx.Stats = &Stats;
      PartitionerOptions O;
      O.ED2Objective = false; // the baseline objective needs no models
      P = partitionLoop(Ctx, O);
      EXPECT_LE(Stats.FinalScore, Stats.InitialScore);
      if (P.has_value())
        break;
    }
    ASSERT_TRUE(P.has_value());
    EXPECT_EQ(Stats.Runs, 1u);
    EXPECT_EQ(Stats.CoarsenBuilds, 1u);
    EXPECT_GT(Stats.Levels, 1u);
    EXPECT_GT(Stats.MatchedPairs, 0u);
    EXPECT_LE(Stats.FinalScore, Stats.InitialScore);
    if (Ops == 320u)
      EXPECT_GT(Stats.FMPasses, 0u); // the FM regime really ran
  }
}

/// Schedules one big-loop fixture end-to-end; EXPECTs success and a
/// validator-clean, pressure-feasible schedule, and returns the result.
LoopScheduleResult scheduleBigLoop(unsigned Ops, unsigned Try,
                                   ScheduleScratch *Scratch = nullptr) {
  Loop L = makeUnrolledKernelLoop("big", Ops, Try);
  MachineDescription M = bigLoopMachine(Ops);
  LoopScheduler S(M, heteroConfig(M));
  LoopScheduleResult R = S.schedule(L, nullptr, nullptr, Scratch);
  EXPECT_TRUE(R.Success) << Ops << " ops: " << R.failureSummary();
  if (R.Success) {
    ValidatorOptions VO;
    VO.CheckRegisterPressure = false; // the exact model below replaces it
    EXPECT_EQ(validateSchedule(M, R.PG, R.Sched, VO), "");
    EXPECT_TRUE(
        computeRegisterPressure(R.PG, R.Sched).fits(M));
  }
  return R;
}

TEST(BigLoop, FiveHundredTwelveOpsSchedulesThroughRealPartitioner) {
  LoopScheduleResult R = scheduleBigLoop(512, 0);
  EXPECT_GT(R.Placements, 512u);
}

TEST(BigLoop, ThousandOpsSchedulesThroughRealPartitioner) {
  // The acceptance bar of the whole hierarchy: a 1024-op loop places
  // and schedules with no cyclic-fixture fallback.
  LoopScheduleResult R = scheduleBigLoop(1024, 0);
  EXPECT_GT(R.Placements, 1024u);
}

TEST(BigLoop, BitIdenticalAcrossWorkerThreadCounts) {
  // Schedules a batch of big loops through per-worker arenas under
  // WorkerPool fan-out; slots, units, pressure and effort counters must
  // be bit-identical for Threads in {1, 2, 4}.
  struct Job {
    unsigned Ops, Try;
  };
  const std::vector<Job> Jobs = {{512, 0}, {512, 1}, {768, 0}};

  auto runAll = [&](unsigned Threads) {
    std::vector<LoopScheduleResult> Out(Jobs.size());
    WorkerPool Pool(Threads);
    ScheduleScratchPool Arenas;
    Pool.parallelFor(Jobs.size(), [&](size_t I) {
      Out[I] = scheduleBigLoop(Jobs[I].Ops, Jobs[I].Try,
                               &Arenas.forThisThread());
    });
    return Out;
  };

  std::vector<LoopScheduleResult> Serial = runAll(1);
  for (unsigned Threads : {2u, 4u}) {
    SCOPED_TRACE(testing::Message() << Threads << " threads");
    std::vector<LoopScheduleResult> Par = runAll(Threads);
    ASSERT_EQ(Par.size(), Serial.size());
    for (size_t I = 0; I < Serial.size(); ++I) {
      const LoopScheduleResult &A = Serial[I], &B = Par[I];
      SCOPED_TRACE(testing::Message() << Jobs[I].Ops << " ops try "
                                      << Jobs[I].Try);
      ASSERT_EQ(A.Success, B.Success);
      ASSERT_EQ(A.Sched.Nodes.size(), B.Sched.Nodes.size());
      for (size_t S = 0; S < A.Sched.Nodes.size(); ++S) {
        EXPECT_EQ(A.Sched.Nodes[S].Slot, B.Sched.Nodes[S].Slot);
        EXPECT_EQ(A.Sched.Nodes[S].Unit, B.Sched.Nodes[S].Unit);
      }
      EXPECT_EQ(A.Pressure.MaxLive, B.Pressure.MaxLive);
      EXPECT_EQ(A.ITSteps, B.ITSteps);
      EXPECT_EQ(A.Placements, B.Placements);
      EXPECT_EQ(A.Ejections, B.Ejections);
      EXPECT_EQ(A.BudgetUsed, B.BudgetUsed);
    }
  }
}

} // namespace
