//===- tests/partition/DeltaScoreTest.cpp - Delta scoring vs. full estimate ===//
//
// PartitionScorer must return, for every assignment it reaches, exactly
// what the full estimate returns: the score double bit for bit
// (scorePartition), and Feasible / Comms / ItLengthNs / Overflow
// (estimatePseudoScheduleInto). Seeded random move / undo / accept
// sequences drive it over the SPECfp loops, the synthetic families and
// big unrolled kernels, on 2- and 4-cluster machines, under both
// objectives, and through every infeasibility kind the estimate grades
// (FU capacity, bus capacity, register proxy, recurrence cycle).
//
//===----------------------------------------------------------------------===//

#include "configsel/Scaling.h"
#include "ir/LoopBuilder.h"
#include "mcd/DomainPlanner.h"
#include "partition/PartitionScorer.h"
#include "partition/Partitioner.h"
#include "workloads/SpecFPSuite.h"
#include "workloads/SyntheticLoops.h"

#include <gtest/gtest.h>

#include <cstring>

using namespace hcvliw;

namespace {

bool sameBits(double A, double B) {
  return std::memcmp(&A, &B, sizeof A) == 0;
}

HeteroConfig heteroConfig(const MachineDescription &M) {
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < C.numClusters(); ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  return C;
}

/// Which infeasibility kinds the oracle reported (any flag, not only
/// the first), and how many scores were compared.
struct Tally {
  uint64_t Scores = 0;
  uint64_t Capacity = 0, Bus = 0, Registers = 0, Recurrence = 0;
};

/// One loop on one (machine, plan): the objective inputs plus a scorer
/// and the oracle context over the same objects.
struct Fixture {
  const Loop &L;
  DDG G;
  MachineDescription M;
  HeteroConfig Cfg;
  MachinePlan Plan;
  RecurrenceInfo Recs;
  EnergyModel Energy;
  HeteroScaling Scaling;
  PartitionContext Ctx;
  PartitionerOptions Opts;
  PartitionScorer Sc;

  Fixture(const Loop &TheLoop, const MachineDescription &TheMachine,
          const HeteroConfig &TheCfg, const MachinePlan &ThePlan, bool ED2)
      : L(TheLoop), G(DDG::build(TheLoop)), M(TheMachine), Cfg(TheCfg),
        Plan(ThePlan), Recs(analyzeRecurrences(G, M.Isa.nodeLatencies(L))),
        Energy(EnergyBreakdown(), referenceCounts(), 1e5, M.numClusters()),
        Scaling(scalingForConfig(Cfg, M, TechnologyModel::paperDefault())) {
    Ctx.L = &L;
    Ctx.G = &G;
    Ctx.M = &M;
    Ctx.Plan = &Plan;
    Ctx.Recs = &Recs;
    Ctx.Energy = &Energy;
    Ctx.Scaling = &Scaling;
    Ctx.TripCount = L.TripCount;
    Opts.ED2Objective = ED2;
    ScoreObjective Obj;
    Obj.ED2 = ED2;
    Obj.Energy = &Energy;
    Obj.Scaling = &Scaling;
    Obj.TripCount = L.TripCount;
    Sc.bind(L, G, M, Plan, Obj);
  }

  static ActivityCounts referenceCounts() {
    ActivityCounts Ref;
    Ref.WeightedIns = 1000;
    Ref.Comms = 20;
    Ref.MemAccesses = 300;
    return Ref;
  }

  /// Scores the scorer's current assignment and compares it with the
  /// full estimate; returns false (after one failure report) on a
  /// mismatch.
  bool check(Tally &T, const char *What) {
    double Got = Sc.score();
    const Partition &P = Sc.partition();
    PseudoSchedule Want = estimatePseudoSchedule(L, G, M, Plan, P);
    double WantScore = scorePartition(Ctx, Opts, P);
    const ScoreDetail &D = Sc.detail();
    ++T.Scores;
    if (!Want.Feasible) {
      // Re-derive every flagged kind from the estimate's own inputs.
      if (Want.Overflow >= 1e3)
        ++T.Recurrence;
      if (Want.Reason == "cluster capacity exceeded")
        ++T.Capacity;
      if (Want.Comms > Plan.Bus.II * M.Buses)
        ++T.Bus;
      for (unsigned C = 0; C < M.numClusters(); ++C)
        if (Want.LifetimeProxy[C] >
            static_cast<int64_t>(M.Clusters[C].Registers) *
                Plan.Clusters[C].II) {
          ++T.Registers;
          break;
        }
    }
    bool Ok = sameBits(Got, WantScore) && D.Feasible == Want.Feasible &&
              D.Comms == Want.Comms && D.ItLengthNs == Want.ItLengthNs &&
              sameBits(D.Overflow, Want.Overflow);
    if (!Ok)
      ADD_FAILURE() << L.Name << " (" << What << ", " << M.numClusters()
                    << " clusters, IT " << Plan.ITNs.toDouble() << ", "
                    << (Opts.ED2Objective ? "ED2" : "baseline")
                    << "): delta score " << Got << " vs full " << WantScore
                    << "; feasible " << D.Feasible << "/" << Want.Feasible
                    << ", comms " << D.Comms << "/" << Want.Comms
                    << ", it_length " << D.ItLengthNs.toDouble() << "/"
                    << Want.ItLengthNs.toDouble() << ", overflow "
                    << D.Overflow << "/" << Want.Overflow << " ("
                    << Want.Reason << ")";
    return Ok;
  }
};

/// Seeded random move / undo / accept sequence. A *unit* is a whole
/// recurrence or a single node outside every recurrence (what the
/// partitioner moves); a few steps split a recurrence on purpose, to
/// cover the scorer's full-estimate fallback.
void drive(Fixture &F, uint64_t Seed, unsigned Steps, Tally &T) {
  RNG R(Seed);
  const unsigned N = F.G.size(), NC = F.M.numClusters();
  std::vector<std::vector<unsigned>> Units;
  for (const Recurrence &Rec : F.Recs.Recurrences)
    Units.push_back(Rec.Nodes);
  for (unsigned I = 0; I < N; ++I)
    if (F.Recs.RecurrenceOf[I] < 0)
      Units.push_back({I});

  std::vector<unsigned> Init(N);
  for (const auto &U : Units) {
    unsigned C = static_cast<unsigned>(R.nextInt(0, NC - 1));
    for (unsigned Nd : U)
      Init[Nd] = C;
  }
  F.Sc.reset(Init);
  if (!F.check(T, "reset"))
    return;

  for (unsigned Step = 0; Step < Steps; ++Step) {
    double Kind = R.nextDouble();
    if (Kind < 0.05) {
      unsigned C = static_cast<unsigned>(R.nextInt(0, NC - 1));
      for (unsigned Nd = 0; Nd < N; ++Nd)
        F.Sc.moveNode(Nd, C); // everything onto one cluster
    } else if (Kind < 0.12 && !F.Recs.Recurrences.empty()) {
      const auto &Rec = R.pick(F.Recs.Recurrences).Nodes;
      F.Sc.moveNode(R.pick(Rec), static_cast<unsigned>(R.nextInt(0, NC - 1)));
    } else {
      unsigned Count = static_cast<unsigned>(R.nextInt(1, 4));
      for (unsigned K = 0; K < Count; ++K) {
        unsigned C = static_cast<unsigned>(R.nextInt(0, NC - 1));
        for (unsigned Nd : R.pick(Units))
          F.Sc.moveNode(Nd, C);
      }
    }
    if (!F.check(T, "move"))
      return;
    if (R.nextBool(0.35)) {
      F.Sc.accept();
    } else {
      F.Sc.undo();
      if (R.nextBool(0.3) && !F.check(T, "undo"))
        return;
    }
  }
}

/// Plans at the loop's MIT and a few IT growths past it (tight plans
/// grade infeasibility; loose ones are feasible).
std::vector<MachinePlan> plansFor(const Loop &L, const MachineDescription &M,
                                  const HeteroConfig &Cfg, unsigned Steps) {
  DomainPlanner Planner(M, Cfg, FrequencyMenu::continuous());
  DDG G = DDG::build(L);
  int64_t RecMII = analyzeRecurrences(G, M.Isa.nodeLatencies(L)).RecMII;
  Rational IT = Planner.computeMIT(RecMII, L.opCountsByFU());
  std::vector<MachinePlan> Plans;
  for (unsigned S = 0; S < 16 && Plans.size() < Steps; ++S) {
    if (auto P = Planner.planForIT(IT))
      Plans.push_back(*P);
    IT = Planner.nextIT(IT);
  }
  return Plans;
}

/// Every (2/4 clusters) x (hetero/reference) x (ED2/baseline) x plan
/// combination of one loop.
void sweepLoop(const Loop &L, uint64_t Seed, unsigned Steps, Tally &T,
               unsigned NumPlans = 2) {
  for (unsigned NC : {2u, 4u}) {
    MachineDescription M = MachineDescription::paperDefault(1, NC);
    if (L.Ops.size() > 128)
      for (auto &Cl : M.Clusters)
        Cl.Registers = bigLoopRegisters(static_cast<unsigned>(L.Ops.size()));
    for (bool Hetero : {true, false}) {
      HeteroConfig Cfg = Hetero ? heteroConfig(M) : HeteroConfig::reference(M);
      for (const MachinePlan &Plan : plansFor(L, M, Cfg, NumPlans))
        for (bool ED2 : {true, false}) {
          Fixture F(L, M, Cfg, Plan, ED2);
          drive(F, Seed++, Steps, T);
          if (::testing::Test::HasFailure())
            return;
        }
    }
  }
}

TEST(DeltaScore, SpecFPLoopsMatchFullEstimate) {
  Tally T;
  uint64_t Seed = 1;
  for (const BenchmarkProgram &P : buildSpecFPSuite())
    for (const Loop &L : P.Loops) {
      sweepLoop(L, Seed, 24, T);
      Seed += 100;
      ASSERT_FALSE(HasFailure()) << P.Name;
    }
  EXPECT_GT(T.Scores, 1000u);
}

TEST(DeltaScore, SyntheticFamiliesMatchFullEstimate) {
  std::vector<Loop> Loops = {
      makeStreamLoop("stream", 6, 64, 1.0),
      makeStencilLoop("stencil", 7, 64, 1.0),
      makeChainRecurrenceLoop("chain", 1, 2, 1, 3, 64, 1.0),
      makeChainRecurrenceLoop("chain2", 2, 3, 2, 5, 64, 1.0),
      makeWideRecurrenceLoop("wide", 4, 1, 3, 64, 1.0),
      makeBorderlineLoop("border", 4, 3, 64, 1.0),
  };
  RNG R(7);
  for (unsigned I = 0; I < 12; ++I) {
    RandomLoopParams P;
    P.MaxDist = 1 + I % 3;
    Loops.push_back(makeRandomLoop(R, P, "rand" + std::to_string(I)));
  }
  Tally T;
  uint64_t Seed = 11;
  for (const Loop &L : Loops) {
    sweepLoop(L, Seed, 40, T, 3);
    Seed += 100;
    ASSERT_FALSE(HasFailure()) << L.Name;
  }
  // The sequences reach every graded infeasibility kind.
  EXPECT_GT(T.Capacity, 0u);
  EXPECT_GT(T.Bus, 0u);
  EXPECT_GT(T.Recurrence, 0u);
}

TEST(DeltaScore, UnrolledKernelsMatchFullEstimate) {
  Tally T;
  for (unsigned Ops : {256u, 1024u}) {
    Loop L = makeUnrolledKernelLoop("k" + std::to_string(Ops), Ops);
    sweepLoop(L, Ops, Ops > 512 ? 6 : 16, T, 1);
    ASSERT_FALSE(HasFailure());
  }
  EXPECT_GT(T.Scores, 100u);
}

/// A machine whose register files cannot hold even a balanced spread:
/// every score carries the register-proxy grade.
TEST(DeltaScore, RegisterProxyInfeasibilityMatches) {
  Loop L = makeStreamLoop("regs", 6, 64, 1.0);
  MachineDescription M = MachineDescription::paperDefault(1, 2);
  for (auto &Cl : M.Clusters)
    Cl.Registers = 1;
  HeteroConfig Cfg = heteroConfig(M);
  Tally T;
  for (const MachinePlan &Plan : plansFor(L, M, Cfg, 2))
    for (bool ED2 : {true, false}) {
      Fixture F(L, M, Cfg, Plan, ED2);
      drive(F, 5, 30, T);
    }
  EXPECT_GT(T.Registers, 0u);
}

/// A recurrence whose recMII exceeds the slow clusters' II: moving it
/// whole into a slow cluster is a positive cycle inside one SCC, which
/// the delta scorer must grade exactly like the wave fixpoint.
TEST(DeltaScore, RecurrenceInfeasibleCycleMatches) {
  Loop L = makeChainRecurrenceLoop("r", 1, 2, 1, 3, 16, 1.0);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig Cfg = heteroConfig(M);
  DomainPlanner Planner(M, Cfg, FrequencyMenu::continuous());
  auto Plan = Planner.planForIT(Rational(54, 5)); // fast II 12, slow II 8
  ASSERT_TRUE(Plan.has_value());
  Fixture F(L, M, Cfg, *Plan, true);
  ASSERT_FALSE(F.Recs.Recurrences.empty());
  const Recurrence &Rec = F.Recs.Recurrences[0];
  ASSERT_GT(Rec.RecMII, Plan->Clusters[1].II);

  Tally T;
  F.Sc.reset(std::vector<unsigned>(F.G.size(), 0));
  ASSERT_TRUE(F.check(T, "fast"));
  EXPECT_TRUE(F.Sc.detail().Feasible);
  for (unsigned Nd : Rec.Nodes)
    F.Sc.moveNode(Nd, 1);
  ASSERT_TRUE(F.check(T, "slow"));
  EXPECT_FALSE(F.Sc.detail().Feasible);
  EXPECT_GE(F.Sc.detail().Overflow, 1e3);
  F.Sc.undo();
  ASSERT_TRUE(F.check(T, "undone"));
  EXPECT_TRUE(F.Sc.detail().Feasible);
  EXPECT_EQ(T.Recurrence, 1u);
}

/// A value consumed only eight iterations later, on another cluster: its
/// copy finishes after every operation, so the copies' share of the
/// iteration length decides ItLengthNs.
TEST(DeltaScore, CarriedCopyBoundsIterationLength) {
  LoopBuilder B("carried", 16);
  unsigned A = B.array("a"), Out = B.array("b");
  unsigned X = B.load("x", A);
  unsigned Y = B.op(Opcode::FMul, "y", Operand::def(X), Operand::def(X));
  unsigned Z = B.op(Opcode::FAdd, "z", Operand::def(Y, 8), Operand::imm(1));
  B.setInit(Y, 0);
  unsigned St = B.store(Out, Operand::def(Z));
  Loop L = B.take();
  MachineDescription M = MachineDescription::paperDefault(1, 2);
  HeteroConfig Cfg = HeteroConfig::reference(M);
  auto Plans = plansFor(L, M, Cfg, 1);
  ASSERT_FALSE(Plans.empty());
  Fixture F(L, M, Cfg, Plans[0], false);

  std::vector<unsigned> Split(F.G.size(), 0);
  Split[Z] = 1;
  Split[St] = 1;
  Tally T;
  F.Sc.reset(Split);
  ASSERT_TRUE(F.check(T, "split"));
  EXPECT_EQ(F.Sc.detail().Comms, 1u);
  // The copy ends after y, the last operation to finish.
  Rational YEnd = Rational(M.Isa.latency(Opcode::Load) +
                           M.Isa.latency(Opcode::FMul)) *
                  Plans[0].Clusters[0].PeriodNs;
  EXPECT_GT(F.Sc.detail().ItLengthNs, YEnd);
}

/// A single-macro move re-propagates the ASAP from the moved nodes
/// only: on a 1024-op kernel its relaxations stay far below one full
/// pass over the edges.
TEST(DeltaScore, MovesRepropagateLocally) {
  Loop L = makeUnrolledKernelLoop("k1024", 1024);
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(1024);
  HeteroConfig Cfg = heteroConfig(M);
  auto Plans = plansFor(L, M, Cfg, 1);
  ASSERT_FALSE(Plans.empty());
  Fixture F(L, M, Cfg, Plans[0], true);
  F.Sc.reset(std::vector<unsigned>(F.G.size(), 0));
  F.Sc.score();
  F.Sc.accept();
  uint64_t Full = F.Sc.Relaxations;
  EXPECT_GE(Full, F.G.numEdges());

  RNG R(3);
  const unsigned Moves = 200;
  uint64_t Before = F.Sc.Relaxations;
  for (unsigned I = 0; I < Moves; ++I) {
    unsigned Nd = static_cast<unsigned>(R.nextInt(0, F.G.size() - 1));
    if (F.Recs.RecurrenceOf[Nd] >= 0)
      continue;
    F.Sc.moveNode(Nd, static_cast<unsigned>(R.nextInt(1, 3)));
    F.Sc.score();
    F.Sc.undo();
  }
  EXPECT_LT((F.Sc.Relaxations - Before) / Moves, F.G.numEdges() / 4);
}

} // namespace
