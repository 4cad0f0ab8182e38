//===- bench/bench_micro_infra.cpp - Infrastructure microbenchmarks ---------===//
//
// google-benchmark measurements of the scheduling infrastructure itself:
// recMII computation, per-edge slack analysis, graph partitioning, modulo
// scheduling, the pipelined simulator, and the full per-program
// pipeline. These are the costs a compiler integrating the technique
// would pay at -O3.
//
//===----------------------------------------------------------------------===//

#include "BenchHarness.h"

#include "configsel/Scaling.h"
#include "core/HeterogeneousPipeline.h"
#include "ir/EdgeSlack.h"
#include "ir/RecurrenceAnalysis.h"
#include "partition/LoopScheduler.h"
#include "partition/PartitionScorer.h"
#include "partition/Partitioner.h"
#include "vliwsim/PipelinedSimulator.h"
#include "workloads/SyntheticLoops.h"

#include <benchmark/benchmark.h>

using namespace hcvliw;

static Loop benchLoop(unsigned Ops) {
  RNG Rng(0x5eed + Ops);
  RandomLoopParams P;
  P.MinOps = Ops;
  P.MaxOps = Ops;
  P.Trip = 64;
  return makeRandomLoop(Rng, P, "bench");
}

static void BM_RecMII(benchmark::State &State) {
  Loop L = benchLoop(static_cast<unsigned>(State.range(0)));
  DDG G = DDG::build(L);
  MachineDescription M = MachineDescription::paperDefault();
  auto Lat = M.Isa.nodeLatencies(L);
  for (auto _ : State)
    benchmark::DoNotOptimize(computeRecMII(G, Lat));
}
BENCHMARK(BM_RecMII)->Arg(16)->Arg(48)->Arg(96);

// The coarsening slack analysis on the big-loop fixture family, the
// only inputs large enough for its cost to matter. "relaxations" is
// the analysis's deterministic work counter.
static void BM_EdgeSlack(benchmark::State &State) {
  Loop L = makeUnrolledKernelLoop("bench",
                                  static_cast<unsigned>(State.range(0)));
  DDG G = DDG::build(L);
  MachineDescription M = MachineDescription::paperDefault();
  auto Lat = M.Isa.nodeLatencies(L);
  int64_t II = std::max<int64_t>(1, computeRecMII(G, Lat));
  std::vector<int64_t> Slack;
  EdgeSlackScratch Scratch;
  uint64_t Relaxations = 0;
  for (auto _ : State)
    Relaxations = computeEdgeSlackInto(Slack, G, Lat, II, &Scratch);
  State.counters["relaxations"] = static_cast<double>(Relaxations);
}
BENCHMARK(BM_EdgeSlack)->Arg(96)->Arg(384)->Arg(1536);

// Edge relaxations of the full estimate's wave ASAP fixpoint on \p T:
// the same waves as TickGraph::computeAsapTicksInto, counted.
static uint64_t waveRelaxations(const TickGraph &T) {
  const PartitionedGraph &PG = T.graph();
  unsigned N = PG.size();
  std::vector<int64_t> Start(N, 0);
  std::vector<unsigned> Cur(N), Next;
  std::vector<uint8_t> In(N, 0);
  for (unsigned I = 0; I < N; ++I)
    Cur[I] = I;
  uint64_t Relaxations = 0;
  for (unsigned Wave = 0; Wave <= N && !Cur.empty(); ++Wave) {
    for (unsigned V : Cur) {
      In[V] = 0;
      for (unsigned EIx : PG.outEdges(V)) {
        ++Relaxations;
        unsigned D = PG.edge(EIx).Dst;
        int64_t A = alignUpToTick(T.edgeStartBound(EIx, Start[V]),
                                  T.periodTicks(D));
        if (Start[D] < A) {
          Start[D] = A;
          if (!In[D]) {
            In[D] = 1;
            Next.push_back(D);
          }
        }
      }
    }
    Cur.swap(Next);
    Next.clear();
  }
  return Relaxations;
}

// One candidate move + undo on the unrolled-kernel family: the full
// estimate (Arg 1 = 0: rebuild the partitioned graph and tick graph,
// wave ASAP from zero) against the live delta scorer (Arg 1 = 1). The
// assignment keeps every recurrence whole, as the partitioner does.
// "relaxations" counts the ASAP's edge relaxations per candidate.
static void BM_ScorePartition(benchmark::State &State) {
  unsigned Ops = static_cast<unsigned>(State.range(0));
  bool Delta = State.range(1) != 0;
  Loop L = makeUnrolledKernelLoop("bench", Ops);
  DDG G = DDG::build(L);
  MachineDescription M = MachineDescription::paperDefault();
  for (auto &Cl : M.Clusters)
    Cl.Registers = bigLoopRegisters(Ops);
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < 4; ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  RecurrenceInfo Recs = analyzeRecurrences(G, M.Isa.nodeLatencies(L));
  DomainPlanner Planner(M, C, FrequencyMenu::continuous());
  auto Plan =
      Planner.planForIT(Planner.computeMIT(Recs.RecMII, L.opCountsByFU()));
  if (!Plan) {
    State.SkipWithError("no plan at the MIT");
    return;
  }
  ActivityCounts Ref;
  Ref.WeightedIns = 1000;
  Ref.Comms = 20;
  Ref.MemAccesses = 300;
  EnergyModel Energy(EnergyBreakdown(), Ref, 1e5, 4);
  HeteroScaling Scaling =
      scalingForConfig(C, M, TechnologyModel::paperDefault());

  Partition P;
  P.ClusterOf.resize(Ops);
  for (unsigned Nd = 0; Nd < Ops; ++Nd) {
    int R = Recs.RecurrenceOf[Nd];
    unsigned Rep = R < 0 ? Nd : Recs.Recurrences[R].Nodes.front();
    P.ClusterOf[Nd] = Rep * 4 / Ops;
  }
  unsigned Moved = Ops / 2;
  while (Recs.RecurrenceOf[Moved] >= 0)
    ++Moved;
  unsigned To = (P.ClusterOf[Moved] + 1) % 4;

  uint64_t Relaxations = 0;
  if (Delta) {
    PartitionScorer Sc;
    ScoreObjective Obj;
    Obj.Energy = &Energy;
    Obj.Scaling = &Scaling;
    Obj.TripCount = L.TripCount;
    Sc.bind(L, G, M, *Plan, Obj);
    Sc.reset(P.ClusterOf);
    Sc.score();
    Sc.accept();
    uint64_t Before = Sc.Relaxations;
    for (auto _ : State) {
      Sc.moveNode(Moved, To);
      benchmark::DoNotOptimize(Sc.score());
      Sc.undo();
    }
    Relaxations = (Sc.Relaxations - Before) /
                  std::max<uint64_t>(1, State.iterations());
  } else {
    PartitionContext Ctx;
    Ctx.L = &L;
    Ctx.G = &G;
    Ctx.M = &M;
    Ctx.Plan = &*Plan;
    Ctx.Recs = &Recs;
    Ctx.Energy = &Energy;
    Ctx.Scaling = &Scaling;
    Ctx.TripCount = L.TripCount;
    PartitionerOptions Opts;
    Partition Cand = P;
    Cand.ClusterOf[Moved] = To;
    for (auto _ : State)
      benchmark::DoNotOptimize(scorePartition(Ctx, Opts, Cand));
    PartitionedGraph PG = PartitionedGraph::build(L, G, M.Isa, Cand, 4,
                                                  M.BusLatency);
    if (auto T = TickGraph::build(PG, *Plan))
      Relaxations = waveRelaxations(*T);
  }
  State.counters["relaxations"] = static_cast<double>(Relaxations);
}
BENCHMARK(BM_ScorePartition)
    ->ArgNames({"ops", "delta"})
    ->ArgsProduct({{96, 384, 1536}, {0, 1}});

static void BM_ScheduleLoop(benchmark::State &State) {
  Loop L = benchLoop(static_cast<unsigned>(State.range(0)));
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  C.Clusters[0].PeriodNs = Rational(9, 10);
  for (unsigned I = 1; I < 4; ++I)
    C.Clusters[I].PeriodNs = Rational(27, 20);
  C.Icn.PeriodNs = Rational(9, 10);
  C.Cache.PeriodNs = Rational(9, 10);
  LoopScheduler S(M, C);
  for (auto _ : State) {
    LoopScheduleResult R = S.schedule(L);
    benchmark::DoNotOptimize(R.Success);
  }
}
BENCHMARK(BM_ScheduleLoop)->Arg(16)->Arg(48)->Arg(96);

static void BM_PipelinedSim(benchmark::State &State) {
  Loop L = benchLoop(32);
  MachineDescription M = MachineDescription::paperDefault();
  HeteroConfig C = HeteroConfig::reference(M);
  LoopScheduler S(M, C);
  LoopScheduleResult R = S.schedule(L);
  if (!R.Success) {
    State.SkipWithError("schedule failed");
    return;
  }
  uint64_t N = static_cast<uint64_t>(State.range(0));
  for (auto _ : State) {
    PipelinedResult PR = runPipelined(L, R.PG, R.Sched, M, N);
    benchmark::DoNotOptimize(PR.Ok);
  }
  State.SetItemsProcessed(static_cast<int64_t>(State.iterations()) *
                          static_cast<int64_t>(N) * L.size());
}
BENCHMARK(BM_PipelinedSim)->Arg(64)->Arg(256);

static void BM_FullProgramPipeline(benchmark::State &State) {
  PipelineOptions Opts;
  HeterogeneousPipeline Pipe(Opts);
  BenchmarkProgram Prog = buildSpecFPProgram("200.sixtrack");
  for (auto _ : State) {
    auto R = Pipe.runProgram(Prog);
    benchmark::DoNotOptimize(R.has_value());
  }
}
BENCHMARK(BM_FullProgramPipeline);

// Expanded BENCHMARK_MAIN: also emits the BENCH_<name>.json artifact
// (wall-clock only; google-benchmark owns the per-kernel numbers).
int main(int argc, char **argv) {
  BenchReporter Reporter("bench_micro_infra");
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv))
    return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  Reporter.write();
  return 0;
}
