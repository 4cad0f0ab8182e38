//===- runtime/ResultSerde.cpp - Result-component serializers ---------------===//

#include "runtime/ResultSerde.h"

#include <algorithm>

using namespace hcvliw;
using namespace hcvliw::serde;

//===----------------------------------------------------------------------===//
// Profiling / selection components (suite journal records)
//===----------------------------------------------------------------------===//

void serde::putActivity(Sink &S, const ActivityCounts &A) {
  S.d(A.WeightedIns);
  S.d(A.Comms);
  S.d(A.MemAccesses);
}
ActivityCounts serde::getActivity(Source &S) {
  ActivityCounts A;
  A.WeightedIns = S.d();
  A.Comms = S.d();
  A.MemAccesses = S.d();
  return A;
}

void serde::putLoopProfile(Sink &S, const LoopProfile &L) {
  S.str(L.Name);
  S.u64(L.TripCount);
  S.d(L.Weight);
  S.d(L.Invocations);
  S.i64(L.RecMII);
  S.i64(L.ResMII);
  S.i64(L.IIHom);
  S.rat(L.ItLengthRefNs);
  S.rat(L.TexecRefNs);
  putActivity(S, L.PerIter);
  S.i64(L.SumLifetimesRef);
  S.u64(L.OpCounts.size());
  for (unsigned C : L.OpCounts)
    S.u64(C);
  S.u64(L.NumOps);
  S.u64(L.StructuralFP);
  S.u64(L.Components.size());
  for (const ComponentProfile &C : L.Components) {
    S.i64(C.RecMII);
    S.u64(C.FUCounts.size());
    for (unsigned F : C.FUCounts)
      S.u64(F);
  }
}
LoopProfile serde::getLoopProfile(Source &S) {
  LoopProfile L;
  L.Name = S.str();
  L.TripCount = S.u64();
  L.Weight = S.d();
  L.Invocations = S.d();
  L.RecMII = S.i64();
  L.ResMII = S.i64();
  L.IIHom = S.i64();
  L.ItLengthRefNs = S.rat();
  L.TexecRefNs = S.rat();
  L.PerIter = getActivity(S);
  L.SumLifetimesRef = S.i64();
  L.OpCounts.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (unsigned &C : L.OpCounts)
    C = static_cast<unsigned>(S.u64());
  L.NumOps = static_cast<unsigned>(S.u64());
  L.StructuralFP = S.u64();
  L.Components.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (ComponentProfile &C : L.Components) {
    C.RecMII = S.i64();
    C.FUCounts.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
    for (unsigned &F : C.FUCounts)
      F = static_cast<unsigned>(S.u64());
  }
  return L;
}

void serde::putProfile(Sink &S, const ProgramProfile &P) {
  S.str(P.Name);
  S.d(P.TexecRefNs);
  putActivity(S, P.Totals);
  S.u64(P.Loops.size());
  for (const LoopProfile &L : P.Loops)
    putLoopProfile(S, L);
}
ProgramProfile serde::getProfile(Source &S) {
  ProgramProfile P;
  P.Name = S.str();
  P.TexecRefNs = S.d();
  P.Totals = getActivity(S);
  P.Loops.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (LoopProfile &L : P.Loops)
    L = getLoopProfile(S);
  return P;
}

void serde::putOpPoint(Sink &S, const DomainOperatingPoint &P) {
  S.rat(P.PeriodNs);
  S.d(P.Vdd);
  S.d(P.Vth);
}
DomainOperatingPoint serde::getOpPoint(Source &S) {
  DomainOperatingPoint P;
  P.PeriodNs = S.rat();
  P.Vdd = S.d();
  P.Vth = S.d();
  return P;
}

void serde::putDesign(Sink &S, const SelectedDesign &D) {
  S.b(D.Valid);
  S.d(D.EstTexecNs);
  S.d(D.EstEnergy);
  S.d(D.EstED2);
  S.u64(D.Config.Clusters.size());
  for (const DomainOperatingPoint &P : D.Config.Clusters)
    putOpPoint(S, P);
  putOpPoint(S, D.Config.Icn);
  putOpPoint(S, D.Config.Cache);
  S.u64(D.Scaling.Clusters.size());
  for (const DomainScaling &Sc : D.Scaling.Clusters) {
    S.d(Sc.Delta);
    S.d(Sc.Sigma);
  }
  S.d(D.Scaling.Icn.Delta);
  S.d(D.Scaling.Icn.Sigma);
  S.d(D.Scaling.Cache.Delta);
  S.d(D.Scaling.Cache.Sigma);
}
SelectedDesign serde::getDesign(Source &S) {
  SelectedDesign D;
  D.Valid = S.b();
  D.EstTexecNs = S.d();
  D.EstEnergy = S.d();
  D.EstED2 = S.d();
  D.Config.Clusters.resize(S.bad() ? 0
                                   : std::min<uint64_t>(S.u64(), 1u << 20));
  for (DomainOperatingPoint &P : D.Config.Clusters)
    P = getOpPoint(S);
  D.Config.Icn = getOpPoint(S);
  D.Config.Cache = getOpPoint(S);
  D.Scaling.Clusters.resize(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 20));
  for (DomainScaling &Sc : D.Scaling.Clusters) {
    Sc.Delta = S.d();
    Sc.Sigma = S.d();
  }
  D.Scaling.Icn.Delta = S.d();
  D.Scaling.Icn.Sigma = S.d();
  D.Scaling.Cache.Delta = S.d();
  D.Scaling.Cache.Sigma = S.d();
  return D;
}

void serde::putConfigRun(Sink &S, const ConfigRunResult &R) {
  S.b(R.Ok);
  S.d(R.TexecNs);
  S.d(R.Energy);
  S.d(R.ED2);
  S.u64(R.Failures);
  S.u64(R.FailureDetails.size());
  for (const LoopScheduleFailure &F : R.FailureDetails) {
    S.str(F.Loop);
    S.str(F.Detail);
  }
  S.u64(R.Loops.size());
  for (const LoopRunStat &L : R.Loops) {
    S.str(L.Name);
    S.d(L.ITNs);
    S.d(L.TexecNs);
    S.u64(L.Comms);
    S.b(L.Degraded);
  }
  S.u64(R.ScheduleHits);
  S.u64(R.ScheduleMisses);
  S.u64(R.SchedPlacements);
  S.u64(R.SchedEjections);
  S.u64(R.SchedBudgetUsed);
  S.u64(R.SchedITSteps);
  S.u64(R.DegradedLoops);
  S.u64(R.ColdReplays);
  S.u64(R.FlatPartitions);
  S.u64(R.FallbackRational);
}
ConfigRunResult serde::getConfigRun(Source &S) {
  ConfigRunResult R;
  R.Ok = S.b();
  R.TexecNs = S.d();
  R.Energy = S.d();
  R.ED2 = S.d();
  R.Failures = static_cast<unsigned>(S.u64());
  R.FailureDetails.resize(S.bad() ? 0
                                  : std::min<uint64_t>(S.u64(), 1u << 20));
  for (LoopScheduleFailure &F : R.FailureDetails) {
    F.Loop = S.str();
    F.Detail = S.str();
  }
  R.Loops.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (LoopRunStat &L : R.Loops) {
    L.Name = S.str();
    L.ITNs = S.d();
    L.TexecNs = S.d();
    L.Comms = static_cast<unsigned>(S.u64());
    L.Degraded = S.b();
  }
  R.ScheduleHits = S.u64();
  R.ScheduleMisses = S.u64();
  R.SchedPlacements = S.u64();
  R.SchedEjections = S.u64();
  R.SchedBudgetUsed = S.u64();
  R.SchedITSteps = S.u64();
  R.DegradedLoops = static_cast<unsigned>(S.u64());
  R.ColdReplays = static_cast<unsigned>(S.u64());
  R.FlatPartitions = static_cast<unsigned>(S.u64());
  R.FallbackRational = static_cast<unsigned>(S.u64());
  return R;
}

void serde::putResult(Sink &S, const ProgramRunResult &R) {
  S.str(R.Name);
  S.d(R.ED2Ratio);
  putProfile(S, R.Profile);
  putDesign(S, R.HetDesign);
  putDesign(S, R.HomDesign);
  putConfigRun(S, R.HetMeasured);
  putConfigRun(S, R.HomMeasured);
}
ProgramRunResult serde::getResult(Source &S) {
  ProgramRunResult R;
  R.Name = S.str();
  R.ED2Ratio = S.d();
  R.Profile = getProfile(S);
  R.HetDesign = getDesign(S);
  R.HomDesign = getDesign(S);
  R.HetMeasured = getConfigRun(S);
  R.HomMeasured = getConfigRun(S);
  return R;
}

void serde::putFailure(Sink &S, PipelineStage Stage, const std::string &Reason,
                       double StageWallMs) {
  S.u64(static_cast<uint64_t>(Stage));
  S.str(Reason);
  S.d(StageWallMs);
}
JournaledFailure serde::getFailure(Source &S) {
  JournaledFailure F;
  uint64_t Stage = S.u64();
  if (Stage > static_cast<uint64_t>(PipelineStage::Measurement))
    Stage = 0;
  F.Stage = static_cast<PipelineStage>(Stage);
  F.Reason = S.str();
  F.StageWallMs = S.d();
  return F;
}

//===----------------------------------------------------------------------===//
// Scheduling artifacts (persistent schedule-cache records)
//===----------------------------------------------------------------------===//

namespace {

void putDomainPlan(Sink &S, const DomainPlan &D) {
  S.i64(D.II);
  S.rat(D.PeriodNs);
}
DomainPlan getDomainPlan(Source &S) {
  DomainPlan D;
  D.II = S.i64();
  D.PeriodNs = S.rat();
  return D;
}

/// Reads a u64 and rejects values above \p Max (enum range checks: the
/// CRC already guards against corruption, this guards against skew).
uint64_t getBounded(Source &S, uint64_t Max) {
  uint64_t V = S.u64();
  if (V > Max) {
    S.markBad();
    return 0;
  }
  return V;
}

} // namespace

void serde::putMachinePlan(Sink &S, const MachinePlan &P) {
  S.rat(P.ITNs);
  S.u64(P.Clusters.size());
  for (const DomainPlan &D : P.Clusters)
    putDomainPlan(S, D);
  putDomainPlan(S, P.Bus);
  putDomainPlan(S, P.Cache);
}
MachinePlan serde::getMachinePlan(Source &S) {
  MachinePlan P;
  P.ITNs = S.rat();
  P.Clusters.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (DomainPlan &D : P.Clusters)
    D = getDomainPlan(S);
  P.Bus = getDomainPlan(S);
  P.Cache = getDomainPlan(S);
  return P;
}

void serde::putSchedule(Sink &S, const Schedule &Sch) {
  putMachinePlan(S, Sch.Plan);
  S.u64(Sch.Nodes.size());
  for (const ScheduledNode &N : Sch.Nodes) {
    S.b(N.Placed);
    S.i64(N.Slot);
    S.u64(N.Unit);
  }
}
Schedule serde::getSchedule(Source &S) {
  Schedule Sch;
  Sch.Plan = getMachinePlan(S);
  Sch.Nodes.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 22));
  for (ScheduledNode &N : Sch.Nodes) {
    N.Placed = S.b();
    N.Slot = S.i64();
    N.Unit = static_cast<unsigned>(S.u64());
  }
  return Sch;
}

void serde::putPartitionedGraph(Sink &S, const PartitionedGraph &PG) {
  S.u64(PG.numClusters());
  S.u64(PG.size());
  for (unsigned I = 0; I < PG.size(); ++I) {
    const PGNode &N = PG.node(I);
    S.u64(N.Domain);
    S.u64(static_cast<uint64_t>(N.Op));
    S.u64(N.LatencyCycles);
    S.u64(static_cast<uint64_t>(N.Kind));
    S.i64(N.OrigOp);
    S.i64(N.CopiedValue);
  }
  S.u64(PG.edges().size());
  for (const PGEdge &E : PG.edges()) {
    S.u64(E.Src);
    S.u64(E.Dst);
    S.u64(E.Distance);
    S.u64(E.LatencyCycles);
    S.b(E.CarriesValue);
  }
}
PartitionedGraph serde::getPartitionedGraph(Source &S) {
  unsigned NumClusters = static_cast<unsigned>(S.u64());
  std::vector<PGNode> Nodes(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 22));
  for (PGNode &N : Nodes) {
    N.Domain = static_cast<unsigned>(S.u64());
    N.Op = static_cast<Opcode>(
        getBounded(S, static_cast<uint64_t>(Opcode::Copy)));
    N.LatencyCycles = static_cast<uint16_t>(getBounded(S, UINT16_MAX));
    N.Kind =
        static_cast<FUKind>(getBounded(S, static_cast<uint64_t>(FUKind::Bus)));
    N.OrigOp = static_cast<int>(S.i64());
    N.CopiedValue = static_cast<int>(S.i64());
  }
  std::vector<PGEdge> Edges(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 22));
  const uint64_t MaxNode = Nodes.empty() ? 0 : Nodes.size() - 1;
  for (PGEdge &E : Edges) {
    E.Src = static_cast<unsigned>(getBounded(S, MaxNode));
    E.Dst = static_cast<unsigned>(getBounded(S, MaxNode));
    E.Distance = static_cast<unsigned>(S.u64());
    E.LatencyCycles = static_cast<unsigned>(getBounded(S, (1u << 31) - 1));
    E.CarriesValue = S.b();
  }
  if (S.bad())
    return PartitionedGraph();
  return PartitionedGraph::fromRaw(NumClusters, std::move(Nodes),
                                   std::move(Edges));
}

void serde::putLoopScheduleResult(Sink &S, const LoopScheduleResult &R) {
  S.b(R.Success);
  S.str(R.Failure);
  putSchedule(S, R.Sched);
  putPartitionedGraph(S, R.PG);
  S.u64(R.Assignment.ClusterOf.size());
  for (unsigned C : R.Assignment.ClusterOf)
    S.u64(C);
  S.u64(R.Pressure.MaxLive.size());
  for (int64_t V : R.Pressure.MaxLive)
    S.i64(V);
  S.u64(R.Pressure.SumLifetimes.size());
  for (int64_t V : R.Pressure.SumLifetimes)
    S.i64(V);
  S.rat(R.MITNs);
  S.u64(R.ITSteps);
  S.u64(R.Placements);
  S.u64(R.Ejections);
  S.u64(R.BudgetUsed);
  S.u64(R.FallbackRational);
  S.u64(R.FailureLog.size());
  for (const ITFailure &F : R.FailureLog) {
    S.u64(F.Step);
    S.rat(F.ITNs);
    S.str(F.Reason);
    S.u64(F.Count);
  }
  S.u64(R.PrunedITSteps);
  S.u64(R.PartStats.Runs);
  S.u64(R.PartStats.CoarsenBuilds);
  S.u64(R.PartStats.CoarsenMemoHits);
  S.u64(R.PartStats.Levels);
  S.u64(R.PartStats.MatchedPairs);
  S.u64(R.PartStats.RefinePasses);
  S.u64(R.PartStats.RefineMoves);
  S.u64(R.PartStats.FMPasses);
  S.u64(R.PartStats.FMMoves);
  S.u64(R.PartStats.ScoreEvals);
  S.u64(R.PartStats.ScoreRelaxations);
  S.u64(R.PartStats.FlatFallbacks);
  S.d(R.PartStats.InitialScore);
  S.d(R.PartStats.FinalScore);
  S.i64(R.RecMII);
  S.i64(R.ResMII);
}
LoopScheduleResult serde::getLoopScheduleResult(Source &S) {
  LoopScheduleResult R;
  R.Success = S.b();
  R.Failure = S.str();
  R.Sched = getSchedule(S);
  R.PG = getPartitionedGraph(S);
  R.Assignment.ClusterOf.resize(S.bad() ? 0
                                        : std::min<uint64_t>(S.u64(),
                                                             1u << 22));
  for (unsigned &C : R.Assignment.ClusterOf)
    C = static_cast<unsigned>(S.u64());
  R.Pressure.MaxLive.resize(S.bad() ? 0
                                    : std::min<uint64_t>(S.u64(), 1u << 20));
  for (int64_t &V : R.Pressure.MaxLive)
    V = S.i64();
  R.Pressure.SumLifetimes.resize(
      S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (int64_t &V : R.Pressure.SumLifetimes)
    V = S.i64();
  R.MITNs = S.rat();
  R.ITSteps = static_cast<unsigned>(S.u64());
  R.Placements = S.u64();
  R.Ejections = S.u64();
  R.BudgetUsed = S.u64();
  R.FallbackRational = static_cast<unsigned>(S.u64());
  R.FailureLog.resize(S.bad() ? 0 : std::min<uint64_t>(S.u64(), 1u << 20));
  for (ITFailure &F : R.FailureLog) {
    F.Step = static_cast<unsigned>(S.u64());
    F.ITNs = S.rat();
    F.Reason = S.str();
    F.Count = static_cast<unsigned>(S.u64());
  }
  R.PrunedITSteps = static_cast<unsigned>(S.u64());
  R.PartStats.Runs = static_cast<uint32_t>(S.u64());
  R.PartStats.CoarsenBuilds = static_cast<uint32_t>(S.u64());
  R.PartStats.CoarsenMemoHits = static_cast<uint32_t>(S.u64());
  R.PartStats.Levels = static_cast<uint32_t>(S.u64());
  R.PartStats.MatchedPairs = static_cast<uint32_t>(S.u64());
  R.PartStats.RefinePasses = static_cast<uint32_t>(S.u64());
  R.PartStats.RefineMoves = static_cast<uint32_t>(S.u64());
  R.PartStats.FMPasses = static_cast<uint32_t>(S.u64());
  R.PartStats.FMMoves = static_cast<uint32_t>(S.u64());
  R.PartStats.ScoreEvals = static_cast<uint32_t>(S.u64());
  R.PartStats.ScoreRelaxations = S.u64();
  R.PartStats.FlatFallbacks = static_cast<uint32_t>(S.u64());
  R.PartStats.InitialScore = S.d();
  R.PartStats.FinalScore = S.d();
  R.RecMII = S.i64();
  R.ResMII = S.i64();
  return R;
}
