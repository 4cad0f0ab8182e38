//===- partition/PartitionScorer.cpp - Delta partition scoring -------------===//

#include "partition/PartitionScorer.h"
#include "mcd/SyncModel.h"

#include <algorithm>
#include <cassert>

using namespace hcvliw;

double hcvliw::partitionObjective(const ScoreObjective &Obj,
                                  const MachineDescription &M,
                                  const MachinePlan &Plan, unsigned MemOps,
                                  bool Feasible, double Overflow,
                                  unsigned Comms,
                                  const std::vector<double> &WInsPerCluster,
                                  const Rational &ItLengthNs,
                                  std::vector<double> &Tmp) {
  if (!Feasible) {
    // Graded penalty: any feasible partition beats every infeasible
    // one, but among infeasible partitions smaller violations win, so
    // greedy refinement can walk out of an infeasible region.
    return InfeasiblePartitionScore * (1.0 + Overflow);
  }

  double N = static_cast<double>(Obj.TripCount);
  double TexecNs = (N - 1) * Plan.ITNs.toDouble() + ItLengthNs.toDouble();

  if (Obj.ED2) {
    assert(Obj.Energy && Obj.Scaling && "ED2 objective needs energy model");
    Tmp.assign(WInsPerCluster.begin(), WInsPerCluster.end());
    for (double &W : Tmp)
      W *= N;
    double E = Obj.Energy->heteroEnergy(Tmp, Comms * N,
                                        static_cast<double>(MemOps) * N,
                                        TexecNs, *Obj.Scaling);
    return computeED2(E, TexecNs);
  }

  // Homogeneous baseline objective [2][3]: fewest communications, then
  // balance, then shorter iterations. Folded lexicographically.
  double MaxLoad = 0;
  for (unsigned C = 0; C < M.numClusters(); ++C) {
    double Cap = static_cast<double>(Plan.Clusters[C].II);
    double Load = WInsPerCluster[C] / std::max(1.0, Cap);
    MaxLoad = std::max(MaxLoad, Load);
  }
  return Comms * 1e6 + MaxLoad * 1e3 + ItLengthNs.toDouble();
}

namespace {
constexpr unsigned Unset = ~0u;
/// The estimate's register-proxy consumer spread (PseudoScheduler.cpp).
constexpr int64_t SpreadCapCycles = 4;
} // namespace

void PartitionScorer::bind(const Loop &TheLoop, const DDG &TheDDG,
                           const MachineDescription &TheMachine,
                           const MachinePlan &ThePlan,
                           const ScoreObjective &TheObj) {
  L = &TheLoop;
  G = &TheDDG;
  M = &TheMachine;
  Plan = &ThePlan;
  Obj = TheObj;
  N = G->size();
  NC = M->numClusters();
  Evals = Relaxations = 0;

  Kind.resize(N);
  Defines.resize(N);
  Energy.resize(N);
  Lat.resize(N);
  MemOps = 0;
  for (const auto &O : L->Ops)
    if (isMemoryOpcode(O.Op))
      ++MemOps;
  for (unsigned I = 0; I < N; ++I) {
    Opcode Op = L->Ops[I].Op;
    Kind[I] = static_cast<uint8_t>(fuKindOf(Op));
    Defines[I] = L->Ops[I].definesValue() ? 1 : 0;
    Energy[I] = M->Isa.energy(Op);
    Lat[I] = M->Isa.latency(Op);
  }

  // Flat in- and out-CSR (stable counting sort over the edge list).
  const auto &Edges = G->edges();
  InStart.assign(N + 1, 0);
  OutStart.assign(N + 1, 0);
  for (const DDG::Edge &E : Edges) {
    ++InStart[E.Dst + 1];
    ++OutStart[E.Src + 1];
  }
  for (unsigned I = 0; I < N; ++I) {
    InStart[I + 1] += InStart[I];
    OutStart[I + 1] += OutStart[I];
  }
  In.resize(Edges.size());
  OutDst.resize(Edges.size());
  for (const DDG::Edge &E : Edges) {
    In[InStart[E.Dst]++] = {E.Src, edgeLatency(E, Lat), E.Distance,
                            isValueCarrying(E.Kind)};
    OutDst[OutStart[E.Src]++] = E.Dst;
  }
  for (unsigned I = N; I > 0; --I) {
    InStart[I] = InStart[I - 1];
    OutStart[I] = OutStart[I - 1];
  }
  InStart[0] = OutStart[0] = 0;

  buildCondensation();

  // Per-plan tick constants.
  PlanGrid::computeInto(Grid, *Plan);
  GridValid = Grid.valid();
  if (GridValid) {
    TicksPerNs = Grid.ticksPerNs();
    ITTicks = Grid.itTicks();
    BusTicks = Grid.busPeriodTicks();
    BusLatTicks = static_cast<int64_t>(M->BusLatency) * BusTicks;
    PTicks.resize(NC);
    for (unsigned C = 0; C < NC; ++C)
      PTicks[C] = Grid.clusterPeriodTicks(C);
  }

  // One allocation per buffer at its working size instead of a
  // doubling series as the journal and worklists fill up.
  DirtyList.reserve(N);
  MoveLog.reserve(N);
  WaveCur.reserve(N);
  WaveNext.reserve(N);

  Start.assign(N, 0);
  Dirty.assign(N, 0);
  DirtyList.clear();
  MinDirtyPos = N;
  InWave.assign(N, 0);
}

/// Tarjan's SCC algorithm (iterative) over the out-CSR. Tarjan emits
/// SCCs sinks first, so the emission order reversed is a topological
/// order of the condensation; members of one SCC stay contiguous.
void PartitionScorer::buildCondensation() {
  TIndex.assign(N, Unset);
  TLow.assign(N, 0);
  TOnStack.assign(N, 0);
  TStack.clear();
  TCallNode.clear();
  TCallEdge.clear();
  TStack.reserve(N);
  TCallNode.reserve(N);
  TCallEdge.reserve(N);
  TEmit.reserve(N);
  TEnds.reserve(N);
  // Emission buffer: members in emission order, SCC ends in SccBegin.
  std::vector<unsigned> &Emit = TEmit;
  Emit.clear();
  std::vector<unsigned> &Ends = TEnds;
  Ends.clear();
  unsigned Next = 0;
  for (unsigned Root = 0; Root < N; ++Root) {
    if (TIndex[Root] != Unset)
      continue;
    auto open = [&](unsigned V) {
      TIndex[V] = TLow[V] = Next++;
      TStack.push_back(V);
      TOnStack[V] = 1;
      TCallNode.push_back(V);
      TCallEdge.push_back(OutStart[V]);
    };
    open(Root);
    while (!TCallNode.empty()) {
      unsigned V = TCallNode.back();
      unsigned &EI = TCallEdge.back();
      if (EI < OutStart[V + 1]) {
        unsigned W = OutDst[EI++];
        if (TIndex[W] == Unset)
          open(W);
        else if (TOnStack[W])
          TLow[V] = std::min(TLow[V], TIndex[W]);
        continue;
      }
      TCallNode.pop_back();
      TCallEdge.pop_back();
      if (!TCallNode.empty())
        TLow[TCallNode.back()] = std::min(TLow[TCallNode.back()], TLow[V]);
      if (TLow[V] == TIndex[V]) {
        unsigned W;
        do {
          W = TStack.back();
          TStack.pop_back();
          TOnStack[W] = 0;
          Emit.push_back(W);
        } while (W != V);
        Ends.push_back(static_cast<unsigned>(Emit.size()));
      }
    }
  }

  unsigned NumScc = static_cast<unsigned>(Ends.size());
  Order.resize(N);
  Pos.resize(N);
  SccOf.resize(N);
  SccBegin.resize(NumScc + 1);
  SccCyclic.assign(NumScc, 0);
  unsigned P = 0;
  for (unsigned K = 0; K < NumScc; ++K) {
    // K-th SCC in topological order = (NumScc - 1 - K)-th emitted.
    unsigned EIx = NumScc - 1 - K;
    unsigned B = EIx == 0 ? 0 : Ends[EIx - 1], E = Ends[EIx];
    SccBegin[K] = P;
    std::sort(Emit.begin() + B, Emit.begin() + E);
    for (unsigned I = B; I < E; ++I) {
      unsigned V = Emit[I];
      Order[P] = V;
      Pos[V] = P++;
      SccOf[V] = K;
    }
    if (E - B > 1)
      SccCyclic[K] = 1;
  }
  SccBegin[NumScc] = P;

  // Intra-SCC out-edges (only cyclic SCCs have any) with their timing.
  InternalStart.assign(N + 1, 0);
  Internal.clear();
  size_t NumInternal = 0;
  for (const DDG::Edge &E : G->edges())
    NumInternal += SccOf[E.Src] == SccOf[E.Dst] ? 1 : 0;
  Internal.reserve(NumInternal);
  for (unsigned U = 0; U < N; ++U) {
    InternalStart[U] = static_cast<unsigned>(Internal.size());
    for (unsigned EIx : G->outEdges(U)) {
      const DDG::Edge &E = G->edge(EIx);
      if (SccOf[E.Dst] != SccOf[U])
        continue;
      if (E.Dst == U)
        SccCyclic[SccOf[U]] = 1; // self-dependence
      Internal.push_back({E.Dst, edgeLatency(E, Lat), E.Distance});
    }
  }
  InternalStart[N] = static_cast<unsigned>(Internal.size());
  SccCnt.assign(static_cast<size_t>(NumScc) * NC, 0);
  SccInfeasible.assign(NumScc, 0);
  NumInfeasible = 0;
}

bool PartitionScorer::isSplit(unsigned Scc) const {
  unsigned Used = 0;
  for (unsigned C = 0; C < NC; ++C)
    Used += SccCnt[static_cast<size_t>(Scc) * NC + C] ? 1 : 0;
  return Used > 1;
}

void PartitionScorer::reset(const std::vector<unsigned> &ClusterOf) {
  assert(ClusterOf.size() == N && "partition does not cover the DDG");
  Cur.ClusterOf.assign(ClusterOf.begin(), ClusterOf.end());
  Counts.assign(static_cast<size_t>(NC) * NumFUKinds, 0);
  DefLatSum.assign(NC, 0);
  DefCnt.assign(NC, 0);
  CopiesInto.assign(NC, 0);
  Ref.assign(static_cast<size_t>(N) * NC, 0);
  CopyCnt.assign(N, 0);
  Comms = 0;
  std::fill(SccCnt.begin(), SccCnt.end(), 0u);
  NumSplit = 0;

  for (unsigned I = 0; I < N; ++I) {
    unsigned C = Cur.ClusterOf[I];
    assert(C < NC && "cluster id out of range");
    ++Counts[C * NumFUKinds + Kind[I]];
    if (Defines[I]) {
      DefLatSum[C] += Lat[I];
      ++DefCnt[C];
    }
    ++SccCnt[static_cast<size_t>(SccOf[I]) * NC + C];
    for (unsigned K = InStart[I]; K < InStart[I + 1]; ++K)
      if (In[K].Flow)
        ++Ref[static_cast<size_t>(In[K].Src) * NC + C];
  }
  for (unsigned U = 0; U < N; ++U)
    for (unsigned C = 0; C < NC; ++C)
      if (C != Cur.ClusterOf[U] && Ref[static_cast<size_t>(U) * NC + C]) {
        ++CopyCnt[U];
        ++CopiesInto[C];
        ++Comms;
      }
  for (unsigned S = 0; S + 1 < SccBegin.size(); ++S)
    if (SccCyclic[S] && isSplit(S))
      ++NumSplit;

  clearDirty();
  AsapStale = SavedStale = true;
  MoveLog.clear();
  StartLog.clear();
  SccLog.clear();
}

/// Moves \p Nd between clusters, updating every live counter (not the
/// ASAP state, which score() re-propagates from the dirty nodes).
void PartitionScorer::applyMove(unsigned Nd, unsigned From, unsigned To) {
  --Counts[From * NumFUKinds + Kind[Nd]];
  ++Counts[To * NumFUKinds + Kind[Nd]];
  if (Defines[Nd]) {
    DefLatSum[From] -= Lat[Nd];
    --DefCnt[From];
    DefLatSum[To] += Lat[Nd];
    ++DefCnt[To];
  }
  unsigned S = SccOf[Nd];
  if (SccCyclic[S]) {
    bool Before = isSplit(S);
    --SccCnt[static_cast<size_t>(S) * NC + From];
    ++SccCnt[static_cast<size_t>(S) * NC + To];
    bool After = isSplit(S);
    NumSplit = NumSplit + (After ? 1 : 0) - (Before ? 1 : 0);
  }

  // Nd's own copies: it is now copied to every consuming cluster but To.
  unsigned *R = &Ref[static_cast<size_t>(Nd) * NC];
  if (R[From]) {
    ++CopyCnt[Nd];
    ++CopiesInto[From];
    ++Comms;
  }
  if (R[To]) {
    --CopyCnt[Nd];
    --CopiesInto[To];
    --Comms;
  }
  Cur.ClusterOf[Nd] = To;

  // Producers feeding Nd: one consumer fewer in From, one more in To.
  for (unsigned K = InStart[Nd]; K < InStart[Nd + 1]; ++K) {
    if (!In[K].Flow)
      continue;
    unsigned U = In[K].Src;
    unsigned CU = Cur.ClusterOf[U];
    unsigned *RU = &Ref[static_cast<size_t>(U) * NC];
    if (--RU[From] == 0 && From != CU) {
      --CopyCnt[U];
      --CopiesInto[From];
      --Comms;
    }
    if (RU[To]++ == 0 && To != CU) {
      ++CopyCnt[U];
      ++CopiesInto[To];
      ++Comms;
    }
  }
}

void PartitionScorer::markDirty(unsigned Nd) {
  if (Dirty[Nd])
    return;
  Dirty[Nd] = 1;
  DirtyList.push_back(Nd);
  MinDirtyPos = std::min(MinDirtyPos, Pos[Nd]);
}

void PartitionScorer::clearDirty() {
  for (unsigned Nd : DirtyList)
    Dirty[Nd] = 0;
  DirtyList.clear();
  MinDirtyPos = N;
}

void PartitionScorer::moveNode(unsigned Nd, unsigned C) {
  unsigned From = Cur.ClusterOf[Nd];
  if (From == C)
    return;
  MoveLog.push_back({Nd, From});
  applyMove(Nd, From, C);
  // Nd's in-edge bounds and its consumers' bounds from Nd changed.
  markDirty(Nd);
  for (unsigned K = OutStart[Nd]; K < OutStart[Nd + 1]; ++K)
    markDirty(OutDst[K]);
}

void PartitionScorer::accept() {
  // Moves never scored leave dirty nodes behind; the next score then
  // recomputes the ASAP in full instead of tracking them across
  // transactions.
  if (!DirtyList.empty()) {
    clearDirty();
    AsapStale = true;
  }
  SavedStale = AsapStale;
  MoveLog.clear();
  StartLog.clear();
  SccLog.clear();
}

void PartitionScorer::undo() {
  for (size_t I = StartLog.size(); I-- > 0;)
    Start[StartLog[I].first] = StartLog[I].second;
  for (size_t I = SccLog.size(); I-- > 0;) {
    uint8_t &F = SccInfeasible[SccLog[I]];
    F = !F;
    NumInfeasible = F ? NumInfeasible + 1 : NumInfeasible - 1;
  }
  for (size_t I = MoveLog.size(); I-- > 0;)
    applyMove(MoveLog[I].first, Cur.ClusterOf[MoveLog[I].first],
              MoveLog[I].second);
  clearDirty();
  AsapStale = SavedStale;
  MoveLog.clear();
  StartLog.clear();
  SccLog.clear();
}

/// Start of the (implicit) copy of value \p U onto the bus: the copy's
/// only in-edge is U -> copy at distance 0 with U's latency.
int64_t PartitionScorer::copyStart(unsigned U) const {
  int64_t PU = PTicks[Cur.ClusterOf[U]];
  int64_t Ready = Start[U] + static_cast<int64_t>(Lat[U]) * PU;
  return std::max<int64_t>(
      0, alignUpToTick(crossDomainArrival(Ready, PU, BusTicks), BusTicks));
}

/// Aligned start bound edge \p E imposes on its consumer \p V (the tick
/// edgeStartBound of the partitioned graph, through the copy when the
/// edge is a cross-cluster flow edge).
int64_t PartitionScorer::inBound(const InEdge &E, unsigned V) const {
  unsigned CU = Cur.ClusterOf[E.Src], CV = Cur.ClusterOf[V];
  int64_t PV = PTicks[CV];
  int64_t Arrive;
  if (E.Flow && CU != CV)
    Arrive = crossDomainArrival(copyStart(E.Src) + BusLatTicks, BusTicks, PV);
  else
    Arrive = crossDomainArrival(
        Start[E.Src] + static_cast<int64_t>(E.LatCycles) * PTicks[CU],
        PTicks[CU], PV);
  return alignUpToTick(Arrive - static_cast<int64_t>(E.Distance) * ITTicks,
                       PV);
}

void PartitionScorer::setStart(unsigned Nd, int64_t V) {
  if (Start[Nd] == V)
    return;
  if (!SavedStale)
    StartLog.push_back({Nd, Start[Nd]});
  Start[Nd] = V;
  for (unsigned K = OutStart[Nd]; K < OutStart[Nd + 1]; ++K)
    markDirty(OutDst[K]);
}

/// Recomputes one cyclic SCC (all members in one cluster) from its
/// external inputs: a worklist fixpoint in waves over the intra-SCC
/// edges, infeasible when it still changes after |SCC| + 1 waves.
/// Intra-domain bounds are translations of aligned starts, so a change
/// that late proves a positive cycle, exactly as in the global wave
/// fixpoint.
void PartitionScorer::evalScc(unsigned Scc) {
  unsigned B = SccBegin[Scc], E = SccBegin[Scc + 1];
  unsigned Size = E - B;
  OldStart.resize(Size);
  for (unsigned I = B; I < E; ++I) {
    unsigned V = Order[I];
    OldStart[I - B] = Start[V];
    int64_t X = 0;
    for (unsigned K = InStart[V]; K < InStart[V + 1]; ++K)
      if (SccOf[In[K].Src] != Scc) {
        X = std::max(X, inBound(In[K], V));
        ++Relaxations;
      }
    Start[V] = X;
  }

  WaveCur.assign(Order.begin() + B, Order.begin() + E);
  WaveNext.clear();
  bool Feasible = false;
  for (unsigned Wave = 0; Wave <= Size; ++Wave) {
    for (unsigned U : WaveCur) {
      InWave[U] = 0;
      int64_t PU = PTicks[Cur.ClusterOf[U]];
      for (unsigned K = InternalStart[U]; K < InternalStart[U + 1]; ++K) {
        const OutEdge &OE = Internal[K];
        ++Relaxations;
        int64_t V = alignUpToTick(
            Start[U] + static_cast<int64_t>(OE.LatCycles) * PU -
                static_cast<int64_t>(OE.Distance) * ITTicks,
            PU);
        if (Start[OE.Dst] < V) {
          Start[OE.Dst] = V;
          if (!InWave[OE.Dst]) {
            InWave[OE.Dst] = 1;
            WaveNext.push_back(OE.Dst);
          }
        }
      }
    }
    if (WaveNext.empty()) {
      Feasible = true;
      break;
    }
    WaveCur.swap(WaveNext);
    WaveNext.clear();
  }
  if (!Feasible)
    for (unsigned U : WaveCur)
      InWave[U] = 0;

  if (SccInfeasible[Scc] != (Feasible ? 0 : 1)) {
    SccInfeasible[Scc] = Feasible ? 0 : 1;
    NumInfeasible = Feasible ? NumInfeasible - 1 : NumInfeasible + 1;
    if (!SavedStale)
      SccLog.push_back(Scc);
  }
  for (unsigned I = B; I < E; ++I) {
    unsigned V = Order[I];
    if (Start[V] == OldStart[I - B])
      continue;
    if (!SavedStale)
      StartLog.push_back({V, OldStart[I - B]});
    for (unsigned K = OutStart[V]; K < OutStart[V + 1]; ++K)
      if (SccOf[OutDst[K]] != Scc)
        markDirty(OutDst[K]);
  }
}

/// Re-evaluates every dirty node in condensation order. Dirty marks
/// only ever land on later SCCs, so one forward scan suffices.
void PartitionScorer::propagate() {
  if (AsapStale) {
    for (unsigned I = 0; I < N; ++I)
      markDirty(I);
    AsapStale = false;
  }
  size_t Pending = DirtyList.size();
  for (unsigned P = MinDirtyPos; P < N && Pending;) {
    unsigned V = Order[P];
    unsigned S = SccOf[V];
    if (SccCyclic[S]) {
      unsigned E = SccBegin[S + 1];
      bool Any = false;
      for (unsigned I = P; I < E; ++I)
        if (Dirty[Order[I]]) {
          Dirty[Order[I]] = 0;
          --Pending;
          Any = true;
        }
      size_t Before = DirtyList.size();
      if (Any)
        evalScc(S);
      Pending += DirtyList.size() - Before;
      P = E;
      continue;
    }
    if (Dirty[V]) {
      Dirty[V] = 0;
      --Pending;
      int64_t X = 0;
      for (unsigned K = InStart[V]; K < InStart[V + 1]; ++K)
        X = std::max(X, inBound(In[K], V));
      Relaxations += InStart[V + 1] - InStart[V];
      size_t Before = DirtyList.size();
      setStart(V, X);
      Pending += DirtyList.size() - Before;
    }
    ++P;
  }
  clearDirty();
}

double PartitionScorer::scoreByEstimate() {
  PseudoSchedule &R = PS.Result;
  estimatePseudoScheduleInto(R, *L, *G, *M, *Plan, Cur, &PS);
  Detail.Feasible = R.Feasible;
  Detail.Overflow = R.Overflow;
  Detail.Comms = R.Comms;
  Detail.ItLengthNs = R.ItLengthNs;
  return partitionObjective(Obj, *M, *Plan, MemOps, R.Feasible, R.Overflow,
                            R.Comms, R.WInsPerCluster, R.ItLengthNs, WTmp);
}

double PartitionScorer::score() {
  ++Evals;
  if (!GridValid || NumSplit) {
    // No tick grid, or a recurrence split across clusters (its cycles
    // then cross clock domains): the full estimate decides.
    clearDirty();
    AsapStale = true;
    return scoreByEstimate();
  }
  propagate();

  const MachinePlan &P = *Plan;
  bool RecOk = NumInfeasible == 0;
  WIns.assign(NC, 0.0);
  int64_t End = 0;
  for (unsigned I = 0; I < N; ++I) {
    unsigned C = Cur.ClusterOf[I];
    WIns[C] += Energy[I];
    if (!RecOk)
      continue;
    End = std::max(End, Start[I] + static_cast<int64_t>(Lat[I]) * PTicks[C]);
    if (CopyCnt[I])
      End = std::max(End, copyStart(I) + BusLatTicks);
  }

  // Graded overflow, in the estimate's flag order.
  double Overflow = 0;
  bool Flagged = false;
  auto flag = [&](double Amount) {
    Flagged = true;
    Overflow += Amount;
  };
  for (unsigned C = 0; C < NC; ++C)
    for (unsigned K = 0; K < NumFUKinds; ++K) {
      FUKind FK = static_cast<FUKind>(K);
      int64_t Cnt = Counts[C * NumFUKinds + K];
      if (FK == FUKind::Bus || Cnt == 0)
        continue;
      int64_t Slots =
          P.Clusters[C].II * static_cast<int64_t>(M->Clusters[C].fuCount(FK));
      if (Slots <= 0) {
        flag(static_cast<double>(Cnt));
        continue;
      }
      if (Cnt > Slots)
        flag((static_cast<double>(Cnt) - static_cast<double>(Slots)) /
             static_cast<double>(Slots));
    }
  int64_t BusSlots = P.Bus.II * static_cast<int64_t>(M->Buses);
  if (static_cast<int64_t>(Comms) > BusSlots)
    flag((static_cast<double>(Comms) - static_cast<double>(BusSlots)) /
         static_cast<double>(BusSlots));
  if (!RecOk)
    flag(1e3);
  for (unsigned C = 0; C < NC; ++C) {
    int64_t Spread = std::min<int64_t>(P.Clusters[C].II / 2, SpreadCapCycles);
    int64_t Proxy =
        DefLatSum[C] + DefCnt[C] * Spread + CopiesInto[C] * (Spread + 1);
    int64_t Budget =
        static_cast<int64_t>(M->Clusters[C].Registers) * P.Clusters[C].II;
    if (Budget > 0 && Proxy > Budget)
      flag((static_cast<double>(Proxy) - static_cast<double>(Budget)) /
           static_cast<double>(Budget));
  }

  Detail.Feasible = !Flagged;
  Detail.Overflow = Overflow;
  Detail.Comms = Comms;
  Detail.ItLengthNs = RecOk ? Rational(End, TicksPerNs) : Rational(0);
  return partitionObjective(Obj, *M, P, MemOps, Detail.Feasible, Overflow,
                            Comms, WIns, Detail.ItLengthNs, WTmp);
}
