//===- partition/PartitionScorer.h - Delta partition scoring ----*- C++ -*-===//
///
/// \file
/// The refinement hot path of Section 4.1.2: scores candidate cluster
/// assignments by *delta* on a live state of the DDG, instead of
/// rebuilding the partitioned graph, its tick lowering and a from-zero
/// ASAP fixpoint for every candidate (estimatePseudoScheduleInto, which
/// stays as the no-tick-grid path and as the test oracle). Every score
/// is bit-identical to scorePartition on the same assignment.
///
/// Bound once per partitioning run (loop + plan), the scorer holds
///
///   - per node: FU kind, energy, latency, defines-value flag; the
///     memory-op count; the DDG as flat in/out CSR with edge latencies;
///   - the SCC condensation of the DDG in topological order;
///   - per-(cluster, kind) op counts, per-(value, cluster) consumer
///     refcounts (which give the copy count, Comms) and the integer
///     register-lifetime proxy terms — all updated per moved node;
///   - ASAP start ticks of every node, with copies left *implicit*: a
///     copy's start is a pure function of its producer's start, so a
///     cross-cluster flow edge is bounded through producer -> bus tick
///     -> BusLatency bus cycles -> consumer, and the copies' share of
///     the iteration length is max(copy start + bus latency) over
///     values with a remote consumer.
///
/// A move re-propagates ASAP only from the moved nodes, in condensation
/// order: a node is re-evaluated when it moved or an in-neighbor's
/// start changed, and a cyclic SCC is recomputed whole from its
/// external inputs. That is exact because, while every SCC sits in one
/// cluster (the partitioner never splits a recurrence), every PG cycle
/// lies in one clock domain where edge bounds are translations, so the
/// wave fixpoint is feasible iff no SCC has a positive cycle and then
/// converges to the unique least fixpoint this order computes. An
/// assignment that splits an SCC, or a plan without a tick grid, is
/// scored by the full estimate instead (same result, rebuild cost).
///
/// WInsPerCluster is a double sum over non-dyadic energies, so it is
/// recomputed in node order on every score (a subtract/add delta would
/// change its bits); the graded overflow terms are re-derived from the
/// integer counters in the estimate's flag order for the same reason.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_PARTITION_PARTITIONSCORER_H
#define HCVLIW_PARTITION_PARTITIONSCORER_H

#include "mcd/DomainPlanner.h"
#include "mcd/PlanGrid.h"
#include "power/EnergyModel.h"
#include "sched/Partition.h"
#include "sched/PseudoScheduler.h"

#include <cstdint>
#include <vector>

namespace hcvliw {

/// Every infeasible partition scores at least this much; feasible
/// scores are always below it.
inline constexpr double InfeasiblePartitionScore = 1e24;

/// The inputs of the partition objective besides the pseudo-schedule.
struct ScoreObjective {
  /// Estimated ED2 (heterogeneous machines) or the homogeneous baseline
  /// objective of [2][3].
  bool ED2 = true;
  const EnergyModel *Energy = nullptr;    ///< required for ED2
  const HeteroScaling *Scaling = nullptr; ///< required for ED2
  uint64_t TripCount = 1;
};

/// The partition objective from the pseudo-schedule fields it reads:
/// lower is better; infeasible estimates score InfeasiblePartitionScore
/// * (1 + Overflow). Shared by scorePartition and PartitionScorer, so
/// both compute the identical double. \p Tmp is a reusable buffer.
double partitionObjective(const ScoreObjective &Obj,
                          const MachineDescription &M,
                          const MachinePlan &Plan, unsigned MemOps,
                          bool Feasible, double Overflow, unsigned Comms,
                          const std::vector<double> &WInsPerCluster,
                          const Rational &ItLengthNs,
                          std::vector<double> &Tmp);

/// The pseudo-schedule summary behind the last PartitionScorer::score.
struct ScoreDetail {
  bool Feasible = false;
  double Overflow = 0;
  unsigned Comms = 0;
  Rational ItLengthNs;
};

class PartitionScorer {
public:
  /// Binds the scorer to one (loop, DDG, machine, plan, objective); the
  /// referenced objects must outlive every later call. Reuses storage.
  void bind(const Loop &L, const DDG &G, const MachineDescription &M,
            const MachinePlan &Plan, const ScoreObjective &Obj);

  /// Loads the assignment \p ClusterOf (one cluster per DDG node; full
  /// recompute of the live counters, and the next score() runs a full
  /// ASAP) and starts a fresh transaction.
  void reset(const std::vector<unsigned> &ClusterOf);

  /// Moves node \p N to cluster \p C within the open transaction.
  void moveNode(unsigned N, unsigned C);

  /// Exact score of the current assignment: bit-identical to
  /// scorePartition on it.
  double score();

  /// Commits the open transaction (the moves since the last reset,
  /// accept or undo).
  void accept();

  /// Rolls the open transaction back: the assignment, the counters and
  /// the ASAP state return to the last reset/accept.
  void undo();

  /// The current assignment (moves of the open transaction included).
  const Partition &partition() const { return Cur; }
  const ScoreDetail &detail() const { return Detail; }

  /// Work counters since bind(): score() calls and edge relaxations
  /// done by the live ASAP (observation only).
  uint64_t Evals = 0;
  uint64_t Relaxations = 0;

private:
  const Loop *L = nullptr;
  const DDG *G = nullptr;
  const MachineDescription *M = nullptr;
  const MachinePlan *Plan = nullptr;
  ScoreObjective Obj;
  unsigned N = 0, NC = 0, MemOps = 0;

  // Per-loop constants.
  std::vector<uint8_t> Kind;     ///< FUKind per node
  std::vector<uint8_t> Defines;  ///< defines a register value
  std::vector<double> Energy;    ///< Isa energy per node
  std::vector<unsigned> Lat;     ///< Isa latency per node
  std::vector<unsigned> InStart; ///< in-CSR over DDG edges
  struct InEdge {
    unsigned Src;
    unsigned LatCycles; ///< edgeLatency
    unsigned Distance;
    bool Flow;
  };
  std::vector<InEdge> In;
  std::vector<unsigned> OutStart, OutDst; ///< out-CSR (dirty marking)
  struct OutEdge {
    unsigned Dst;
    unsigned LatCycles;
    unsigned Distance;
  };
  std::vector<OutEdge> Internal;          ///< intra-SCC out-edges
  std::vector<unsigned> InternalStart;    ///< per node
  std::vector<unsigned> Order, Pos, SccOf; ///< condensation order
  std::vector<unsigned> SccBegin;          ///< [scc + 1] into Order
  std::vector<uint8_t> SccCyclic;

  // Per-plan constants (valid only when GridValid).
  PlanGrid Grid;
  bool GridValid = false;
  int64_t TicksPerNs = 0, ITTicks = 0, BusTicks = 0, BusLatTicks = 0;
  std::vector<int64_t> PTicks; ///< per cluster

  // Live state.
  Partition Cur;
  std::vector<int64_t> Counts;     ///< flat [cluster][kind]
  std::vector<unsigned> Ref;       ///< flat [value][cluster] flow consumers
  std::vector<unsigned> CopyCnt;   ///< per value: clusters it is copied to
  std::vector<int64_t> DefLatSum;  ///< per cluster
  std::vector<int64_t> DefCnt;     ///< per cluster
  std::vector<int64_t> CopiesInto; ///< per cluster
  unsigned Comms = 0;
  std::vector<unsigned> SccCnt;    ///< flat [scc][cluster] member counts
  unsigned NumSplit = 0;           ///< cyclic SCCs spanning >1 cluster
  std::vector<int64_t> Start;      ///< ASAP ticks
  std::vector<uint8_t> SccInfeasible;
  unsigned NumInfeasible = 0;
  bool AsapStale = true;           ///< Start must be fully recomputed
  std::vector<uint8_t> Dirty;      ///< per node
  std::vector<unsigned> DirtyList; ///< nodes with Dirty set
  unsigned MinDirtyPos = 0;

  // Transaction journal. A transaction that began with a stale ASAP
  // state journals no starts: undoing it makes the state stale again.
  std::vector<std::pair<unsigned, unsigned>> MoveLog; ///< (node, old)
  std::vector<std::pair<unsigned, int64_t>> StartLog;
  std::vector<unsigned> SccLog; ///< SCCs whose infeasible flag flipped
  bool SavedStale = true;       ///< AsapStale when the transaction began

  // Buffers.
  std::vector<double> WIns, WTmp;
  std::vector<int64_t> OldStart;
  std::vector<unsigned> WaveCur, WaveNext;
  std::vector<uint8_t> InWave;
  std::vector<unsigned> TIndex, TLow, TStack, TCallNode, TCallEdge, TEmit,
      TEnds;
  std::vector<uint8_t> TOnStack;
  PseudoScratch PS;
  ScoreDetail Detail;

  void buildCondensation();
  void applyMove(unsigned Nd, unsigned From, unsigned To);
  bool isSplit(unsigned Scc) const;
  void markDirty(unsigned Nd);
  void clearDirty();
  void propagate();
  int64_t copyStart(unsigned U) const;
  int64_t inBound(const InEdge &E, unsigned V) const;
  void setStart(unsigned Nd, int64_t V);
  void evalScc(unsigned Scc);
  double scoreByEstimate();
};

} // namespace hcvliw

#endif // HCVLIW_PARTITION_PARTITIONSCORER_H
