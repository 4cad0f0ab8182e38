//===- measure/ScheduleCache.h - Memoized per-loop schedules -----*- C++ -*-===//
///
/// \file
/// Memoizes whole per-loop scheduling runs (the Figure 5 driver's
/// LoopScheduleResult: partition, machine plan, modulo schedule,
/// register pressure) so the measurement layer never schedules the same
/// (loop, machine plan) pair twice. A Session owns one instance and
/// threads it through every ScheduleMeasurer it backs, so schedules are
/// reused
///
///   - across the two step-4 measurements and the frontier measurement
///     of one program (the estimated ED2 argmin is always on the
///     frontier, so FrontierMeasurer re-measures it for free),
///   - across repeated runProgram calls on the same program, and
///   - across *programs* containing structurally identical loops (the
///     synthetic SPECfp suite shares many generator parameters).
///
/// Key contract (mirrors EvalCache's structural keying, one level
/// lower): the caller — ScheduleMeasurer::loopScheduleKey — hashes
/// *everything* LoopScheduler::schedule reads: the loop's structural
/// fingerprint (ops, operands, addressing, trip count; names and
/// profile weights excluded), every domain period of the HeteroConfig,
/// the frequency menu, the partitioner/scheduler options and the IT
/// budget, and — for ED2-objective runs only — the energy-model units
/// and the per-domain scaling factors (the homogeneous baseline
/// objective reads neither, so baseline schedules hit across designs
/// that differ only in voltage). Equal keys therefore hash equal
/// scheduling inputs, and since the Figure 5 driver is a pure,
/// deterministic function of those inputs, a cached result is
/// bit-identical to recomputation.
///
/// Thread-safe and *striped*: entries live in shards selected by key
/// hash, each with its own mutex and hit/miss/effort counters, so
/// high-thread suite runs stop serializing on one lock. The public
/// counters sum the per-shard atomics at report time and stay exact.
/// Concurrent duplicate computes are allowed and insertion is
/// first-writer-wins (all writers hold identical values).
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MEASURE_SCHEDULECACHE_H
#define HCVLIW_MEASURE_SCHEDULECACHE_H

#include "partition/LoopScheduler.h"

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <optional>
#include <unordered_map>

namespace hcvliw {

class ScheduleCache {
  /// Shard count: enough to make lock collisions rare at suite-level
  /// thread counts, small enough that summing counters stays trivial.
  static constexpr unsigned NumShards = 16;

  /// One entry plus where it came from: entries imported from a
  /// persistent snapshot (runtime/CachePersist) are flagged so hits
  /// they serve can be attributed to the warm tier (persistHits).
  struct Entry {
    LoopScheduleResult R;
    bool Persisted = false;
  };

  /// One stripe: its own lock, map and statistics. Cache-line aligned
  /// so neighbouring shards' counters do not false-share.
  struct alignas(64) Shard {
    mutable std::mutex Mutex;
    std::unordered_map<uint64_t, Entry> Entries;
    mutable std::atomic<uint64_t> Hits{0};
    mutable std::atomic<uint64_t> Misses{0};
    mutable std::atomic<uint64_t> PersistHits{0};
    std::atomic<uint64_t> Placements{0};
    std::atomic<uint64_t> Ejections{0};
    std::atomic<uint64_t> BudgetUsed{0};
    std::atomic<uint64_t> ITSteps{0};
    std::atomic<uint64_t> PartLevels{0};
    std::atomic<uint64_t> PartMatchedPairs{0};
    std::atomic<uint64_t> PartRefineMoves{0};
    std::atomic<uint64_t> PartFMMoves{0};
    std::atomic<uint64_t> PartScoreEvals{0};
    std::atomic<uint64_t> PartScoreRelaxations{0};
    std::atomic<uint64_t> PartCoarsenMemoHits{0};
  };

  Shard Shards[NumShards];

  /// Keys are already FNV digests; fold the high bits so shard choice
  /// is independent of the map's own bucket choice (which uses the low
  /// bits).
  static unsigned shardOf(uint64_t Key) {
    return static_cast<unsigned>((Key >> 59) ^ (Key >> 13)) % NumShards;
  }

  template <typename Fn> uint64_t sum(Fn &&Get) const {
    uint64_t Total = 0;
    for (const Shard &S : Shards)
      Total += Get(S).load(std::memory_order_relaxed);
    return Total;
  }

public:
  ScheduleCache() = default;
  ScheduleCache(const ScheduleCache &) = delete;
  ScheduleCache &operator=(const ScheduleCache &) = delete;

  /// The cached scheduling run under \p Key, or std::nullopt. Counts a
  /// hit or a miss; \p WasHit (when non-null) reports which, so
  /// concurrent users can keep exact private statistics.
  std::optional<LoopScheduleResult> find(uint64_t Key,
                                         bool *WasHit = nullptr) const;

  /// Stores \p R under \p Key (first-writer-wins) and accumulates its
  /// scheduler effort counters into the session-wide totals below.
  void store(uint64_t Key, const LoopScheduleResult &R);

  /// Inserts an entry loaded from a persistent snapshot
  /// (first-writer-wins, flagged persisted). Unlike store(), no effort
  /// counters accumulate — the work was done by the run that saved the
  /// snapshot, not this one. Returns false when the key was already
  /// present.
  bool importEntry(uint64_t Key, const LoopScheduleResult &R);

  /// Invokes \p Fn for every entry, in deterministic order (shards in
  /// index order, keys sorted within a shard). Caller must be quiescent
  /// with respect to store(); the shard lock is held across its own
  /// entries' callbacks.
  void exportEntries(
      const std::function<void(uint64_t, const LoopScheduleResult &)> &Fn)
      const;

  /// Hits served by entries importEntry() installed — the warm tier's
  /// contribution (subset of hits()).
  uint64_t persistHits() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PersistHits;
    });
  }

  uint64_t hits() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.Hits;
    });
  }
  uint64_t misses() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.Misses;
    });
  }
  size_t size() const;

  /// Scheduler effort of every *freshly computed* run stored here
  /// (cache hits add nothing: the work was not redone). Surfaced per
  /// series in the bench JSON "caches" object.
  uint64_t placements() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.Placements;
    });
  }
  uint64_t ejections() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.Ejections;
    });
  }
  uint64_t budgetUsed() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.BudgetUsed;
    });
  }
  uint64_t itSteps() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.ITSteps;
    });
  }

  /// Partitioner effort behind the misses (multilevel hierarchy work of
  /// fresh runs only), same contract as the scheduler counters above.
  uint64_t partLevels() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartLevels;
    });
  }
  uint64_t partMatchedPairs() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartMatchedPairs;
    });
  }
  uint64_t partRefineMoves() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartRefineMoves;
    });
  }
  uint64_t partFMMoves() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartFMMoves;
    });
  }
  uint64_t partScoreEvals() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartScoreEvals;
    });
  }
  uint64_t partScoreRelaxations() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartScoreRelaxations;
    });
  }
  uint64_t partCoarsenMemoHits() const {
    return sum([](const Shard &S) -> const std::atomic<uint64_t> & {
      return S.PartCoarsenMemoHits;
    });
  }
};

} // namespace hcvliw

#endif // HCVLIW_MEASURE_SCHEDULECACHE_H
