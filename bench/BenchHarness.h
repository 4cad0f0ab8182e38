//===- bench/BenchHarness.h - Shared harness for the bench binaries -*- C++ -*-===//
///
/// \file
/// Presentation and reporting helpers shared by the per-figure bench
/// binaries, on top of the runtime Session/SuiteRunner API:
///
///   - figure-style table rows over a SuiteResult (benchmarks as
///     columns plus the mean),
///   - loud, structured failure reporting (the seed's bench-side suite
///     loop silently dropped failed programs),
///   - BenchReporter: every bench binary emits a machine-readable
///     BENCH_<name>.json (wall-clock, mean ED2 ratio, per-series
///     means, extra metrics, the session cache statistics —
///     EvalCache timing/selection and ScheduleCache hit/miss counters
///     per series — plus the build provenance stamp and the session
///     metrics-registry snapshot per series) so the performance
///     trajectory of the repository is diffable and attributable run
///     over run. The output directory is $BENCH_JSON_DIR when set,
///     else the working directory.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_BENCH_BENCHHARNESS_H
#define HCVLIW_BENCH_BENCHHARNESS_H

#include "obs/AllocHook.h"
#include "obs/BuildInfo.h"
#include "runtime/SuiteRunner.h"
#include "support/Stats.h"
#include "support/StrUtil.h"
#include "support/TablePrinter.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <utility>
#include <vector>

//===----------------------------------------------------------------------===//
// Allocation counter. Every bench binary is a single translation unit
// including this header once, so the (deliberately non-inline)
// replacement operator new/delete definitions the macro below expands
// are well-formed per binary and count *every* heap allocation the
// bench performs — the metric behind "allocations per schedule" in the
// BENCH json (and the top-level "alloc_count" BenchReporter emits for
// every bench). The macro also installs the counter into the obs
// layer, so span traces recorded by benches carry per-span alloc
// deltas.
//===----------------------------------------------------------------------===//

namespace hcvliw {
inline std::atomic<uint64_t> BenchAllocCounter{0};
/// Allocations since process start (relaxed; exact in single-threaded
/// measurement sections, monotone everywhere).
inline uint64_t benchAllocCount() {
  return BenchAllocCounter.load(std::memory_order_relaxed);
}
} // namespace hcvliw

HCVLIW_INSTRUMENT_ALLOCS(hcvliw::BenchAllocCounter)

namespace hcvliw {

/// Prints one figure-style series: benchmarks as columns plus the mean.
inline void printSeries(TablePrinter &T, const std::string &Label,
                        const SuiteResult &R) {
  std::vector<std::string> Row = {Label};
  for (double V : R.ED2Ratios)
    Row.push_back(formatString("%.3f", V));
  Row.push_back(formatString("%.3f", R.meanRatio()));
  T.addRow(std::move(Row));
}

inline std::vector<std::string> headerRow(const SuiteResult &R,
                                          const std::string &First) {
  std::vector<std::string> H = {First};
  for (const auto &N : R.Names)
    H.push_back(shortSpecName(N));
  H.push_back("mean");
  return H;
}

/// Prints every structured failure record (with the failing stage's
/// wall time, so timeout-shaped failures read differently from logic
/// failures); returns true when any.
inline bool reportFailures(const SuiteResult &R) {
  for (const SuiteFailure &F : R.Failures)
    std::fprintf(stderr, "error: %s failed at %s after %.1f ms: %s\n",
                 F.Program.c_str(), pipelineStageName(F.Stage),
                 F.StageWallMs, F.Reason.c_str());
  return !R.Failures.empty();
}

/// Validated --threads value (support/StrUtil's parseThreadCount);
/// exits with an error on bad input.
inline unsigned parseThreadsArg(const char *Value) {
  unsigned N = 0;
  if (!parseThreadCount(Value, N)) {
    std::fprintf(stderr,
                 "error: --threads expects an integer in [0, 1024], "
                 "got '%s'\n",
                 Value);
    std::exit(1);
  }
  return N;
}

/// Collects one bench binary's results and writes BENCH_<name>.json.
class BenchReporter {
  /// One cache's counters at the end of a series (a Session's EvalCache
  /// and ScheduleCache snapshot).
  struct CacheStats {
    std::string Label;
    uint64_t EvalHits = 0, EvalMisses = 0;
    uint64_t SelectionHits = 0, SelectionMisses = 0;
    uint64_t ScheduleHits = 0, ScheduleMisses = 0;
    /// Scheduler effort behind the misses (fresh Figure 5 runs only):
    /// how future perf PRs attribute wins.
    uint64_t SchedPlacements = 0, SchedEjections = 0;
    uint64_t SchedBudgetUsed = 0, SchedITSteps = 0;
    /// Partitioner effort behind the misses (multilevel hierarchy).
    uint64_t PartLevels = 0, PartMatchedPairs = 0;
    uint64_t PartRefineMoves = 0, PartFMMoves = 0;
    uint64_t PartCoarsenMemoHits = 0;
    uint64_t PartScoreEvals = 0, PartScoreRelaxations = 0;
    /// Robustness ledger (PR 9): silent tick-grid → Rational replays,
    /// loops finished on a degradation rung, and injected faults.
    /// Baselines assert the last two are zero in clean CI runs.
    uint64_t FallbackRational = 0;
    uint64_t DegradedCount = 0;
    uint64_t FaultInjected = 0;
    /// Persistent-tier ledger (PR 10): hits served by snapshot-imported
    /// entries, entries imported, and frames quarantined during load.
    /// Clean CI runs assert cache_load_corrupt is zero.
    uint64_t CachePersistHits = 0;
    uint64_t CachePersistLoaded = 0;
    uint64_t CacheLoadCorrupt = 0;
  };

  std::string Name;
  std::chrono::steady_clock::time_point Start;
  std::vector<std::pair<std::string, double>> Series; ///< label, mean ED2
  std::vector<std::pair<std::string, double>> Metrics; ///< free-form extras
  std::vector<CacheStats> Caches; ///< per-series cache counters
  /// Per-series obs::MetricsRegistry snapshots, pre-rendered as JSON
  /// (label, snapshot) — the "obs" object of the BENCH json.
  std::vector<std::pair<std::string, std::string>> ObsSnapshots;

  static void appendJsonString(std::string &Out, const std::string &S) {
    Out += '"';
    Out += jsonEscape(S); // the shared escaper in support/StrUtil
    Out += '"';
  }

public:
  explicit BenchReporter(std::string BenchName)
      : Name(std::move(BenchName)), Start(std::chrono::steady_clock::now()) {}

  /// Records one suite series' mean ED2 ratio under \p Label.
  void addSeries(const std::string &Label, const SuiteResult &R) {
    Series.emplace_back(Label, R.meanRatio());
  }

  /// Records a free-form scalar (speedups, cache hit rates, ...).
  void addMetric(const std::string &Label, double Value) {
    Metrics.emplace_back(Label, Value);
  }

  /// Snapshots a session's cache counters under \p Label (one call per
  /// series; the JSON's "caches" object carries them all).
  void addCacheStats(const std::string &Label, const Session &S) {
    CacheStats C;
    C.Label = Label;
    C.EvalHits = S.evalCache().hits();
    C.EvalMisses = S.evalCache().misses();
    C.SelectionHits = S.evalCache().selectionHits();
    C.SelectionMisses = S.evalCache().selectionMisses();
    C.ScheduleHits = S.scheduleCache().hits();
    C.ScheduleMisses = S.scheduleCache().misses();
    C.SchedPlacements = S.scheduleCache().placements();
    C.SchedEjections = S.scheduleCache().ejections();
    C.SchedBudgetUsed = S.scheduleCache().budgetUsed();
    C.SchedITSteps = S.scheduleCache().itSteps();
    C.PartLevels = S.scheduleCache().partLevels();
    C.PartMatchedPairs = S.scheduleCache().partMatchedPairs();
    C.PartRefineMoves = S.scheduleCache().partRefineMoves();
    C.PartFMMoves = S.scheduleCache().partFMMoves();
    C.PartCoarsenMemoHits = S.scheduleCache().partCoarsenMemoHits();
    C.PartScoreEvals = S.scheduleCache().partScoreEvals();
    C.PartScoreRelaxations = S.scheduleCache().partScoreRelaxations();
    // The robustness ledger lives in the metrics registry (the
    // measurement layer records it per config run); one snapshot
    // serves both these keys and the "obs" object below.
    obs::MetricsSnapshot Snap = S.metricsSnapshot();
    auto Counter = [&Snap](const char *Name) -> uint64_t {
      auto It = Snap.Counters.find(Name);
      return It == Snap.Counters.end() ? 0 : It->second;
    };
    C.FallbackRational = Counter("sched.fallback_rational");
    C.DegradedCount = Counter("degrade.cold_replay") +
                      Counter("degrade.flat_partition") +
                      Counter("degrade.analytic_estimate");
    C.FaultInjected = S.faultInjector().totalInjected();
    C.CachePersistHits = S.cachePersistHits();
    C.CachePersistLoaded = S.cachePersistLoadStats().loaded();
    C.CacheLoadCorrupt = S.cachePersistLoadStats().CorruptFrames;
    Caches.push_back(std::move(C));
    // The full registry snapshot rides along: stage wall-time
    // histograms, cache gauges, whatever the series recorded.
    ObsSnapshots.emplace_back(Label, Snap.json());
  }

  /// Writes BENCH_<name>.json; returns false (and warns) on IO errors.
  bool write() const {
    double WallMs = std::chrono::duration<double, std::milli>(
                        std::chrono::steady_clock::now() - Start)
                        .count();
    std::vector<double> Means;
    Means.reserve(Series.size());
    for (const auto &S : Series)
      Means.push_back(S.second);

    std::string J = "{\n  \"bench\": ";
    appendJsonString(J, Name);
    // Provenance: which build produced this artifact (committed
    // baselines are only comparable when attributable).
    J += ",\n  \"build\": " + obs::buildInfoJson();
    J += formatString(",\n  \"wall_ms\": %.3f", WallMs);
    J += formatString(",\n  \"alloc_count\": %llu",
                      static_cast<unsigned long long>(benchAllocCount()));
    if (Means.empty())
      J += ",\n  \"mean_ed2_ratio\": null";
    else
      J += formatString(",\n  \"mean_ed2_ratio\": %.6f", mean(Means));
    J += ",\n  \"series\": [";
    for (size_t I = 0; I < Series.size(); ++I) {
      J += I ? ",\n    " : "\n    ";
      J += "{\"label\": ";
      appendJsonString(J, Series[I].first);
      J += formatString(", \"mean_ed2_ratio\": %.6f}", Series[I].second);
    }
    J += Series.empty() ? "]" : "\n  ]";
    J += ",\n  \"metrics\": {";
    for (size_t I = 0; I < Metrics.size(); ++I) {
      J += I ? ", " : "";
      appendJsonString(J, Metrics[I].first);
      J += formatString(": %.6f", Metrics[I].second);
    }
    J += "}";
    J += ",\n  \"caches\": {";
    for (size_t I = 0; I < Caches.size(); ++I) {
      const CacheStats &C = Caches[I];
      J += I ? ",\n    " : "\n    ";
      appendJsonString(J, C.Label);
      J += formatString(": {\"eval_hits\": %llu, \"eval_misses\": %llu, "
                        "\"selection_hits\": %llu, "
                        "\"selection_misses\": %llu, "
                        "\"schedule_hits\": %llu, "
                        "\"schedule_misses\": %llu, "
                        "\"sched_placements\": %llu, "
                        "\"sched_ejections\": %llu, "
                        "\"sched_budget_used\": %llu, "
                        "\"sched_it_steps\": %llu, "
                        "\"part_levels\": %llu, "
                        "\"part_matched_pairs\": %llu, "
                        "\"part_refine_moves\": %llu, "
                        "\"part_fm_moves\": %llu, "
                        "\"part_coarsen_memo_hits\": %llu, "
                        "\"part_score_evals\": %llu, "
                        "\"part_score_relaxations\": %llu, "
                        "\"sched_fallback_rational\": %llu, "
                        "\"degraded_count\": %llu, "
                        "\"fault_injected\": %llu, "
                        "\"cache_persist_hits\": %llu, "
                        "\"cache_persist_loaded\": %llu, "
                        "\"cache_load_corrupt\": %llu}",
                        static_cast<unsigned long long>(C.EvalHits),
                        static_cast<unsigned long long>(C.EvalMisses),
                        static_cast<unsigned long long>(C.SelectionHits),
                        static_cast<unsigned long long>(C.SelectionMisses),
                        static_cast<unsigned long long>(C.ScheduleHits),
                        static_cast<unsigned long long>(C.ScheduleMisses),
                        static_cast<unsigned long long>(C.SchedPlacements),
                        static_cast<unsigned long long>(C.SchedEjections),
                        static_cast<unsigned long long>(C.SchedBudgetUsed),
                        static_cast<unsigned long long>(C.SchedITSteps),
                        static_cast<unsigned long long>(C.PartLevels),
                        static_cast<unsigned long long>(C.PartMatchedPairs),
                        static_cast<unsigned long long>(C.PartRefineMoves),
                        static_cast<unsigned long long>(C.PartFMMoves),
                        static_cast<unsigned long long>(C.PartCoarsenMemoHits),
                        static_cast<unsigned long long>(C.PartScoreEvals),
                        static_cast<unsigned long long>(
                            C.PartScoreRelaxations),
                        static_cast<unsigned long long>(C.FallbackRational),
                        static_cast<unsigned long long>(C.DegradedCount),
                        static_cast<unsigned long long>(C.FaultInjected),
                        static_cast<unsigned long long>(C.CachePersistHits),
                        static_cast<unsigned long long>(C.CachePersistLoaded),
                        static_cast<unsigned long long>(C.CacheLoadCorrupt));
    }
    J += Caches.empty() ? "}" : "\n  }";
    J += ",\n  \"obs\": {";
    for (size_t I = 0; I < ObsSnapshots.size(); ++I) {
      J += I ? ",\n    " : "\n    ";
      appendJsonString(J, ObsSnapshots[I].first);
      J += ": " + ObsSnapshots[I].second;
    }
    J += ObsSnapshots.empty() ? "}" : "\n  }";
    J += "\n}\n";

    const char *Dir = std::getenv("BENCH_JSON_DIR");
    std::string Path = (Dir && *Dir ? std::string(Dir) + "/" : std::string()) +
                       "BENCH_" + Name + ".json";
    std::FILE *Out = std::fopen(Path.c_str(), "wb");
    if (!Out) {
      std::fprintf(stderr, "warning: cannot write %s\n", Path.c_str());
      return false;
    }
    std::fwrite(J.data(), 1, J.size(), Out);
    std::fclose(Out);
    std::printf("wrote %s\n", Path.c_str());
    return true;
  }
};

/// The suite-sweep skeleton the figure benches share: one session per
/// option set, run the SPECfp suite, report failures, print the series
/// row (header first) and record its mean in the bench's JSON
/// artifact. Keeping it here means a policy change (failure handling,
/// reporting) lands in every figure bench at once.
class SuiteSeriesRunner {
  TablePrinter &T;
  BenchReporter &Rep;
  unsigned Threads;
  bool Header = false;
  int ExitCode = 0;

public:
  SuiteSeriesRunner(TablePrinter &Table, BenchReporter &Rp, unsigned Threads)
      : T(Table), Rep(Rp), Threads(Threads) {}

  SuiteResult run(const std::string &Label, const PipelineOptions &Opts) {
    Session S(Opts, Threads);
    SuiteResult R = SuiteRunner(S).runSpecFP();
    if (reportFailures(R))
      ExitCode = 1;
    if (!Header) {
      T.addRow(headerRow(R, "config"));
      Header = true;
    }
    printSeries(T, Label, R);
    Rep.addSeries(Label, R);
    Rep.addCacheStats(Label, S);
    return R;
  }

  int exitCode() const { return ExitCode; }
};

} // namespace hcvliw

#endif // HCVLIW_BENCH_BENCHHARNESS_H
