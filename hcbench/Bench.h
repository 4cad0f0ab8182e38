//===- hcbench/Bench.h - Shared benchmark plumbing ---------------*- C++ -*-===//
//
// Run options, the outcome every workload reports (attempted / failed
// operations and named metrics), and the small statistics and digest
// helpers the workloads share.
//
//===----------------------------------------------------------------------===//

#ifndef HCBENCH_BENCH_H
#define HCBENCH_BENCH_H

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace hcvliw {
struct SuiteResult;
}

namespace hcbench {

using Clock = std::chrono::steady_clock;

inline double msSince(Clock::time_point T) {
  return std::chrono::duration<double, std::milli>(Clock::now() - T).count();
}

struct RunOptions {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  /// Directory for the cache round-trip snapshot and the Chrome trace.
  std::string WorkDir = ".";
};

struct Metric {
  std::string Name;
  double Value = 0;
  std::string Unit;
};

/// What one benchmark run reports. A failed operation is a SuiteFailure,
/// an unschedulable loop, or a correctness-check mismatch.
struct Outcome {
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  std::vector<Metric> Metrics;

  /// Counts one checked operation; prints and counts it as failed when
  /// \p Ok is false.
  void check(bool Ok, const std::string &What);
};

/// Exact work counts of one run, by metric name; two runs of one seed
/// must produce identical maps.
using Counts = std::map<std::string, double>;

struct MetricSpec {
  const char *Name;
  const char *Unit;
};

/// The metrics BENCHMARK.json lists, in its order: --trace 0 prints
/// every end-to-end metric, --trace 1 every per-layer metric, on every
/// workload.
extern const std::vector<MetricSpec> EndToEndMetrics;
extern const std::vector<MetricSpec> LayerMetrics;

/// Adds every metric of \p Specs from \p Values. An end-to-end metric
/// the workload did not produce is a failed operation; a layer the
/// workload never calls reads 0.
void emitMetrics(Outcome &Out, const std::vector<MetricSpec> &Specs,
                 const std::map<std::string, double> &Values,
                 bool MissingIsZero);

/// Compares the counts of two in-process runs of one seed; every
/// differing name is a failed operation.
void checkCountsIdentical(Outcome &Out, const Counts &A, const Counts &B);

double median(std::vector<double> V);
/// Indices of a run's three fastest passes (all when fewer), fastest
/// first. The work of a pass is deterministic, so load from other tenants
/// of a shared host can only add time to it: the fastest passes are what
/// that load moves least. Three passes give at least 100 latency samples
/// on every workload, so a p90 has ten beyond it.
std::vector<size_t> fastestPasses(const std::vector<double> &PassMs);
/// Linear-interpolated percentile, \p P in [0, 100].
double percentile(std::vector<double> V, double P);
double ratioOr0(double Num, double Den);

/// Pins the calling thread, and the threads it creates from then on, to a
/// rotating window of the CPUs the process may use: pass N runs on
/// \p Width CPUs starting at the N-th. Neighbour load on a shared host
/// differs from one vCPU to the next, so a run left on one contended
/// vCPU would time every pass slow; rotating lets a run's fastest passes
/// find the quiet ones. A no-op where affinity is not available.
class CpuRotation {
  std::vector<int> Cpus;
  unsigned Width;

public:
  explicit CpuRotation(unsigned Width);
  void pinForPass(size_t Pass) const;
  /// Back to every CPU the process may use.
  void restore() const;
};

/// Peak resident set size of this process so far, in MiB.
double peakRssMb();

/// FNV-1a digest of deterministic results (ED2 ratios, per-loop ITs,
/// per-(body, plan) ITs); every pass of one invocation must agree.
class Digest {
  uint64_t H = 1469598103934665603ull;

public:
  void bytes(const void *P, size_t N) {
    const auto *B = static_cast<const unsigned char *>(P);
    for (size_t I = 0; I < N; ++I) {
      H ^= B[I];
      H *= 1099511628211ull;
    }
  }
  void num(double D) { bytes(&D, sizeof D); }
  void num(uint64_t U) { bytes(&U, sizeof U); }
  void str(const std::string &S) {
    bytes(S.data(), S.size());
    num(static_cast<uint64_t>(S.size()));
  }
  uint64_t value() const { return H; }
};

/// Heap allocations since process start (the counting operator new that
/// main.cpp installs).
uint64_t allocations();

Outcome runSuiteCold(const RunOptions &Opts);
/// The untimed SPECfp verification pass (simulator checks on): every
/// measured loop is re-scheduled and checked by checkSchedule; with
/// \p Ref, ED2 ratios must equal the workload pass's. Returns the
/// suite's mean ED2 ratio.
double verifySpecFP(Outcome &Out, const hcvliw::SuiteResult *Ref);
Outcome runBigLoops(const RunOptions &Opts);

} // namespace hcbench

#endif // HCBENCH_BENCH_H
