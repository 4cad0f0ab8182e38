//===- hcbench/main.cpp - Benchmark entry point -----------------------------===//
//
//   hcbench --workload <suite_cold|big_loops>
//           --seed <n> --seconds <s> --trace <0|1> [--work-dir <dir>]
//
// Runs one workload and prints, as the last line of stdout, one JSON
// object: {"correct", "attempted", "failed", "metrics"}. --trace 0 gives
// the end-to-end metrics (untraced), --trace 1 the per-layer metrics of
// a separate traced run. README.md maps every metric to its layer and
// workload.
//
//===----------------------------------------------------------------------===//

#include "Bench.h"

#include "obs/AllocHook.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <string>
#include <sys/resource.h>
#ifdef __linux__
#include <sched.h>
#endif
#ifdef __GLIBC__
#include <malloc.h>
#endif

namespace hcbench {
std::atomic<uint64_t> AllocCounter{0};
} // namespace hcbench

HCVLIW_INSTRUMENT_ALLOCS(hcbench::AllocCounter)

namespace hcbench {

uint64_t allocations() { return hcvliw::obs::allocCount(); }

void Outcome::check(bool Ok, const std::string &What) {
  ++Attempted;
  if (Ok)
    return;
  ++Failed;
  std::printf("FAILED: %s\n", What.c_str());
}

void checkCountsIdentical(Outcome &Out, const Counts &A, const Counts &B) {
  bool Same = A.size() == B.size();
  for (const auto &[Name, V] : A) {
    auto It = B.find(Name);
    bool Eq = It != B.end() && It->second == V;
    if (!Eq)
      std::printf("count %s differs between runs: %.17g vs %.17g\n",
                  Name.c_str(), V, It != B.end() ? It->second : NAN);
    Same = Same && Eq;
  }
  Out.check(Same, "exact counts identical across two runs of one seed");
}

const std::vector<MetricSpec> EndToEndMetrics = {
    {"setup_s", "s"},
    {"programs_per_s", "1/s"},
    {"loop_schedules_per_s", "1/s"},
    {"loop_schedule_ms_p50", "ms"},
    {"loop_schedule_ms_p90", "ms"},
    {"peak_rss_mb", "MB"},
    {"mean_ed2_ratio", "ratio"},
    {"argmin_agreement", "ratio"},
    {"mean_it_over_mit", "ratio"},
};

const std::vector<MetricSpec> LayerMetrics = {
    {"workloads.gen_ms", "ms"},
    {"profiling.ms", "ms"},
    {"profiling.loops", "count"},
    {"explore.ms", "ms"},
    {"explore.candidates", "count"},
    {"explore.eval_cache_hit_ratio", "ratio"},
    {"explore.selection_memo_hit_ratio", "ratio"},
    {"measure.ms", "ms"},
    {"measure.configs", "count"},
    {"measure.schedule_cache_hit_ratio", "ratio"},
    {"partition.ms", "ms"},
    {"partition.runs", "count"},
    {"partition.refine_passes", "count"},
    {"partition.refine_moves", "count"},
    {"partition.fm_moves", "count"},
    {"partition.coarsen_memo_hit_ratio", "ratio"},
    {"sched.ms", "ms"},
    {"sched.placements", "count"},
    {"sched.ejections", "count"},
    {"sched.placement_yield", "ratio"},
    {"sched.it_steps", "count"},
    {"sched.budget_used", "count"},
    {"sched.allocs_per_loop_schedule", "count"},
    {"ir.analysis_ms", "ms"},
    {"runtime.cache_load_ms", "ms"},
    {"runtime.cache_load_mb_per_s", "MB/s"},
    {"runtime.cache_save_ms", "ms"},
    {"runtime.persist_hits", "count"},
};

void emitMetrics(Outcome &Out, const std::vector<MetricSpec> &Specs,
                 const std::map<std::string, double> &Values,
                 bool MissingIsZero) {
  for (const MetricSpec &S : Specs) {
    auto It = Values.find(S.Name);
    if (It == Values.end() && !MissingIsZero)
      Out.check(false, std::string("metric not produced: ") + S.Name);
    double V = It == Values.end() ? 0.0 : It->second;
    if (!std::isfinite(V)) {
      Out.check(false, std::string("metric is not finite: ") + S.Name);
      V = 0;
    }
    Out.Metrics.push_back({S.Name, V, S.Unit});
  }
}

double median(std::vector<double> V) { return percentile(std::move(V), 50); }

std::vector<size_t> fastestPasses(const std::vector<double> &PassMs) {
  std::vector<size_t> Ix(PassMs.size());
  std::iota(Ix.begin(), Ix.end(), 0);
  std::stable_sort(Ix.begin(), Ix.end(), [&](size_t A, size_t B) {
    return PassMs[A] < PassMs[B];
  });
  Ix.resize(std::min<size_t>(Ix.size(), 3));
  return Ix;
}

double percentile(std::vector<double> V, double P) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = P / 100.0 * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ratioOr0(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

#ifdef __linux__
CpuRotation::CpuRotation(unsigned W) : Width(W) {
  cpu_set_t Set;
  CPU_ZERO(&Set);
  if (sched_getaffinity(0, sizeof Set, &Set) == 0)
    for (int C = 0; C < CPU_SETSIZE; ++C)
      if (CPU_ISSET(C, &Set))
        Cpus.push_back(C);
}

void CpuRotation::pinForPass(size_t Pass) const {
  if (Cpus.size() <= Width)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (unsigned K = 0; K < Width; ++K)
    CPU_SET(Cpus[(Pass + K) % Cpus.size()], &Set);
  sched_setaffinity(0, sizeof Set, &Set);
}

void CpuRotation::restore() const {
  if (Cpus.size() <= Width)
    return;
  cpu_set_t Set;
  CPU_ZERO(&Set);
  for (int C : Cpus)
    CPU_SET(C, &Set);
  sched_setaffinity(0, sizeof Set, &Set);
}
#else
CpuRotation::CpuRotation(unsigned W) : Width(W) {}
void CpuRotation::pinForPass(size_t) const {}
void CpuRotation::restore() const {}
#endif

double peakRssMb() {
  struct rusage U {};
  getrusage(RUSAGE_SELF, &U);
  return static_cast<double>(U.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

} // namespace hcbench

using namespace hcbench;

namespace {

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "hcbench: %s\nusage: hcbench --workload "
               "<suite_cold|big_loops> --seed <n> "
               "--seconds <s> --trace <0|1> [--work-dir <dir>]\n",
               Msg);
  std::exit(2);
}

} // namespace

int main(int Argc, char **Argv) {
#ifdef __GLIBC__
  // A fixed mmap threshold: glibc otherwise raises it after the first
  // large free, so later slack matrices land on the heap and the peak
  // resident set depends on the order bodies ran in, not on live data.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
#endif
  RunOptions O;
  for (int I = 1; I < Argc; ++I) {
    std::string A = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + A).c_str());
    std::string V = Argv[++I];
    char *End = nullptr;
    if (A == "--workload") {
      O.Workload = V;
    } else if (A == "--seed") {
      O.Seed = std::strtoull(V.c_str(), &End, 10);
      if (V.empty() || *End)
        usage("--seed takes a non-negative integer");
    } else if (A == "--seconds") {
      O.Seconds = std::strtod(V.c_str(), &End);
      if (V.empty() || *End || !(O.Seconds > 0))
        usage("--seconds takes a positive number");
    } else if (A == "--trace") {
      if (V != "0" && V != "1")
        usage("--trace takes 0 or 1");
      O.Trace = V == "1";
    } else if (A == "--work-dir") {
      O.WorkDir = V;
    } else {
      usage(("unknown argument " + A).c_str());
    }
  }

  Outcome Out;
  if (O.Workload == "suite_cold")
    Out = runSuiteCold(O);
  else if (O.Workload == "big_loops")
    Out = runBigLoops(O);
  else
    usage("unknown or missing --workload");

  std::fflush(stdout);
  std::string Json = "{\"correct\": ";
  Json += Out.Failed == 0 ? "true" : "false";
  Json += ", \"attempted\": " + std::to_string(Out.Attempted);
  Json += ", \"failed\": " + std::to_string(Out.Failed);
  Json += ", \"metrics\": {";
  for (size_t I = 0; I < Out.Metrics.size(); ++I) {
    const Metric &M = Out.Metrics[I];
    char Buf[64];
    std::snprintf(Buf, sizeof Buf, "%.17g", M.Value);
    Json += (I ? ", \"" : "\"") + M.Name + "\": {\"value\": " + Buf +
            ", \"unit\": \"" + M.Unit + "\"}";
  }
  Json += "}}";
  std::printf("%s\n", Json.c_str());
  return 0;
}
