//===- hcbench/Spans.h - Bench-side span recorder ----------------*- C++ -*-===//
//
// The traced run's span recorder. Spans are kept in memory (name, start,
// end, parent) and written at exit as Chrome-trace JSON that Perfetto
// loads. The benchmark opens a span around each public library call it
// makes, on its own thread only, so spans nest strictly and a span's
// self time is its duration minus its children's.
//
//===----------------------------------------------------------------------===//

#ifndef HCBENCH_SPANS_H
#define HCBENCH_SPANS_H

#include "Bench.h"

#include <map>
#include <string>
#include <vector>

namespace hcbench {

struct SpanRecord {
  std::string Name;
  double StartUs = 0;
  double EndUs = 0;
  int Parent = -1;
};

class SpanRecorder {
  bool Enabled;
  Clock::time_point Origin = Clock::now();
  std::vector<SpanRecord> Spans;
  std::vector<int> Open;

public:
  explicit SpanRecorder(bool Enabled) : Enabled(Enabled) {}

  bool enabled() const { return Enabled; }
  int begin(const std::string &Name);
  void end(int Id);

  /// Self time in ms of every span whose index is at least \p From,
  /// summed by name.
  std::map<std::string, double> selfMsByName(size_t From = 0) const;
  size_t size() const { return Spans.size(); }

  /// Writes every span recorded so far as Chrome-trace JSON.
  bool writeChromeTrace(const std::string &Path) const;
};

/// Per-name median over several passes' selfMsByName maps (a name
/// missing from a pass counts as 0 there).
std::map<std::string, double>
medianByName(const std::vector<std::map<std::string, double>> &Passes);

/// RAII span; a no-op on a disabled recorder.
class Scope {
  SpanRecorder &R;
  int Id;

public:
  Scope(SpanRecorder &Rec, const std::string &Name)
      : R(Rec), Id(Rec.begin(Name)) {}
  ~Scope() { R.end(Id); }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
};

} // namespace hcbench

#endif // HCBENCH_SPANS_H
