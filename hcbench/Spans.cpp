//===- hcbench/Spans.cpp - Bench-side span recorder -------------------------===//

#include "Spans.h"

#include <cstdio>

namespace hcbench {

int SpanRecorder::begin(const std::string &Name) {
  if (!Enabled)
    return -1;
  SpanRecord S;
  S.Name = Name;
  S.Parent = Open.empty() ? -1 : Open.back();
  S.StartUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Origin).count();
  Spans.push_back(std::move(S));
  int Id = static_cast<int>(Spans.size() - 1);
  Open.push_back(Id);
  return Id;
}

void SpanRecorder::end(int Id) {
  if (Id < 0)
    return;
  Spans[Id].EndUs =
      std::chrono::duration<double, std::micro>(Clock::now() - Origin).count();
  // Scopes close in LIFO order on the one recording thread.
  Open.pop_back();
}

std::map<std::string, double> SpanRecorder::selfMsByName(size_t From) const {
  std::vector<double> ChildUs(Spans.size(), 0.0);
  for (size_t I = From; I < Spans.size(); ++I)
    if (Spans[I].Parent >= static_cast<int>(From))
      ChildUs[Spans[I].Parent] += Spans[I].EndUs - Spans[I].StartUs;
  std::map<std::string, double> Self;
  for (size_t I = From; I < Spans.size(); ++I)
    Self[Spans[I].Name] +=
        (Spans[I].EndUs - Spans[I].StartUs - ChildUs[I]) / 1000.0;
  return Self;
}

std::map<std::string, double>
medianByName(const std::vector<std::map<std::string, double>> &Passes) {
  std::map<std::string, std::vector<double>> Values;
  for (size_t I = 0; I < Passes.size(); ++I)
    for (const auto &[Name, Ms] : Passes[I]) {
      std::vector<double> &V = Values[Name];
      V.resize(Passes.size(), 0.0);
      V[I] = Ms;
    }
  std::map<std::string, double> Med;
  for (auto &[Name, V] : Values)
    Med[Name] = median(V);
  return Med;
}

bool SpanRecorder::writeChromeTrace(const std::string &Path) const {
  FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  std::fprintf(F, "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const SpanRecord &S = Spans[I];
    std::fprintf(F,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d}}",
                 I ? "," : "", S.Name.c_str(), S.StartUs, S.EndUs - S.StartUs,
                 I, S.Parent);
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

} // namespace hcbench
