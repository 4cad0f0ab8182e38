//===- runtime/SuiteJournal.cpp - Suite checkpoint / resume -----------------===//
//
// Serialization strategy: every record body is ONE line of
// space-separated tokens, written positionally by the shared
// runtime/ResultSerde put* helpers and read back by the mirrored get*
// helpers over the support/RecordIO codec (the "v1" in the header is
// the contract version for the positional layout). Records are framed
// by begin/end lines carrying the program name; the loader drops a
// trailing record whose frame or body is incomplete (the run died
// mid-append) along with anything after it.
//
//===----------------------------------------------------------------------===//

#include "runtime/SuiteJournal.h"

#include "runtime/ResultSerde.h"
#include "support/HashUtil.h"
#include "support/RecordIO.h"

#include <cstring>
#include <fstream>

#include <unistd.h>

using namespace hcvliw;
using recio::Sink;
using recio::Source;

namespace {

constexpr const char *JournalMagic = "hcvliw-suite-journal v2";

} // namespace

//===----------------------------------------------------------------------===//
// SuiteJournal (loader)
//===----------------------------------------------------------------------===//

std::optional<SuiteJournal> SuiteJournal::load(const std::string &Path,
                                               uint64_t ExpectFingerprint,
                                               std::string *Err) {
  auto fail = [&](const std::string &Why) -> std::optional<SuiteJournal> {
    if (Err)
      *Err = Why;
    return std::nullopt;
  };
  std::ifstream In(Path);
  if (!In)
    return fail("cannot open journal: " + Path);

  std::string Line;
  if (!std::getline(In, Line) || Line != JournalMagic)
    return fail("not a hcvliw suite journal (bad header): " + Path);
  if (!std::getline(In, Line) || Line.rfind("fingerprint ", 0) != 0)
    return fail("journal missing fingerprint line: " + Path);
  SuiteJournal J;
  {
    std::string Hex = Line.substr(std::strlen("fingerprint "));
    char *End = nullptr;
    J.Fingerprint = std::strtoull(Hex.c_str(), &End, 16);
    if (Hex.empty() || End != Hex.c_str() + Hex.size())
      return fail("journal fingerprint is not hex: " + Path);
  }
  if (ExpectFingerprint && J.Fingerprint != ExpectFingerprint)
    return fail("journal was written under different options or programs "
                "(fingerprint mismatch); refusing to resume from it");

  // Framed records. Any malformed or unterminated record is treated as
  // the torn tail of a killed run: it and everything after it are
  // dropped, everything before it loads. CleanBytes tracks how far the
  // intact prefix reaches, so an appending reopen can cut the tear off
  // instead of writing records the next load would never see.
  J.CleanBytes = static_cast<uint64_t>(In.tellg());
  while (std::getline(In, Line)) {
    Source Frame(Line);
    std::string Kw = Frame.str();
    if (Kw != "begin")
      break;
    std::string Kind = Frame.str();
    std::string Name = Frame.str();
    if (Frame.bad() || !Frame.done() || (Kind != "ok" && Kind != "fail"))
      break;

    std::string Body;
    if (!std::getline(In, Body))
      break;
    std::string EndLine;
    if (!std::getline(In, EndLine))
      break;
    Source EndFrame(EndLine);
    if (EndFrame.str() != "end" || EndFrame.str() != Kind ||
        EndFrame.str() != Name || EndFrame.bad() || !EndFrame.done())
      break;

    Source S(Body);
    if (Kind == "ok") {
      ProgramRunResult R = serde::getResult(S);
      if (S.bad() || !S.done() || R.Name != Name)
        break;
      J.Results[Name] = std::move(R);
    } else {
      JournaledFailure F = serde::getFailure(S);
      if (S.bad() || !S.done())
        break;
      J.Failures[Name] = std::move(F);
    }
    J.CleanBytes = static_cast<uint64_t>(In.tellg());
  }
  return J;
}

//===----------------------------------------------------------------------===//
// SuiteJournalWriter
//===----------------------------------------------------------------------===//

bool SuiteJournalWriter::open(const std::string &Path, uint64_t Fingerprint,
                              std::string *Err) {
  close();
  // Append mode: a resumed run extends the journal it loaded. When the
  // file already has content the header must match (same format, same
  // fingerprint) — validated by re-loading it.
  bool WriteHeader = true;
  {
    std::ifstream Probe(Path);
    if (Probe && Probe.peek() != std::ifstream::traits_type::eof()) {
      std::string LoadErr;
      auto Existing = SuiteJournal::load(Path, Fingerprint, &LoadErr);
      if (!Existing) {
        if (Err)
          *Err = "cannot append to journal: " + LoadErr;
        return false;
      }
      WriteHeader = false;
      // Cut off a torn tail before appending: records written after
      // the tear would otherwise be dropped by every future load.
      if (::truncate(Path.c_str(), static_cast<off_t>(Existing->CleanBytes))
          != 0) {
        if (Err)
          *Err = "cannot truncate torn journal tail: " + Path;
        return false;
      }
    }
  }
  Out = std::fopen(Path.c_str(), "ab");
  if (!Out) {
    if (Err)
      *Err = "cannot open journal for append: " + Path;
    return false;
  }
  if (WriteHeader) {
    std::fprintf(Out, "%s\nfingerprint %016llx\n", JournalMagic,
                 static_cast<unsigned long long>(Fingerprint));
    std::fflush(Out);
  }
  return true;
}

void SuiteJournalWriter::append(const ProgramRunResult &R) {
  if (!Out)
    return;
  Sink S;
  serde::putResult(S, R);
  std::string Rec;
  std::string Name = recio::escToken(R.Name);
  Rec.reserve(S.line().size() + 2 * Name.size() + 32);
  Rec += "begin ok " + Name + "\n";
  Rec += S.line();
  Rec += "\nend ok " + Name + "\n";
  // One write + flush per record: a kill between appends loses
  // nothing; a kill mid-append loses exactly the (droppable) tail.
  std::fwrite(Rec.data(), 1, Rec.size(), Out);
  std::fflush(Out);
}

void SuiteJournalWriter::appendFailure(const std::string &Program,
                                       PipelineStage Stage,
                                       const std::string &Reason,
                                       double StageWallMs) {
  if (!Out)
    return;
  Sink S;
  serde::putFailure(S, Stage, Reason, StageWallMs);
  std::string Rec;
  std::string Name = recio::escToken(Program);
  Rec += "begin fail " + Name + "\n";
  Rec += S.line();
  Rec += "\nend fail " + Name + "\n";
  std::fwrite(Rec.data(), 1, Rec.size(), Out);
  std::fflush(Out);
}

void SuiteJournalWriter::close() {
  if (Out) {
    std::fclose(Out);
    Out = nullptr;
  }
}

//===----------------------------------------------------------------------===//
// Fingerprint
//===----------------------------------------------------------------------===//

uint64_t
hcvliw::suiteJournalFingerprint(const PipelineOptions &Opts,
                                const std::vector<BenchmarkProgram> &Programs) {
  FnvHasher H;
  H.mix(1); // format/contract version

  // The program list: names plus the structural identity of every loop.
  H.mix(Programs.size());
  for (const BenchmarkProgram &P : Programs) {
    H.mix(P.Name.size());
    for (char C : P.Name)
      H.mix(static_cast<unsigned char>(C));
    H.mix(P.Loops.size());
    for (const Loop &L : P.Loops) {
      H.mix(L.structuralFingerprint());
      H.mix(L.TripCount);
    }
  }

  // Every pipeline option the per-program computation reads.
  H.mix(Opts.Buses);
  H.mix(Opts.NumClusters);
  H.mix(Opts.MenuSize ? 1u + *Opts.MenuSize : 0u);
  H.mixDouble(Opts.Breakdown.CacheShare);
  H.mixDouble(Opts.Breakdown.IcnShare);
  H.mixDouble(Opts.Breakdown.ClusterLeakageFrac);
  H.mixDouble(Opts.Breakdown.CacheLeakageFrac);
  H.mixDouble(Opts.Breakdown.IcnLeakageFrac);
  H.mixDouble(Opts.Tech.Alpha);
  H.mixDouble(Opts.Tech.SubthresholdSlopeV);
  H.mixDouble(Opts.Tech.OverdriveMargin);
  const DesignSpaceOptions &Sp = Opts.Space;
  H.mixVector(Sp.FastFactors);
  H.mixVector(Sp.SlowRatios);
  H.mix(Sp.NumFastClusters);
  H.mixVector(Sp.ClusterVddGrid);
  H.mixVector(Sp.IcnVddGrid);
  H.mixVector(Sp.CacheVddGrid);
  H.mixVector(Sp.HomogFactors);
  H.mixVector(Sp.HomogVddGrid);
  H.mix(Opts.Part.ED2Objective ? 1u : 2u);
  H.mix(Opts.Part.PrePlaceRecurrences ? 1u : 2u);
  H.mix(Opts.Part.MaxRefinePasses);
  H.mix(Opts.Part.MaxRefineMacros);
  H.mix(Opts.Part.CoarsestPerCluster);
  H.mix(Opts.Part.MaxFMPasses);
  H.mixDouble(Opts.ProgramBudgetNs);
  H.mix(Opts.MaxITSteps);
  H.mix(Opts.SimCheckIterations);
  H.mix(Opts.LoopEffortDeadline);
  H.mix(Opts.DegradeToEstimate ? 1u : 2u);
  return H.digest();
}
