//===- hcbench/Generator.cpp - Seeded benchmark inputs ----------------------===//

#include "Generator.h"

#include "support/RNG.h"
#include "support/StrUtil.h"
#include "workloads/SyntheticLoops.h"

#include <algorithm>

using namespace hcvliw;

namespace hcbench {

namespace {

/// One Table 2 row: execution-time shares of resource-, borderline- and
/// recurrence-constrained loops, and whether the recurrences are wide
/// (many critical instructions, as in fma3d and apsi) or thin chains.
struct ClassMix {
  double Resource, Borderline, Recurrence;
  bool Wide;
};

// The ten rows of the paper's Table 2, in SPECfp order.
const ClassMix TableTwo[] = {
    {0.1404, 0.6876, 0.1720, false}, // wupwise
    {1.0000, 0.0000, 0.0000, false}, // swim
    {0.9554, 0.0000, 0.0446, false}, // mgrid
    {0.3194, 0.0617, 0.6189, false}, // applu
    {0.3327, 0.0918, 0.5755, false}, // galgel
    {0.1659, 0.0000, 0.8341, false}, // facerec
    {0.3213, 0.0002, 0.6785, false}, // lucas
    {0.1522, 0.0296, 0.8182, true},  // fma3d
    {0.0008, 0.0000, 0.9992, false}, // sixtrack
    {0.1550, 0.0337, 0.8113, true},  // apsi
};

/// Balanced draws: deals the cards of a fixed multiset in a seeded order
/// and reshuffles when it runs out, so every seed uses each value about
/// equally often and the total work of a draw hardly moves with the seed.
class Deck {
  RNG &Rng;
  std::vector<unsigned> Cards;
  size_t Next;

public:
  Deck(RNG &R, std::vector<unsigned> C)
      : Rng(R), Cards(std::move(C)), Next(Cards.size()) {}
  unsigned deal() {
    if (Next == Cards.size()) {
      Rng.shuffle(Cards);
      Next = 0;
    }
    return Cards[Next++];
  }
};

/// The loop-parameter decks of one program draw (ranges as in the SPECfp
/// suite's own loops). Every four cycles of the ten Table 2 rows deal 48
/// resource, 24 borderline, 48 chain and 16 wide-recurrence loops, a
/// multiple of every deck's size, so a 40-program draw uses each card
/// exactly as often under every seed.
struct Decks {
  Deck Stencil, Lanes, StreamTrip, Taps, BorderLanes, WideAdds, WideSide,
      ChainMuls, ChainAdds, ChainSide, ChainTrip;
  explicit Decks(RNG &R)
      : Stencil(R, {0, 0, 1}), Lanes(R, {5, 6, 7, 8}),
        StreamTrip(R, {64, 64, 64, 48}), Taps(R, {6, 7, 8, 9}),
        BorderLanes(R, {6, 7}), WideAdds(R, {7, 8, 9, 10}),
        WideSide(R, {2, 3}), ChainMuls(R, {0, 1}), ChainAdds(R, {1, 2, 3, 4}),
        ChainSide(R, {1, 2, 3, 4}), ChainTrip(R, {96, 96, 96, 24}) {}
};

/// Splits \p Share between one or two loops (a seeded cut in [0.3, 0.7]).
std::vector<double> split(RNG &Rng, double Share, bool Two) {
  if (!Two)
    return {Share};
  double Cut = 0.3 + 0.4 * Rng.nextDouble();
  return {Share * Cut, Share * (1 - Cut)};
}

BenchmarkProgram syntheticProgram(RNG &Rng, Decks &D, unsigned Index) {
  const ClassMix &Mix = TableTwo[Index % std::size(TableTwo)];
  BenchmarkProgram P;
  P.Name = formatString("gen%02u", Index);
  auto name = [&](const char *Kind) {
    return formatString("%s_%s%zu", P.Name.c_str(), Kind, P.Loops.size());
  };

  if (Mix.Resource > 0) {
    for (double W : split(Rng, Mix.Resource, Mix.Resource > 0.5)) {
      if (D.Stencil.deal())
        P.Loops.push_back(
            makeStencilLoop(name("stencil"), D.Taps.deal(), 64, W));
      else
        P.Loops.push_back(makeStreamLoop(name("stream"), D.Lanes.deal(),
                                         D.StreamTrip.deal(), W));
    }
  }
  if (Mix.Borderline > 0)
    P.Loops.push_back(makeBorderlineLoop(name("border"), D.BorderLanes.deal(),
                                         2, 96, Mix.Borderline));
  if (Mix.Recurrence > 0) {
    for (double W : split(Rng, Mix.Recurrence, Mix.Recurrence > 0.5)) {
      if (Mix.Wide)
        P.Loops.push_back(makeWideRecurrenceLoop(name("wrec"),
                                                 D.WideAdds.deal(), 2,
                                                 D.WideSide.deal(), 96, W));
      else
        P.Loops.push_back(makeChainRecurrenceLoop(
            name("crec"), D.ChainMuls.deal(), D.ChainAdds.deal(), 1,
            D.ChainSide.deal(), D.ChainTrip.deal(), W));
    }
  }
  return P;
}

} // namespace

std::vector<BenchmarkProgram> generatePrograms(uint64_t Seed,
                                               unsigned NumSynthetic) {
  std::vector<BenchmarkProgram> Programs = buildSpecFPSuite();
  RNG Rng(Seed * 0x9e3779b97f4a7c15ull + 1);
  Decks D(Rng);
  for (unsigned I = 0; I < NumSynthetic; ++I)
    Programs.push_back(syntheticProgram(Rng, D, I));
  return Programs;
}

std::vector<BigLoopBody> generateBigLoops(uint64_t Seed, unsigned Count,
                                          unsigned MinOps, unsigned MaxOps) {
  RNG Rng(Seed * 0xbf58476d1ce4e5b9ull + 2);
  std::vector<BigLoopBody> Bodies;
  for (unsigned I = 0; I < Count; ++I) {
    unsigned Ops = MinOps + ((MaxOps - MinOps) * I + (Count - 1) / 2) /
                                (Count - 1);
    BigLoopBody B;
    B.L = makeUnrolledKernelLoop(formatString("big%02u_%uops", I, Ops), Ops);
    B.M = MachineDescription::paperDefault();
    for (auto &Cl : B.M.Clusters)
      Cl.Registers = bigLoopRegisters(Ops);
    for (Rational Slow : {Rational(5, 4), Rational(4, 3), Rational(3, 2)}) {
      HeteroConfig C = HeteroConfig::reference(B.M);
      Rational Fast(9, 10);
      C.Clusters[0].PeriodNs = Fast;
      for (unsigned K = 1; K < C.numClusters(); ++K)
        C.Clusters[K].PeriodNs = Fast * Slow;
      C.Icn.PeriodNs = Fast;
      C.Cache.PeriodNs = Fast;
      B.Plans.push_back(C);
    }
    Bodies.push_back(std::move(B));
  }
  Rng.shuffle(Bodies);
  return Bodies;
}

} // namespace hcbench
