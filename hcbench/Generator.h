//===- hcbench/Generator.h - Seeded benchmark inputs -------------*- C++ -*-===//
//
// Every input the benchmark hands the library is generated here from the
// --seed argument: the same seed gives the same programs and loops, and
// any seed not used during development is a held-out check.
//
// Balanced draws keep the input *properties* fixed across seeds while
// the seed varies the instances: pipeline programs cycle through the ten
// Table 2 class-mix rows with loop parameters dealt from balanced decks.
// Run-to-run spread then measures the program, not the luck of the draw.
//
//===----------------------------------------------------------------------===//

#ifndef HCBENCH_GENERATOR_H
#define HCBENCH_GENERATOR_H

#include "machine/MachineDescription.h"
#include "mcd/HeteroConfig.h"
#include "workloads/SpecFPSuite.h"

#include <cstdint>
#include <vector>

namespace hcbench {

/// The suite_cold program list: the ten SPECfp programs, then
/// \p NumSynthetic seeded programs drawn from the SyntheticLoops
/// families (stream, stencil, chain and wide recurrence, borderline)
/// in the Table 2 class mix.
std::vector<hcvliw::BenchmarkProgram> generatePrograms(uint64_t Seed,
                                                       unsigned NumSynthetic);

/// One big_loops input: an unrolled-kernel body, the paper machine with
/// its register files scaled to the body (bigLoopRegisters), and the
/// fixed heterogeneous plans in the order the body visits them.
struct BigLoopBody {
  hcvliw::Loop L;
  hcvliw::MachineDescription M;
  std::vector<hcvliw::HeteroConfig> Plans;
};

/// The big-loop size series: \p Count makeUnrolledKernelLoop bodies with
/// sizes evenly spaced over [MinOps, MaxOps] (one kernel family, size the
/// only knob), in a seeded order, each under the three fixed plans (one
/// fast cluster at 0.9x the reference period, slow clusters at 5/4, 4/3
/// and 3/2 of it: the Section 5 slow-ratio grid). The bodies and their
/// plans do not depend on the seed: per-call latency
/// quantiles over a few dozen instances of this family move 15-25% from
/// one instance draw to the next, far beyond any useful regression bound.
std::vector<BigLoopBody> generateBigLoops(uint64_t Seed, unsigned Count,
                                          unsigned MinOps, unsigned MaxOps);

} // namespace hcbench

#endif // HCBENCH_GENERATOR_H
