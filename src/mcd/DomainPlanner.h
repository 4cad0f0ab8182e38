//===- mcd/DomainPlanner.h - Per-domain (II, frequency) plans ----*- C++ -*-===//
///
/// \file
/// Implements the "Select IIs & freqs" box of the paper's Figure 5. For
/// a candidate initiation time IT, every clock domain (clusters, bus,
/// cache) receives an integer II and a running frequency II / IT drawn
/// from its frequency menu and bounded by the voltage-determined fmax:
///
///   II_X = IT * f_X,   f_X <= fmax_X.
///
/// When some domain admits no such pair the IT must be increased
/// ("synchronization problems"); nextIT() yields the smallest useful
/// increase. The minimum initiation time (MIT, Section 2.2) is the
/// larger of recMII * (fastest cluster cycle time) and the smallest IT
/// with enough functional-unit slots for the whole loop body.
///
//===----------------------------------------------------------------------===//

#ifndef HCVLIW_MCD_DOMAINPLANNER_H
#define HCVLIW_MCD_DOMAINPLANNER_H

#include "machine/MachineDescription.h"
#include "mcd/FrequencyMenu.h"
#include "mcd/HeteroConfig.h"

#include <optional>
#include <vector>

namespace hcvliw {

/// One domain's schedule-time clocking for a specific loop.
struct DomainPlan {
  int64_t II = 1;   ///< slots per initiation time
  /// The *running* period: IT / II, i.e. 1 / f for the selected
  /// frequency f = II / IT <= the domain's fmax.
  Rational PeriodNs;
};

/// Clocking of the whole machine for one loop.
struct MachinePlan {
  Rational ITNs;
  std::vector<DomainPlan> Clusters;
  DomainPlan Bus;
  DomainPlan Cache;

  const DomainPlan &cluster(unsigned C) const { return Clusters[C]; }
};

class DomainPlanner {
  const MachineDescription *Machine;
  HeteroConfig Config;
  FrequencyMenu Menu;

public:
  DomainPlanner(const MachineDescription &M, const HeteroConfig &C,
                const FrequencyMenu &Menu);

  const HeteroConfig &config() const { return Config; }
  const FrequencyMenu &menu() const { return Menu; }

  /// (II, freq) for every domain at \p ITNs, or std::nullopt on a
  /// synchronization failure in any domain.
  std::optional<MachinePlan> planForIT(const Rational &ITNs) const;

  /// In-place form of planForIT: overwrites \p Plan (reusing its
  /// Clusters capacity) and returns false on a synchronization failure.
  /// computeMIT probes hundreds of candidate ITs on big loops, one slot
  /// at a time; this keeps that search allocation-free in steady state.
  bool planForITInto(MachinePlan &Plan, const Rational &ITNs) const;

  /// Smallest IT' > ITNs at which any domain gains a slot (the Figure 5
  /// "increase IT" step).
  Rational nextIT(const Rational &ITNs) const;

  /// MIT = max(recMIT, resMIT): \p RecMII in cycles and per-FU-kind
  /// operation counts of the loop (Loop::opCountsByFU).
  Rational computeMIT(int64_t RecMII,
                      const std::vector<unsigned> &OpCounts) const;

  /// True when every FU kind has enough slots across clusters for
  /// \p OpCounts under \p Plan.
  bool hasCapacity(const MachinePlan &Plan,
                   const std::vector<unsigned> &OpCounts) const;
};

} // namespace hcvliw

#endif // HCVLIW_MCD_DOMAINPLANNER_H
