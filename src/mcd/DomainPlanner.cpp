//===- mcd/DomainPlanner.cpp - Per-domain (II, frequency) plans -------------===//

#include "mcd/DomainPlanner.h"

#include <cassert>

using namespace hcvliw;

DomainPlanner::DomainPlanner(const MachineDescription &M,
                             const HeteroConfig &C, const FrequencyMenu &Mn)
    : Machine(&M), Config(C), Menu(Mn) {
  assert(C.numClusters() == M.numClusters() &&
         "configuration does not match the machine");
}

static std::optional<DomainPlan> planDomain(const FrequencyMenu &Menu,
                                            const Rational &ITNs,
                                            const DomainOperatingPoint &P) {
  auto Sel = Menu.selectIIFreq(ITNs, P.fmaxGHz());
  if (!Sel)
    return std::nullopt;
  DomainPlan D;
  D.II = Sel->first;
  D.PeriodNs = Sel->second.reciprocal();
  return D;
}

bool DomainPlanner::planForITInto(MachinePlan &Plan,
                                  const Rational &ITNs) const {
  Plan.ITNs = ITNs;
  Plan.Clusters.clear();
  Plan.Clusters.reserve(Config.numClusters());
  for (const auto &C : Config.Clusters) {
    auto D = planDomain(Menu, ITNs, C);
    if (!D)
      return false;
    Plan.Clusters.push_back(*D);
  }
  auto B = planDomain(Menu, ITNs, Config.Icn);
  if (!B)
    return false;
  Plan.Bus = *B;
  auto M = planDomain(Menu, ITNs, Config.Cache);
  if (!M)
    return false;
  Plan.Cache = *M;
  return true;
}

std::optional<MachinePlan>
DomainPlanner::planForIT(const Rational &ITNs) const {
  MachinePlan Plan;
  if (!planForITInto(Plan, ITNs))
    return std::nullopt;
  return Plan;
}

Rational DomainPlanner::nextIT(const Rational &ITNs) const {
  Rational Best = Menu.nextIT(ITNs, Config.Clusters.front().fmaxGHz());
  for (unsigned C = 1; C < Config.numClusters(); ++C)
    Best = Rational::min(Best,
                         Menu.nextIT(ITNs, Config.Clusters[C].fmaxGHz()));
  Best = Rational::min(Best, Menu.nextIT(ITNs, Config.Icn.fmaxGHz()));
  Best = Rational::min(Best, Menu.nextIT(ITNs, Config.Cache.fmaxGHz()));
  assert(Best > ITNs && "nextIT must strictly increase the IT");
  return Best;
}

bool DomainPlanner::hasCapacity(const MachinePlan &Plan,
                                const std::vector<unsigned> &OpCounts) const {
  for (unsigned K = 0; K < NumFUKinds; ++K) {
    FUKind Kind = static_cast<FUKind>(K);
    if (Kind == FUKind::Bus || OpCounts[K] == 0)
      continue;
    int64_t Slots = 0;
    for (unsigned C = 0; C < Machine->numClusters(); ++C)
      Slots += Plan.Clusters[C].II *
               static_cast<int64_t>(Machine->Clusters[C].fuCount(Kind));
    if (Slots < static_cast<int64_t>(OpCounts[K]))
      return false;
  }
  return true;
}

Rational
DomainPlanner::computeMIT(int64_t RecMII,
                          const std::vector<unsigned> &OpCounts) const {
  // recMIT: the recurrence can at best run in the fastest cluster.
  Rational RecMIT = Rational(RecMII) * Config.fastestClusterPeriod();

  // resMIT: grow the IT until every FU kind has enough slots (and every
  // domain has a synchronizable (II, freq) pair). One reused probe plan
  // — this loop takes hundreds of one-slot steps on big loops.
  Rational IT = Rational::max(RecMIT, Config.fastestClusterPeriod());
  MachinePlan Probe;
  for (unsigned Guard = 0;; ++Guard) {
    assert(Guard < 100000 && "computeMIT failed to converge");
    if (planForITInto(Probe, IT) && hasCapacity(Probe, OpCounts))
      return IT;
    IT = nextIT(IT);
  }
}
