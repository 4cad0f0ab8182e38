//===- tests/mcd/PlanGridTest.cpp - Tick-grid lowering of machine plans ----===//

#include "mcd/PlanGrid.h"
#include "mcd/SyncModel.h"

#include <gtest/gtest.h>

using namespace hcvliw;

namespace {

MachinePlan planWith(Rational IT, std::vector<Rational> ClusterPeriods,
                     Rational BusPeriod) {
  MachinePlan P;
  P.ITNs = IT;
  for (const Rational &C : ClusterPeriods) {
    DomainPlan D;
    D.PeriodNs = C;
    D.II = (IT / C).floor();
    P.Clusters.push_back(D);
  }
  P.Bus.PeriodNs = BusPeriod;
  P.Bus.II = (IT / BusPeriod).floor();
  P.Cache = P.Bus;
  return P;
}

TEST(PlanGrid, LowersOntoDenominatorLcm) {
  // IT 27/2, periods 9/10 and 27/20, bus 9/10: LCM(2, 10, 20, 10) = 20.
  MachinePlan P = planWith(Rational(27, 2),
                           {Rational(9, 10), Rational(27, 20)},
                           Rational(9, 10));
  PlanGrid G = PlanGrid::compute(P);
  ASSERT_TRUE(G.valid());
  EXPECT_EQ(G.ticksPerNs(), 20);
  EXPECT_EQ(G.itTicks(), 270);
  EXPECT_EQ(G.clusterPeriodTicks(0), 18);
  EXPECT_EQ(G.clusterPeriodTicks(1), 27);
  EXPECT_EQ(G.busPeriodTicks(), 18);
  // toTicks/toNs round-trip any on-grid value exactly.
  EXPECT_EQ(G.toTicks(Rational(27, 20)), 27);
  EXPECT_EQ(G.toNs(27), Rational(27, 20));
  EXPECT_EQ(G.toNs(G.toTicks(P.ITNs)), P.ITNs);
}

TEST(PlanGrid, IntegerPlanHasUnitGrid) {
  MachinePlan P = planWith(Rational(8), {Rational(1), Rational(2)},
                           Rational(1));
  PlanGrid G = PlanGrid::compute(P);
  ASSERT_TRUE(G.valid());
  EXPECT_EQ(G.ticksPerNs(), 1);
  EXPECT_EQ(G.itTicks(), 8);
  EXPECT_EQ(G.periodTicks(1, /*BusDomain=*/2), 2);
  EXPECT_EQ(G.periodTicks(2, /*BusDomain=*/2), 1);
}

TEST(PlanGrid, LcmOverflowYieldsInvalidGrid) {
  // Coprime ~4e9 denominators: the LCM alone exceeds int64, so the
  // lowering must report "no grid" instead of asserting.
  MachinePlan P = planWith(Rational(8),
                           {Rational(1, 4000000007LL),
                            Rational(1, 4000000009LL)},
                           Rational(1));
  EXPECT_FALSE(PlanGrid::compute(P).valid());
  EXPECT_EQ(lcm64Checked(4000000007LL, 4000000009LL), 0);
}

TEST(PlanGrid, HeadroomBoundYieldsInvalidGrid) {
  // The LCM fits int64 but exceeds the MaxTicks product-headroom bound
  // (slots x periods must stay well inside int64): also "no grid".
  MachinePlan P = planWith(Rational(8),
                           {Rational(1, 1000003), Rational(1, 1000033)},
                           Rational(1));
  ASSERT_GT(static_cast<__int128>(1000003) * 1000033, PlanGrid::MaxTicks);
  EXPECT_FALSE(PlanGrid::compute(P).valid());
}

TEST(PlanGrid, TickTimingRulesMatchRational) {
  // The integer sync rules agree with the Rational ones on the grid.
  Rational P(27, 20), T(101, 4);
  MachinePlan Plan = planWith(Rational(27, 2), {P}, Rational(9, 10));
  PlanGrid G = PlanGrid::compute(Plan);
  ASSERT_TRUE(G.valid());
  int64_t PT = G.clusterPeriodTicks(0);
  int64_t TT = G.toTicks(T);
  EXPECT_EQ(G.toNs(alignUpToTick(TT, PT)), alignUpToTick(T, P));
  EXPECT_EQ(G.toNs(crossDomainArrival(TT, G.busPeriodTicks(), PT)),
            crossDomainArrival(T, Rational(9, 10), P));
  EXPECT_EQ(crossDomainArrival(TT, PT, PT), TT);
  // floor/ceil division match Rational floor/ceil for either sign.
  for (int64_t A : {-55LL, -27LL, -1LL, 0LL, 1LL, 26LL, 55LL}) {
    EXPECT_EQ(floorDivTick(A, PT), Rational(A, PT).floor()) << A;
    EXPECT_EQ(ceilDivTick(A, PT), Rational(A, PT).ceil()) << A;
  }
}

} // namespace
