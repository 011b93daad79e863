#include "sim/fabric.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <map>
#include <vector>

#include "sim/link_fabric.h"

namespace rdmajoin {
namespace {

FabricConfig BasicConfig(uint32_t hosts = 4) {
  FabricConfig f;
  f.num_hosts = hosts;
  f.egress_bytes_per_sec = 1000.0;  // Small numbers keep the math exact.
  f.ingress_bytes_per_sec = 1000.0;
  f.message_rate_per_host = 0.0;
  f.congestion_bytes_per_sec_per_extra_host = 0.0;
  f.base_latency_seconds = 0.0;
  return f;
}

std::vector<Fabric::Completion> DrainAt(Fabric* fabric, double t) {
  std::vector<Fabric::Completion> done;
  fabric->AdvanceTo(t, &done);
  return done;
}

TEST(FabricConfig, ValidatesRanges) {
  FabricConfig f = BasicConfig();
  EXPECT_TRUE(f.Validate().ok());
  f.num_hosts = 0;
  EXPECT_FALSE(f.Validate().ok());
  f = BasicConfig();
  f.egress_bytes_per_sec = 0;
  EXPECT_FALSE(f.Validate().ok());
  f = BasicConfig();
  f.congestion_bytes_per_sec_per_extra_host = 400.0;  // 3 * 400 > 1000
  EXPECT_FALSE(f.Validate().ok());
}

TEST(FabricConfig, EffectiveEgressAppliesCongestionTerm) {
  FabricConfig f = BasicConfig(5);
  f.congestion_bytes_per_sec_per_extra_host = 100.0;
  EXPECT_DOUBLE_EQ(f.EffectiveEgress(), 1000.0 - 4 * 100.0);
}

TEST(Fabric, SingleFlowRunsAtFullBandwidth) {
  Fabric fabric(BasicConfig());
  const Fabric::FlowId id = fabric.Inject(0, 1, 500.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.NextCompletionTime(), 0.5);
  auto done = DrainAt(&fabric, 0.5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  EXPECT_DOUBLE_EQ(done[0].time, 0.5);
  EXPECT_EQ(fabric.NextCompletionTime(),
            std::numeric_limits<double>::infinity());
}

TEST(Fabric, TwoFlowsFromOneHostShareEgress) {
  Fabric fabric(BasicConfig());
  fabric.Inject(0, 1, 500.0, 0.0);
  fabric.Inject(0, 2, 500.0, 0.0);
  // Each runs at 500 B/s and finishes at t = 1.
  EXPECT_DOUBLE_EQ(fabric.NextCompletionTime(), 1.0);
  auto done = DrainAt(&fabric, 1.0);
  ASSERT_EQ(done.size(), 2u);
  EXPECT_DOUBLE_EQ(done[0].time, 1.0);
  EXPECT_DOUBLE_EQ(done[1].time, 1.0);
}

TEST(Fabric, TwoFlowsIntoOneHostShareIngress) {
  Fabric fabric(BasicConfig());
  fabric.Inject(0, 2, 500.0, 0.0);
  fabric.Inject(1, 2, 500.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.NextCompletionTime(), 1.0);
  EXPECT_EQ(DrainAt(&fabric, 1.0).size(), 2u);
}

TEST(Fabric, CompletionFreesBandwidthForRemainingFlows) {
  Fabric fabric(BasicConfig());
  const Fabric::FlowId a = fabric.Inject(0, 1, 250.0, 0.0);  // Done at t=0.5.
  const Fabric::FlowId b = fabric.Inject(0, 2, 500.0, 0.0);  // 250 B left then.
  auto done = DrainAt(&fabric, 0.5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, a);
  // Remaining flow finishes 250 bytes at 1000 B/s -> t = 0.75.
  EXPECT_NEAR(fabric.NextCompletionTime(), 0.75, 1e-9);
  done = DrainAt(&fabric, 0.75);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, b);
}

TEST(Fabric, MessageRateCapLimitsSmallMessages) {
  FabricConfig f = BasicConfig();
  f.message_rate_per_host = 10.0;  // A 1-byte message streams at 10 B/s.
  Fabric fabric(f);
  fabric.Inject(0, 1, 1.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.NextCompletionTime(), 0.1);
  // Large messages saturate the port instead.
  Fabric fabric2(f);
  fabric2.Inject(0, 1, 1000.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric2.NextCompletionTime(), 1.0);
}

TEST(Fabric, BaseLatencyDelaysCompletionNotBandwidth) {
  FabricConfig f = BasicConfig();
  f.base_latency_seconds = 0.1;
  Fabric fabric(f);
  fabric.Inject(0, 1, 1000.0, 0.0);
  // Drains at t=1.0, completes at t=1.1.
  auto done = DrainAt(&fabric, 1.05);
  EXPECT_TRUE(done.empty());
  EXPECT_NEAR(fabric.NextCompletionTime(), 1.1, 1e-9);
  done = DrainAt(&fabric, 1.1);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].time, 1.1, 1e-9);
}

// Hosts 0, 3 and 4 all send to host 1; host 0 also sends to host 2. Host
// 1's ingress is the bottleneck: each flow into it gets 1000/3. Equal share
// still caps 0->2 at half of host 0's egress (500), leaving host 0's port a
// sixth idle; max-min (the scheduler's solver) hands 0->2 the leftover.
TEST(Fabric, EqualShareIsNotWorkConservingButMaxMinIs) {
  Fabric fabric(BasicConfig(5));
  fabric.Inject(0, 1, 1000.0 / 3.0, 0.0);
  fabric.Inject(0, 2, 500.0, 0.0);
  fabric.Inject(3, 1, 1000.0 / 3.0, 0.0);
  fabric.Inject(4, 1, 1000.0 / 3.0, 0.0);
  // Every flow is sized to drain in exactly one second at its equal share.
  auto done = DrainAt(&fabric, 1.0);
  ASSERT_EQ(done.size(), 4u);
  for (const Fabric::Completion& c : done) EXPECT_NEAR(c.time, 1.0, 1e-9);

  std::vector<RateDemand> demands(4);
  const uint32_t ends[4][2] = {{0, 1}, {0, 2}, {3, 1}, {4, 1}};
  for (size_t i = 0; i < 4; ++i) {
    demands[i].src = ends[i][0];
    demands[i].dst = ends[i][1];
    demands[i].cap = std::numeric_limits<double>::infinity();
  }
  std::vector<double> egress(5, 1000.0);
  std::vector<double> ingress(5, 1000.0);
  SolveMaxMinRates(&demands, &egress, &ingress);
  EXPECT_NEAR(demands[0].rate, 1000.0 / 3.0, 1e-9);
  EXPECT_NEAR(demands[1].rate, 2000.0 / 3.0, 1e-9);
  EXPECT_EQ(demands[0].bound, RateConstraint::kReceiverIngress);
  EXPECT_EQ(demands[1].bound, RateConstraint::kSenderEgress);
}

// Max-min progressive filling gives the flow that is not bottlenecked at
// the shared ingress the rest of its sender's egress.
TEST(Fabric, MaxMinRedistributesLeftoverEgress) {
  // 0->1 and 2->1 share host 1's ingress: 500 each. The tightest
  // constraint is ingress(1)/2 = 500 vs egress(0)/2 = 500; ties freeze
  // both, and 0->3 then gets host 0's remaining 500.
  std::vector<RateDemand> demands(3);
  const uint32_t ends[3][2] = {{0, 1}, {2, 1}, {0, 3}};
  for (size_t i = 0; i < 3; ++i) {
    demands[i].src = ends[i][0];
    demands[i].dst = ends[i][1];
    demands[i].cap = std::numeric_limits<double>::infinity();
  }
  std::vector<double> egress(4, 1000.0);
  std::vector<double> ingress(4, 1000.0);
  SolveMaxMinRates(&demands, &egress, &ingress);
  EXPECT_DOUBLE_EQ(demands[0].rate, 500.0);
  EXPECT_DOUBLE_EQ(demands[1].rate, 500.0);
  EXPECT_DOUBLE_EQ(demands[2].rate, 500.0);
}

TEST(Fabric, ConservesBytesAcrossManyRandomFlows) {
  FabricConfig f = BasicConfig(6);
  f.base_latency_seconds = 1e-4;
  Fabric fabric(f);
  uint64_t seed = 12345;
  auto next = [&seed] {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    return seed * UINT64_C(0x2545F4914F6CDD1D);
  };
  double t = 0.0;
  std::vector<Fabric::Completion> done;
  std::map<Fabric::FlowId, int> message_of;
  for (int i = 0; i < 200; ++i) {
    const uint32_t src = next() % 6;
    uint32_t dst = next() % 6;
    if (dst == src) dst = (dst + 1) % 6;
    const double bytes = 1.0 + static_cast<double>(next() % 1000);
    message_of[fabric.Inject(src, dst, bytes, t)] = i;
    t += 0.001 * static_cast<double>(next() % 10);
    fabric.AdvanceTo(t, &done);
  }
  fabric.AdvanceTo(t + 1e6, &done);
  // Every message is delivered whole, exactly once: a flow's bytes count as
  // delivered only when it completes.
  ASSERT_EQ(done.size(), 200u);
  std::vector<int> seen(200, 0);
  for (const Fabric::Completion& c : done) {
    ASSERT_EQ(message_of.count(c.id), 1u);
    ++seen[message_of[c.id]];
  }
  for (int i = 0; i < 200; ++i) EXPECT_EQ(seen[i], 1) << "message " << i;
  EXPECT_EQ(fabric.NextCompletionTime(),
            std::numeric_limits<double>::infinity());
  // Completion times are non-decreasing in the drained order.
  for (size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1].time, done[i].time * (1 + 1e-12));
  }
}

// Regression for the kTimeEps-as-rate-epsilon reuse: with one host degraded
// to a 1e-9 capacity scale, live rates span nine orders of magnitude
// (1e-6 .. 1e3 bytes/sec here). The *relative* rate epsilon must freeze only
// the truly bottlenecked demand -- an absolute-style tolerance at the old
// epsilon's scale would glue the fast flow to the slow bottleneck (or never
// converge).
TEST(Fabric, MaxMinRatesSpanningNineOrdersOfMagnitude) {
  // Slow demand: host 0's egress is 1000 * 1e-9 = 1e-6 bytes/sec. The fast
  // demand shares host 1's ingress with it; max-min gives it everything the
  // slow demand cannot use.
  std::vector<RateDemand> demands(2);
  demands[0].src = 0;
  demands[0].dst = 1;
  demands[1].src = 2;
  demands[1].dst = 1;
  for (RateDemand& d : demands) d.cap = std::numeric_limits<double>::infinity();
  std::vector<double> egress = {1000.0 * 1e-9, 1000.0, 1000.0, 1000.0};
  std::vector<double> ingress = {1000.0 * 1e-9, 1000.0, 1000.0, 1000.0};
  SolveMaxMinRates(&demands, &egress, &ingress);
  EXPECT_NEAR(demands[0].rate, 1e-6, 1e-6 * 1e-9);
  EXPECT_EQ(demands[0].bound, RateConstraint::kSenderEgress);
  EXPECT_NEAR(demands[1].rate, 1000.0 - 1e-6, 1e-6);
  EXPECT_EQ(demands[1].bound, RateConstraint::kReceiverIngress);
}

// The same nine-decade spread under equal share, on the replay's fabric
// (LinkFabric carries the capacity scales used by fault injection), with
// every reshare cross-checked against the full recompute.
TEST(Fabric, EqualShareRatesSpanningNineOrdersOfMagnitude) {
  FabricConfig cfg = BasicConfig(4);
  cfg.verify_reshare = true;
  LinkFabric fabric(cfg);
  fabric.SetHostCapacityScale(0, 1e-9, 1e-9);
  fabric.Enqueue(0, 1, 1e-6, 0.0);
  fabric.Enqueue(2, 3, 1000.0, 0.0);
  EXPECT_NEAR(fabric.LinkRate(0, 1), 1e-6, 1e-6 * 1e-9);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(2, 3), 1000.0);
}

// The progressive-filling non-progress guard is a hard failure in every
// build mode, never stale rates. Only non-finite inputs can trigger it.
using RateSharingDeathTest = ::testing::Test;

void SolveWithNanInputs() {
  std::vector<RateDemand> demands(1);
  demands[0].src = 0;
  demands[0].dst = 1;
  demands[0].cap = std::nan("");
  std::vector<double> egress = {std::nan(""), 1000.0};
  std::vector<double> ingress = {1000.0, std::nan("")};
  SolveMaxMinRates(&demands, &egress, &ingress);
}

TEST(RateSharingDeathTest, NanCapacityAbortsInsteadOfSilentBreak) {
  EXPECT_DEATH(SolveWithNanInputs(), "max-min filling made no progress");
}

}  // namespace
}  // namespace rdmajoin
