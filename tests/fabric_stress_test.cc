#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "sim/fabric.h"
#include "sim/link_fabric.h"

namespace rdmajoin {
namespace {

FabricConfig StressConfig(uint32_t hosts = 6) {
  FabricConfig config;
  config.num_hosts = hosts;
  config.egress_bytes_per_sec = 1000.0;
  config.ingress_bytes_per_sec = 800.0;
  config.message_rate_per_host = 0.0;
  config.base_latency_seconds = 1e-4;
  return config;
}

/// Checks the max-min invariants of one solve: every demand has a
/// non-negative rate, and the per-host egress/ingress rate sums stay within
/// capacity (modulo floating-point slack).
void CheckRateInvariants(const std::vector<RateDemand>& demands,
                         double egress_cap, double ingress_cap,
                         uint32_t num_hosts) {
  std::vector<double> egress(num_hosts, 0.0);
  std::vector<double> ingress(num_hosts, 0.0);
  for (const RateDemand& d : demands) {
    ASSERT_GE(d.rate, 0.0);
    ASSERT_FALSE(std::isnan(d.rate));
    egress[d.src] += d.rate;
    ingress[d.dst] += d.rate;
  }
  const double eps = 1e-6;
  for (uint32_t h = 0; h < num_hosts; ++h) {
    EXPECT_LE(egress[h], egress_cap * (1.0 + eps))
        << "egress over capacity at host " << h;
    EXPECT_LE(ingress[h], ingress_cap * (1.0 + eps))
        << "ingress over capacity at host " << h;
  }
}

/// Drives a fabric with a long randomized interleaving of Inject and
/// AdvanceTo calls and checks global invariants: completions arrive in
/// monotone time order and every injected flow completes exactly once (a
/// flow's bytes are delivered only by its completion).
void RunFabricStress(uint32_t seed) {
  const FabricConfig config = StressConfig();
  Fabric fabric(config);
  std::mt19937 rng(seed);
  std::uniform_int_distribution<uint32_t> host(0, config.num_hosts - 1);
  std::uniform_real_distribution<double> size(1.0, 5000.0);
  std::uniform_real_distribution<double> dt(0.0, 0.5);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  double now = 0.0;
  uint64_t injected_count = 0;
  double last_completion = 0.0;
  std::map<Fabric::FlowId, int> completions_of;  // per injected flow id
  std::vector<Fabric::Completion> done;
  uint64_t completed_count = 0;
  auto record = [&](const Fabric::Completion& c) {
    EXPECT_GE(c.time, last_completion) << "completion times not monotone";
    last_completion = c.time;
    ASSERT_EQ(completions_of.count(c.id), 1u) << "unknown flow id";
    ++completions_of[c.id];
    ++completed_count;
  };

  for (int step = 0; step < 2000; ++step) {
    if (coin(rng) < 0.6) {
      const uint32_t src = host(rng);
      uint32_t dst = host(rng);
      if (dst == src) dst = (dst + 1) % config.num_hosts;
      const Fabric::FlowId id = fabric.Inject(src, dst, size(rng), now);
      ASSERT_NE(id, Fabric::kInvalidFlow);
      completions_of[id] = 0;
      ++injected_count;
    } else {
      now += dt(rng);
      done.clear();
      fabric.AdvanceTo(now, &done);
      for (const Fabric::Completion& c : done) {
        EXPECT_LE(c.time, now);
        record(c);
      }
    }
  }

  // Drain everything that is still in flight.
  now += 1e6;
  done.clear();
  fabric.AdvanceTo(now, &done);
  for (const Fabric::Completion& c : done) record(c);
  EXPECT_EQ(fabric.NextCompletionTime(),
            std::numeric_limits<double>::infinity());
  EXPECT_EQ(completed_count, injected_count);
  for (const auto& [id, n] : completions_of) EXPECT_EQ(n, 1) << "flow " << id;
}

TEST(FabricStress, EqualShareConservesBytesAndOrdersCompletions) {
  RunFabricStress(1234);
  RunFabricStress(99);
}

/// Regression for the max-min accumulation bug: with many demands sharing a
/// port, the subtraction of per-demand rates from the residual capacities
/// accumulates floating-point error and used to drive the residuals
/// negative, which could then assign (tiny) negative rates. The solver
/// clamps residuals at zero; rates must never be negative and hosts must
/// never exceed capacity, at every demand-set size along a growing set.
TEST(FabricStress, MaxMinResidualsNeverGoNegative) {
  constexpr uint32_t kHosts = 8;
  // Capacities chosen to produce non-terminating binary fractions in the
  // per-demand shares, maximizing accumulation error.
  const double egress_cap = 1000.0 / 3.0;
  const double ingress_cap = 700.0 / 3.0;
  std::mt19937 rng(42);
  std::uniform_int_distribution<uint32_t> host(0, kHosts - 1);

  std::vector<RateDemand> demands;
  for (int i = 0; i < 300; ++i) {
    RateDemand d;
    d.src = host(rng);
    d.dst = host(rng);
    if (d.dst == d.src) d.dst = (d.dst + 1) % kHosts;
    d.cap = std::numeric_limits<double>::infinity();
    demands.push_back(d);
    std::vector<double> egress(kHosts, egress_cap);
    std::vector<double> ingress(kHosts, ingress_cap);
    SolveMaxMinRates(&demands, &egress, &ingress);
    CheckRateInvariants(demands, egress_cap, ingress_cap, kHosts);
    for (double left : egress) EXPECT_GE(left, 0.0);
    for (double left : ingress) EXPECT_GE(left, 0.0);
  }
}

TEST(FabricStress, LinkFabricRandomizedConservation) {
  const FabricConfig config = StressConfig(5);
  LinkFabric fabric(config);
  std::mt19937 rng(2024);
  std::uniform_int_distribution<uint32_t> host(0, config.num_hosts - 1);
  std::uniform_real_distribution<double> size(1.0, 3000.0);
  std::uniform_real_distribution<double> dt(0.0, 0.4);
  std::uniform_real_distribution<double> coin(0.0, 1.0);

  double now = 0.0;
  double injected_bytes = 0.0;
  uint64_t injected_count = 0;
  double last_completion = 0.0;
  uint64_t completed_count = 0;
  std::vector<LinkFabric::Completion> done;
  for (int step = 0; step < 1500; ++step) {
    if (coin(rng) < 0.6) {
      const uint32_t src = host(rng);
      uint32_t dst = host(rng);
      if (dst == src) dst = (dst + 1) % config.num_hosts;
      const double bytes = size(rng);
      ASSERT_NE(fabric.Enqueue(src, dst, bytes, now),
                LinkFabric::kInvalidMessage);
      injected_bytes += bytes;
      ++injected_count;
    } else {
      now += dt(rng);
      done.clear();
      fabric.AdvanceTo(now, &done);
      for (const LinkFabric::Completion& c : done) {
        EXPECT_GE(c.time, last_completion);
        EXPECT_LE(c.time, now);
        last_completion = c.time;
        ++completed_count;
      }
    }
  }
  done.clear();
  fabric.AdvanceTo(now + 1e6, &done);
  for (const LinkFabric::Completion& c : done) {
    EXPECT_GE(c.time, last_completion);
    last_completion = c.time;
    ++completed_count;
  }
  EXPECT_EQ(fabric.queued_messages(), 0u);
  EXPECT_EQ(completed_count, injected_count);
  EXPECT_NEAR(fabric.total_bytes_delivered(), injected_bytes,
              injected_bytes * 1e-9);
}

TEST(FabricStress, ZeroByteInjectIsRejectedInAllBuildModes) {
  const FabricConfig config = StressConfig(2);
  Fabric fabric(config);
  EXPECT_EQ(fabric.Inject(0, 1, 0.0, 0.0), Fabric::kInvalidFlow);
  EXPECT_EQ(fabric.Inject(0, 1, -5.0, 0.0), Fabric::kInvalidFlow);
  EXPECT_EQ(fabric.Inject(0, 1, std::nan(""), 0.0), Fabric::kInvalidFlow);
  EXPECT_EQ(fabric.NextCompletionTime(),
            std::numeric_limits<double>::infinity());
  std::vector<Fabric::Completion> done;
  fabric.AdvanceTo(1.0, &done);
  EXPECT_TRUE(done.empty());
  // A valid flow still goes through afterwards.
  EXPECT_NE(fabric.Inject(0, 1, 10.0, 1.0), Fabric::kInvalidFlow);
}

TEST(FabricStress, ZeroByteEnqueueIsRejectedInAllBuildModes) {
  const FabricConfig config = StressConfig(2);
  LinkFabric fabric(config);
  EXPECT_EQ(fabric.Enqueue(0, 1, 0.0, 0.0), LinkFabric::kInvalidMessage);
  EXPECT_EQ(fabric.Enqueue(0, 1, -1.0, 0.0), LinkFabric::kInvalidMessage);
  EXPECT_EQ(fabric.Enqueue(0, 1, std::nan(""), 0.0),
            LinkFabric::kInvalidMessage);
  EXPECT_EQ(fabric.queued_messages(), 0u);
  std::vector<LinkFabric::Completion> done;
  fabric.AdvanceTo(1.0, &done);
  EXPECT_TRUE(done.empty());
  EXPECT_EQ(fabric.messages_delivered(), 0u);
  EXPECT_NE(fabric.Enqueue(0, 1, 10.0, 1.0), LinkFabric::kInvalidMessage);
}

}  // namespace
}  // namespace rdmajoin
