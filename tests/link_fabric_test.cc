#include "sim/link_fabric.h"

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "sim/fabric.h"

namespace rdmajoin {
namespace {

FabricConfig BasicConfig(uint32_t hosts = 4) {
  FabricConfig f;
  f.num_hosts = hosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  f.message_rate_per_host = 0.0;
  f.congestion_bytes_per_sec_per_extra_host = 0.0;
  f.base_latency_seconds = 0.0;
  return f;
}

std::vector<LinkFabric::Completion> DrainAt(LinkFabric* fabric, double t) {
  std::vector<LinkFabric::Completion> done;
  fabric->AdvanceTo(t, &done);
  return done;
}

TEST(LinkFabric, SingleMessageAtFullBandwidth) {
  LinkFabric fabric(BasicConfig());
  const LinkFabric::MessageId id = fabric.Enqueue(0, 1, 500.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.NextCompletionTime(), 0.5);
  auto done = DrainAt(&fabric, 0.5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  EXPECT_DOUBLE_EQ(fabric.total_bytes_delivered(), 500.0);
}

TEST(LinkFabric, FifoOrderWithinOneLink) {
  LinkFabric fabric(BasicConfig());
  const LinkFabric::MessageId first = fabric.Enqueue(0, 1, 100.0, 0.0);
  const LinkFabric::MessageId second = fabric.Enqueue(0, 1, 100.0, 0.0);
  const LinkFabric::MessageId third = fabric.Enqueue(0, 1, 100.0, 0.0);
  auto done = DrainAt(&fabric, 10.0);
  ASSERT_EQ(done.size(), 3u);
  EXPECT_EQ(done[0].id, first);
  EXPECT_EQ(done[1].id, second);
  EXPECT_EQ(done[2].id, third);
  // Sequential service at full bandwidth: 0.1, 0.2, 0.3 seconds.
  EXPECT_NEAR(done[0].time, 0.1, 1e-9);
  EXPECT_NEAR(done[1].time, 0.2, 1e-9);
  EXPECT_NEAR(done[2].time, 0.3, 1e-9);
}

TEST(LinkFabric, TwoLinksFromOneHostShareEgress) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 500.0, 0.0);
  fabric.Enqueue(0, 2, 500.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 2), 500.0);
  auto done = DrainAt(&fabric, 1.0);
  EXPECT_EQ(done.size(), 2u);
}

TEST(LinkFabric, IngressSharedAcrossSenders) {
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 500.0, 0.0);
  fabric.Enqueue(2, 1, 500.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(2, 1), 500.0);
}

TEST(LinkFabric, DrainedLinkFreesBandwidth) {
  LinkFabric fabric(BasicConfig());
  const LinkFabric::MessageId id = fabric.Enqueue(0, 1, 250.0, 0.0);
  fabric.Enqueue(0, 2, 500.0, 0.0);
  auto done = DrainAt(&fabric, 0.5);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_EQ(done[0].id, id);
  // Remaining 250 bytes now run at 1000 B/s.
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 2), 1000.0);
  done = DrainAt(&fabric, 0.75);
  ASSERT_EQ(done.size(), 1u);
}

TEST(LinkFabric, SuccessiveMessagesDoNotChangeRates) {
  // A busy link keeps its rate when the head message completes and the next
  // starts (no set change).
  LinkFabric fabric(BasicConfig());
  fabric.Enqueue(0, 1, 100.0, 0.0);
  fabric.Enqueue(0, 2, 1000.0, 0.0);
  fabric.Enqueue(0, 1, 100.0, 0.0);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
  auto done = DrainAt(&fabric, 0.3);
  EXPECT_EQ(done.size(), 1u);
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 500.0);
}

TEST(LinkFabric, MessageRateCapBindsForSmallMessages) {
  FabricConfig f = BasicConfig();
  f.message_rate_per_host = 10.0;
  LinkFabric fabric(f);
  fabric.Enqueue(0, 1, 1.0, 0.0);  // Cap: 1 byte * 10/s = 10 B/s.
  EXPECT_DOUBLE_EQ(fabric.LinkRate(0, 1), 10.0);
}

TEST(LinkFabric, BaseLatencyShiftsCompletionTimes) {
  FabricConfig f = BasicConfig();
  f.base_latency_seconds = 0.25;
  LinkFabric fabric(f);
  fabric.Enqueue(0, 1, 1000.0, 0.0);
  auto done = DrainAt(&fabric, 1.0);
  EXPECT_TRUE(done.empty());
  done = DrainAt(&fabric, 1.25);
  ASSERT_EQ(done.size(), 1u);
  EXPECT_NEAR(done[0].time, 1.25, 1e-9);
}

TEST(LinkFabric, ConservesBytesUnderRandomTraffic) {
  FabricConfig f = BasicConfig(5);
  f.base_latency_seconds = 1e-3;
  LinkFabric fabric(f);
  uint64_t seed = 99;
  auto next = [&seed] {
    seed ^= seed >> 12;
    seed ^= seed << 25;
    seed ^= seed >> 27;
    return seed * UINT64_C(0x2545F4914F6CDD1D);
  };
  double injected = 0;
  double now = 0;
  std::vector<LinkFabric::Completion> done;
  for (int i = 0; i < 500; ++i) {
    const uint32_t src = next() % 5;
    uint32_t dst = next() % 5;
    if (dst == src) dst = (dst + 1) % 5;
    const double bytes = 1.0 + static_cast<double>(next() % 500);
    injected += bytes;
    fabric.Enqueue(src, dst, bytes, now);
    now += 1e-4 * static_cast<double>(next() % 20);
    fabric.AdvanceTo(now, &done);
  }
  fabric.AdvanceTo(now + 1e9, &done);
  EXPECT_EQ(done.size(), 500u);
  EXPECT_NEAR(fabric.total_bytes_delivered(), injected, injected * 1e-9);
  EXPECT_EQ(fabric.queued_messages(), 0u);
  for (size_t i = 1; i < done.size(); ++i) {
    EXPECT_LE(done[i - 1].time, done[i].time + 1e-9);
  }
}

TEST(LinkFabric, AggregateThroughputMatchesPerFlowFabric) {
  // All-to-all uniform traffic: the aggregated link model and the per-flow
  // model must drain the same volume in (nearly) the same time.
  const uint32_t hosts = 4;
  const double msg = 100.0;
  const int per_pair = 20;

  FabricConfig f = BasicConfig(hosts);
  LinkFabric links(f);
  Fabric flows(f);
  double injected = 0;
  for (uint32_t s = 0; s < hosts; ++s) {
    for (uint32_t d = 0; d < hosts; ++d) {
      if (s == d) continue;
      for (int i = 0; i < per_pair; ++i) {
        links.Enqueue(s, d, msg, 0.0);
        flows.Inject(s, d, msg, 0.0);
        injected += msg;
      }
    }
  }
  std::vector<LinkFabric::Completion> ld;
  std::vector<Fabric::Completion> fd;
  double t_links = 0, t_flows = 0;
  while (links.queued_messages() > 0) {
    t_links = links.NextCompletionTime();
    links.AdvanceTo(t_links, &ld);
  }
  while (std::isfinite(flows.NextCompletionTime())) {
    t_flows = flows.NextCompletionTime();
    flows.AdvanceTo(t_flows, &fd);
  }
  // Total per-host egress is 1000 B/s; each host sends 3*20*100 = 6000 bytes.
  EXPECT_NEAR(t_links, 6.0, 1e-6);
  EXPECT_NEAR(t_flows, 6.0, 1e-6);
}

}  // namespace
}  // namespace rdmajoin
