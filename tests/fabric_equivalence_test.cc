// Differential tests for LinkFabric's incremental reshare. The seeded
// schedules (enqueues, advances and fault-injection capacity changes) run
// with verify_reshare=true, so every reshare is cross-checked against the
// full-recompute oracle inside the fabric itself (exact comparison, abort
// on mismatch) in every build mode, not just !NDEBUG. A second run of the
// same schedule with the check off must produce the identical completion,
// rate and segment streams: the oracle may only ever abort, never change
// the output.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>
#include <vector>

#include "sim/link_fabric.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

constexpr uint32_t kHosts = 6;

// Raw segment log: no merging, so both paths must emit the same sequence.
struct Seg {
  uint64_t flow;
  uint32_t src;
  uint32_t dst;
  double t0;
  double t1;
  double rate;
  RateConstraint bound;
  uint32_t bound_host;
};

class SegmentLog : public FlowTelemetry {
 public:
  void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst, double t0,
                     double t1, double rate, RateConstraint bound,
                     uint32_t bound_host) override {
    segs.push_back(Seg{flow_id, src, dst, t0, t1, rate, bound, bound_host});
  }
  std::vector<Seg> segs;
};

FabricConfig EquivConfig(bool verify) {
  FabricConfig f;
  f.num_hosts = kHosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  // A binding per-message cap exercises the LinkFabric head-pop fast path.
  f.message_rate_per_host = 5.0;
  f.base_latency_seconds = 1e-6;
  // Set explicitly: the default is on only in !NDEBUG builds.
  f.verify_reshare = verify;
  return f;
}

// One seeded schedule over the link-queue model (the replay hot path): FIFO
// link queues, head pops, the O(1) message-rate-cap refresh, and capacity
// faults. Identical RNG consumption on every call, so two fabrics fed the
// same seed see the same operations at the same virtual times.
struct LinkRun {
  std::vector<LinkFabric::Completion> completions;
  std::vector<double> rate_probes;
  std::vector<Seg> segments;
};

LinkRun RunLinkSchedule(bool verify, uint64_t seed) {
  LinkFabric fabric(EquivConfig(verify));
  SegmentLog log;
  fabric.EnableFlowTelemetry(&log);
  Random rng(seed);
  LinkRun run;
  double t = 0.0;
  size_t enqueued = 0;
  for (int i = 0; i < 400; ++i) {
    const uint64_t op = rng.Uniform(10);
    if (op < 6) {
      const uint32_t src = static_cast<uint32_t>(rng.Uniform(kHosts));
      uint32_t dst = static_cast<uint32_t>(rng.Uniform(kHosts));
      if (dst == src) dst = (dst + 1) % kHosts;
      const double bytes = (1.0 + static_cast<double>(rng.Uniform(1000))) *
                           std::pow(10.0, static_cast<double>(rng.Uniform(3)));
      fabric.Enqueue(src, dst, bytes, t);
      ++enqueued;
    } else if (op < 8) {
      const double nc = fabric.NextCompletionTime();
      t = std::isfinite(nc) ? nc : t + 0.001;
      fabric.AdvanceTo(t, &run.completions);
    } else if (op == 8) {
      t += rng.NextDouble() * 0.01;
      fabric.AdvanceTo(t, &run.completions);
    } else {
      static const double kScales[] = {1.0, 0.5, 1e-9, 2.0};
      const uint32_t host = static_cast<uint32_t>(rng.Uniform(kHosts));
      fabric.SetHostCapacityScale(host, kScales[rng.Uniform(4)],
                                  kScales[rng.Uniform(4)]);
    }
    for (uint32_t s = 0; s < kHosts; ++s) {
      for (uint32_t d = 0; d < kHosts; ++d) {
        run.rate_probes.push_back(fabric.LinkRate(s, d));
      }
    }
  }
  for (uint32_t h = 0; h < kHosts; ++h) fabric.SetHostCapacityScale(h, 1.0, 1.0);
  fabric.AdvanceTo(t + 1e9, &run.completions);
  EXPECT_EQ(fabric.queued_messages(), 0u);
  EXPECT_EQ(run.completions.size(), enqueued);
  run.segments = std::move(log.segs);
  return run;
}

void ExpectLinkRunsMatch(const LinkRun& x, const LinkRun& y) {
  ASSERT_EQ(x.completions.size(), y.completions.size());
  for (size_t i = 0; i < x.completions.size(); ++i) {
    EXPECT_EQ(x.completions[i].id, y.completions[i].id) << "completion " << i;
    EXPECT_EQ(x.completions[i].time, y.completions[i].time) << "completion " << i;
  }
  ASSERT_EQ(x.rate_probes.size(), y.rate_probes.size());
  for (size_t i = 0; i < x.rate_probes.size(); ++i) {
    EXPECT_EQ(x.rate_probes[i], y.rate_probes[i]) << "rate probe " << i;
  }
  ASSERT_EQ(x.segments.size(), y.segments.size());
  for (size_t i = 0; i < x.segments.size(); ++i) {
    const Seg& a = x.segments[i];
    const Seg& b = y.segments[i];
    EXPECT_EQ(a.flow, b.flow) << "segment " << i;
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(RateConstraintName(a.bound), RateConstraintName(b.bound))
        << "segment " << i;
    EXPECT_EQ(a.bound_host, b.bound_host) << "segment " << i;
    EXPECT_EQ(a.t0, b.t0) << "segment " << i;
    EXPECT_EQ(a.t1, b.t1) << "segment " << i;
    EXPECT_EQ(a.rate, b.rate) << "segment " << i;
  }
}

TEST(LinkFabricEquivalence, EqualShareIncrementalIsByteIdentical) {
  for (uint64_t seed : {1u, 7u, 42u, 1234u}) {
    LinkRun verified = RunLinkSchedule(/*verify=*/true, seed);
    LinkRun plain = RunLinkSchedule(/*verify=*/false, seed);
    ExpectLinkRunsMatch(verified, plain);
  }
}

// The incremental reshare must also do little work: on an all-to-all
// pattern with deep, desynchronized queues, each head pop touches one link
// on the O(1) path. Recomputing every active link on each of this
// schedule's 3,235 reshares assigns 76,049 link rates; the incremental
// reshare must stay below a quarter of that (it assigns 8,100).
TEST(LinkFabricEquivalence, IncrementalReducesResharedLinkAssignments) {
  LinkFabric inc(EquivConfig(/*verify=*/false));
  double t = 0.0;
  std::vector<LinkFabric::Completion> done;
  for (int round = 0; round < 10; ++round) {
    uint32_t li = 0;
    for (uint32_t s = 0; s < kHosts; ++s) {
      for (uint32_t d = 0; d < kHosts; ++d) {
        if (s == d) continue;
        // Deep queues with per-link distinct sizes: head pops desynchronize.
        for (int k = 0; k < 10; ++k) {
          inc.Enqueue(s, d, 100.0 + 13.0 * li + 7.0 * k, t);
        }
        ++li;
      }
    }
    t += 1e9;  // Drain everything.
    inc.AdvanceTo(t, &done);
  }
  ASSERT_EQ(done.size(), 10u * kHosts * (kHosts - 1) * 10u);
  EXPECT_LT(inc.reshared_links(), 76049u / 4);
}

}  // namespace
}  // namespace rdmajoin
