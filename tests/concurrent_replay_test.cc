#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "timing/replay.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

JoinRunResult RunOnce(const ClusterConfig& cluster, const JoinConfig& jc,
                      uint64_t seed) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 20000;
  spec.seed = seed;
  auto w = GenerateWorkload(spec, cluster.num_machines);
  EXPECT_TRUE(w.ok());
  auto result = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  EXPECT_TRUE(result.ok());
  return std::move(*result);
}

TEST(ConcurrentReplay, ValidatesInputs) {
  const ClusterConfig cluster = QdrCluster(3);
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  EXPECT_FALSE(ReplayConcurrent(cluster, jc, {}).ok());
  JoinRunResult a = RunOnce(cluster, jc, 1);
  RunTrace wrong = a.trace;
  wrong.machines.pop_back();
  EXPECT_FALSE(ReplayConcurrent(cluster, jc, {a.trace, wrong}).ok());
  RunTrace rescaled = a.trace;
  rescaled.scale_up *= 2;
  EXPECT_FALSE(ReplayConcurrent(cluster, jc, {a.trace, rescaled}).ok());
}

TEST(ConcurrentReplay, SingleTraceMatchesPlainReplay) {
  const ClusterConfig cluster = QdrCluster(3);
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  JoinRunResult a = RunOnce(cluster, jc, 1);
  auto concurrent = ReplayConcurrent(cluster, jc, {a.trace});
  ASSERT_TRUE(concurrent.ok());
  EXPECT_NEAR(concurrent->phases.TotalSeconds(), a.times.TotalSeconds(),
              1e-9 * a.times.TotalSeconds());
}

TEST(ConcurrentReplay, TwoQueriesInterfereButBeatSerialExecution) {
  const ClusterConfig cluster = QdrCluster(4);
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  JoinRunResult a = RunOnce(cluster, jc, 1);
  JoinRunResult b = RunOnce(cluster, jc, 2);
  auto both = ReplayConcurrent(cluster, jc, {a.trace, b.trace});
  ASSERT_TRUE(both.ok());
  const double solo = a.times.TotalSeconds();
  const double serial = a.times.TotalSeconds() + b.times.TotalSeconds();
  // Running together is slower than one query alone...
  EXPECT_GT(both->phases.TotalSeconds(), solo * 1.3);
  // ...but no slower than running them back to back (sharing overlaps the
  // phases' different bottlenecks; allow a small modeling margin).
  EXPECT_LE(both->phases.TotalSeconds(), serial * 1.05);
  // The barrier phases carry both queries' volume.
  EXPECT_NEAR(both->phases.local_partition_seconds,
              a.times.local_partition_seconds + b.times.local_partition_seconds,
              0.01 * serial);
}

TEST(ConcurrentReplay, NetworkContentionVisibleOnNetworkBoundCluster) {
  const ClusterConfig cluster = QdrCluster(8);
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  JoinRunResult a = RunOnce(cluster, jc, 3);
  JoinRunResult b = RunOnce(cluster, jc, 4);
  auto both = ReplayConcurrent(cluster, jc, {a.trace, b.trace});
  ASSERT_TRUE(both.ok());
  // On a network-bound cluster the combined network pass approaches the sum
  // of the individual passes (the wire cannot be shared for free).
  const double sum_net = a.times.network_partition_seconds +
                         b.times.network_partition_seconds;
  EXPECT_GT(both->phases.network_partition_seconds, 0.8 * sum_net);
}

// Q, the network pass's core time-sharing factor, is 1 + the highest query
// tag carried by a network thread. A query without network threads does not
// count when it is tagged last (nothing carries its tag), but still shifts
// the other queries' tags when it comes first.
TEST(ConcurrentReplay, QueryCountComesFromTheHighestNetworkTag) {
  const ClusterConfig cluster = QdrCluster(4);
  JoinConfig jc;
  jc.network_radix_bits = 5;
  jc.scale_up = 512.0;
  JoinRunResult a = RunOnce(cluster, jc, 1);
  RunTrace no_network = a.trace;
  for (MachineTrace& m : no_network.machines) m.net_threads.clear();

  auto last = ReplayConcurrent(cluster, jc, {a.trace, no_network});
  ASSERT_TRUE(last.ok());
  // Q = 1: a's threads keep the full partitioning rate, so its network pass
  // is replayed bit for bit.
  EXPECT_EQ(last->phases.network_partition_seconds,
            a.times.network_partition_seconds);
  // The barrier phases still carry both queries' bytes.
  EXPECT_GT(last->phases.local_partition_seconds,
            a.times.local_partition_seconds);

  auto first = ReplayConcurrent(cluster, jc, {no_network, a.trace});
  ASSERT_TRUE(first.ok());
  // Q = 2: a's threads are tagged 1 and run at half the partitioning rate.
  EXPECT_GT(first->phases.network_partition_seconds,
            a.times.network_partition_seconds);
  EXPECT_EQ(first->phases.local_partition_seconds,
            last->phases.local_partition_seconds);
}

}  // namespace
}  // namespace rdmajoin
