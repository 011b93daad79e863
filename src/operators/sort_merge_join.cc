#include "operators/sort_merge_join.h"

#include <algorithm>

#include "join/assignment.h"
#include "join/exchange.h"
#include "join/histogram.h"
#include "join/partitioner.h"
#include "operators/radix_sort.h"
#include "operators/sort_utils.h"
#include "transport/collectives.h"

namespace rdmajoin {

StatusOr<JoinRunResult> DistributedSortMergeJoin::Run(
    const DistributedRelation& inner, const DistributedRelation& outer) {
  RDMAJOIN_RETURN_IF_ERROR(cluster_.Validate());
  RDMAJOIN_RETURN_IF_ERROR(config_.Validate());
  const uint32_t nm = cluster_.num_machines;
  if (inner.chunks.size() != nm || outer.chunks.size() != nm) {
    return Status::InvalidArgument(
        "relations must be fragmented over exactly num_machines machines");
  }
  if (inner.tuple_bytes() != outer.tuple_bytes()) {
    return Status::InvalidArgument("relations must share one tuple width");
  }
  const uint32_t target_ranges = uint32_t{1} << config_.network_radix_bits;
  const double scale = config_.scale_up;
  auto virt = [scale](uint64_t actual) {
    return static_cast<uint64_t>(static_cast<double>(actual) * scale);
  };

  JoinRunResult result;
  result.trace.scale_up = scale;
  result.trace.transport = cluster_.transport;
  // Sorting replaces the local radix pass (no local_pass_bytes recorded).
  result.trace.machines.resize(nm);

  std::vector<MemorySpace> memories;
  memories.reserve(nm);
  for (uint32_t m = 0; m < nm; ++m) {
    memories.emplace_back(cluster_.memory_per_machine_bytes);
  }
  std::vector<std::unique_ptr<ScopedReservation>> reservations;
  for (uint32_t m = 0; m < nm; ++m) {
    reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    RDMAJOIN_RETURN_IF_ERROR(reservations[m]->Add(
        virt(inner.chunks[m].size_bytes() + outer.chunks[m].size_bytes())));
  }

  // ---- Phase 0: splitter selection + range histogram exchange. ----
  // Every machine contributes an evenly spaced sample of its outer chunk
  // (the larger relation dominates range balance); samples are all-gathered
  // and the quantiles become the range splitters.
  const uint64_t samples_per_machine = std::max<uint64_t>(16ull * target_ranges / nm,
                                                          256);
  std::vector<uint64_t> sample_pool;
  if (nm > 1) {
    auto collectives = CollectiveNetwork::Create(nm, samples_per_machine,
                                                 cluster_.costs, config_.validator);
    RDMAJOIN_RETURN_IF_ERROR(collectives.status());
    std::vector<std::vector<uint64_t>> contributions(nm);
    for (uint32_t m = 0; m < nm; ++m) {
      contributions[m] = SampleKeys(outer.chunks[m], samples_per_machine);
    }
    auto views = (*collectives)->AllGather(contributions);
    RDMAJOIN_RETURN_IF_ERROR(views.status());
    sample_pool = (*views)[0];  // Every machine holds the same pool.
  } else {
    sample_pool = SampleKeys(outer.chunks[0], samples_per_machine);
  }
  std::vector<uint64_t> splitters =
      SplittersFromSamples(std::move(sample_pool), target_ranges - 1);
  RangePartitioner partitioner(std::move(splitters));
  const uint32_t ranges = partitioner.num_partitions();

  // Range histograms (the analogue of the radix histograms of Section 4.1).
  GenericHistograms hist_r = ComputeHistogramsWith(inner, partitioner);
  GenericHistograms hist_s = ComputeHistogramsWith(outer, partitioner);
  const double port_bandwidth = cluster_.transport == TransportKind::kTcp
                                    ? cluster_.tcp.bytes_per_sec
                                    : cluster_.fabric.EffectiveEgress();
  const double exchange_seconds = CollectiveNetwork::ExchangeSeconds(
      nm,
      (2ull * ranges + samples_per_machine) * sizeof(uint64_t),
      port_bandwidth, cluster_.fabric.base_latency_seconds);
  for (uint32_t m = 0; m < nm; ++m) {
    result.trace.machines[m].histogram_bytes =
        inner.chunks[m].size_bytes() + outer.chunks[m].size_bytes();
    result.trace.machines[m].histogram_exchange_seconds = exchange_seconds;
  }

  // Contiguous ranges are dealt round-robin (or skew-aware) like partitions.
  std::vector<uint32_t> assignment;
  if (config_.assignment == AssignmentPolicy::kRoundRobin) {
    assignment = RoundRobinAssignment(ranges, nm);
  } else {
    std::vector<uint64_t> combined(ranges);
    for (uint32_t p = 0; p < ranges; ++p) {
      combined[p] = hist_r.global[p] + hist_s.global[p];
    }
    assignment = SkewAwareAssignment(combined, nm);
  }

  // ---- Phase 1: network range-partitioning pass. ----
  Exchange exchange(cluster_, config_, &partitioner, assignment,
                    {hist_r.global, hist_s.global});
  std::vector<MemorySpace*> memory_ptrs;
  std::vector<ScopedReservation*> reservation_ptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    memory_ptrs.push_back(&memories[m]);
    reservation_ptrs.push_back(reservations[m].get());
  }
  auto exchanged = exchange.Run({&inner, &outer}, memory_ptrs, reservation_ptrs,
                                &result.trace);
  RDMAJOIN_RETURN_IF_ERROR(exchanged.status());
  result.net.virtual_wire_bytes = exchanged->virtual_wire_bytes;
  result.net.messages_sent = exchanged->messages_sent;
  result.net.pool_buffers_created = exchanged->pool_buffers_created;
  result.net.pool_acquisitions = exchanged->pool_acquisitions;
  result.net.setup_registration_seconds = exchanged->max_setup_registration_seconds;

  // ---- Phase 2 + 3: local sort of each range, then merge join. ----
  for (uint32_t m = 0; m < nm; ++m) {
    MachineTrace& mt = result.trace.machines[m];
    for (uint32_t p = 0; p < ranges; ++p) {
      if (assignment[p] != m) continue;
      Relation& rp = exchanged->stores[m]->Rel(p, 0);
      Relation& sp = exchanged->stores[m]->Rel(p, 1);
      mt.sort_bytes += rp.size_bytes() + sp.size_bytes();
      RadixSortByKey(&rp);
      RadixSortByKey(&sp);
      mt.merge_tasks.push_back(
          static_cast<double>(rp.size_bytes() + sp.size_bytes()));
      MergeJoinSorted(rp, sp,
                      [&](uint64_t key, uint64_t inner_rid, uint64_t outer_rid) {
                        ++result.stats.matches;
                        result.stats.key_sum += key;
                        result.stats.inner_rid_sum += inner_rid;
                        if (config_.materialize_results) {
                          result.stats.pairs.emplace_back(inner_rid, outer_rid);
                        }
                      });
    }
  }

  result.replay = ReplayTrace(cluster_, config_, result.trace,
                              JoinReplayOptions(config_));
  result.times = result.replay.phases;
  return result;
}

}  // namespace rdmajoin
