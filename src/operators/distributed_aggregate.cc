#include "operators/distributed_aggregate.h"

#include <algorithm>
#include <unordered_map>
#include <utility>
#include <vector>

#include "join/assignment.h"
#include "join/exchange.h"
#include "join/histogram.h"
#include "join/partitioner.h"
#include "transport/collectives.h"

namespace rdmajoin {

StatusOr<AggregateRunResult> DistributedAggregate::Run(
    const DistributedRelation& input) {
  RDMAJOIN_RETURN_IF_ERROR(cluster_.Validate());
  RDMAJOIN_RETURN_IF_ERROR(config_.Validate());
  const uint32_t nm = cluster_.num_machines;
  if (input.chunks.size() != nm) {
    return Status::InvalidArgument(
        "input must be fragmented over exactly num_machines machines");
  }
  const uint32_t b1 = config_.network_radix_bits;
  const uint32_t parts = uint32_t{1} << b1;
  const double scale = config_.scale_up;
  auto virt = [scale](uint64_t actual) {
    return static_cast<uint64_t>(static_cast<double>(actual) * scale);
  };

  AggregateRunResult result;
  result.trace.scale_up = scale;
  result.trace.transport = cluster_.transport;
  // Aggregation consumes partitions directly: no local pass is recorded.
  result.trace.machines.resize(nm);

  std::vector<MemorySpace> memories;
  memories.reserve(nm);
  for (uint32_t m = 0; m < nm; ++m) {
    memories.emplace_back(cluster_.memory_per_machine_bytes);
  }
  std::vector<std::unique_ptr<ScopedReservation>> reservations;
  for (uint32_t m = 0; m < nm; ++m) {
    reservations.push_back(std::make_unique<ScopedReservation>(&memories[m]));
    RDMAJOIN_RETURN_IF_ERROR(
        reservations[m]->Add(virt(input.chunks[m].size_bytes())));
  }

  // Histogram + control-plane exchange.
  RelationHistograms hist = ComputeHistograms(input, b1);
  if (nm > 1) {
    auto collectives = CollectiveNetwork::Create(nm, parts, cluster_.costs,
                                                 config_.validator);
    RDMAJOIN_RETURN_IF_ERROR(collectives.status());
    auto reduced = (*collectives)->AllReduceSum(hist.per_machine);
    RDMAJOIN_RETURN_IF_ERROR(reduced.status());
    hist.global = *reduced;
  }
  const double port_bandwidth = cluster_.transport == TransportKind::kTcp
                                    ? cluster_.tcp.bytes_per_sec
                                    : cluster_.fabric.EffectiveEgress();
  const double exchange_seconds = CollectiveNetwork::ExchangeSeconds(
      nm, parts * sizeof(uint64_t), port_bandwidth,
      cluster_.fabric.base_latency_seconds);
  for (uint32_t m = 0; m < nm; ++m) {
    result.trace.machines[m].histogram_bytes = input.chunks[m].size_bytes();
    result.trace.machines[m].histogram_exchange_seconds = exchange_seconds;
  }

  std::vector<uint32_t> assignment;
  if (config_.assignment == AssignmentPolicy::kRoundRobin) {
    assignment = RoundRobinAssignment(parts, nm);
  } else {
    assignment = SkewAwareAssignment(hist.global, nm);
  }

  // Network pass: one input relation.
  RadixPartitioner partitioner(b1);
  Exchange exchange(cluster_, config_, &partitioner, assignment, {hist.global});
  std::vector<MemorySpace*> memory_ptrs;
  std::vector<ScopedReservation*> reservation_ptrs;
  for (uint32_t m = 0; m < nm; ++m) {
    memory_ptrs.push_back(&memories[m]);
    reservation_ptrs.push_back(reservations[m].get());
  }
  auto exchanged = exchange.Run({&input}, memory_ptrs, reservation_ptrs,
                                &result.trace);
  RDMAJOIN_RETURN_IF_ERROR(exchanged.status());
  result.messages_sent = exchanged->messages_sent;
  result.virtual_wire_bytes = exchanged->virtual_wire_bytes;

  // Machine-local hash aggregation of each assigned partition.
  for (uint32_t m = 0; m < nm; ++m) {
    MachineTrace& mt = result.trace.machines[m];
    Relation output_chunk(kNarrowTupleBytes);
    for (uint32_t p = 0; p < parts; ++p) {
      if (assignment[p] != m) continue;
      const Relation& part = exchanged->stores[m]->Rel(p, 0);
      if (part.empty()) continue;
      // The aggregation table is built once per partition at build speed;
      // no probe side exists.
      mt.tasks.push_back(BuildProbeTask{static_cast<double>(part.size_bytes()), 0.0,
                                        static_cast<double>(part.size_bytes())});
      std::unordered_map<uint64_t, std::pair<uint64_t, uint64_t>> groups;
      groups.reserve(part.num_tuples());
      for (uint64_t i = 0; i < part.num_tuples(); ++i) {
        auto& [count, sum] = groups[part.Key(i)];
        ++count;
        sum += part.Rid(i);
      }
      // Emit groups in ascending key order: the materialized output feeds
      // byte-compared artifacts, so the hash table's iteration order must
      // not reach it (the determinism contract, docs/correctness.md).
      std::vector<std::pair<uint64_t, std::pair<uint64_t, uint64_t>>> sorted;
      sorted.reserve(groups.size());
      // lint: order-insensitive(drained into a vector and sorted by key below)
      for (const auto& [key, agg] : groups) sorted.emplace_back(key, agg);
      std::sort(sorted.begin(), sorted.end(),
                [](const auto& a, const auto& b) { return a.first < b.first; });
      for (const auto& [key, agg] : sorted) {
        ++result.stats.groups;
        result.stats.total_count += agg.first;
        result.stats.value_sum += agg.second;
        result.stats.group_key_sum += key;
        if (config_.materialize_results) output_chunk.Append(key, agg.second);
      }
    }
    if (config_.materialize_results) {
      mt.materialized_bytes = output_chunk.size_bytes();
      result.output.chunks.push_back(std::move(output_chunk));
    }
  }

  result.replay = ReplayTrace(cluster_, config_, result.trace,
                              JoinReplayOptions(config_));
  result.times = result.replay.phases;
  return result;
}

}  // namespace rdmajoin
