#include "sched/query_profile.h"

namespace rdmajoin {

QueryProfile BuildQueryProfile(const ClusterConfig& cluster,
                               const JoinConfig& config, const RunTrace& trace,
                               const std::string& label) {
  ReplayOptions options;
  options.spans.enabled = false;  // profile extraction needs no flight recorder
  const ReplayReport replay = ReplayTrace(cluster, config, trace, options);
  QueryProfile profile;
  profile.label = label;
  profile.solo_phases = replay.phases;
  profile.solo_seconds = replay.phases.TotalSeconds();
  for (size_t p = 0; p < kNumJoinPhases; ++p) {
    const uint32_t critical = replay.attribution.critical_machine[p];
    const PhaseAttribution& a =
        replay.attribution.machines[critical].phases[p];
    PhaseWork& w = profile.phases[p];
    // The critical machine's five buckets tile the global phase time
    // exactly (FinalizeAttribution), and its barrier wait is zero up to
    // rounding; folding that residual into the compute stage keeps
    // w.TotalSeconds() == solo phase time bit-for-bit.
    w.cpu_seconds = a.compute_seconds + a.barrier_wait_seconds;
    w.fault_seconds = a.fault_recovery_seconds;
    w.net_seconds = a.network_seconds;
    w.stall_seconds = a.buffer_stall_seconds;
  }
  return profile;
}

}  // namespace rdmajoin
