#ifndef RDMAJOIN_SCHED_QUERY_PROFILE_H_
#define RDMAJOIN_SCHED_QUERY_PROFILE_H_

#include <array>
#include <string>

#include "cluster/cluster.h"
#include "join/join_config.h"
#include "timing/attribution.h"
#include "timing/phase_times.h"
#include "timing/replay.h"
#include "timing/trace.h"

namespace rdmajoin {

/// What one join phase costs a query when it runs alone, split into the
/// scheduler's two resource stages. The fluid schedule engine
/// (sched/scheduler.h) models each phase as a compute stage (the cluster's
/// cores) followed by a network stage (the fabric): a query progressing at
/// share s burns solo-seconds of stage work at rate s.
struct PhaseWork {
  /// Compute stage: the solo critical machine's compute_seconds (plus its
  /// zero-up-to-rounding barrier_wait residual, folded in to keep the solo
  /// phase tiling exact).
  double cpu_seconds = 0;
  /// Compute-stage share attributable to injected faults (straggler
  /// slowdown); charged to the fault_recovery bucket pro rata.
  double fault_seconds = 0;
  /// Network stage: the solo critical machine's network_seconds.
  double net_seconds = 0;
  /// Network-stage share spent in credit back-pressure; charged to the
  /// buffer_stall bucket pro rata.
  double stall_seconds = 0;

  double ComputeStageSeconds() const { return cpu_seconds + fault_seconds; }
  double NetworkStageSeconds() const { return net_seconds + stall_seconds; }
  double TotalSeconds() const {
    return ComputeStageSeconds() + NetworkStageSeconds();
  }
};

/// A query's resource demand profile, extracted from a solo timing replay of
/// its captured trace. The per-phase stage works sum exactly to the solo
/// phase times (the critical machine's five attribution buckets tile the
/// global phase time by construction, and its barrier wait is zero), so a
/// schedule that runs the query alone at full shares reproduces the solo
/// makespan exactly.
struct QueryProfile {
  std::string label;
  /// Indexed by JoinPhase.
  std::array<PhaseWork, kNumJoinPhases> phases;
  /// Global phase times of the solo replay.
  PhaseTimes solo_phases;
  /// Solo makespan (solo_phases.TotalSeconds()).
  double solo_seconds = 0;
};

/// Replays `trace` solo against the cluster model and distills the
/// scheduler-facing profile. The replay itself (spans, attribution) is
/// discarded; callers wanting it should run ReplayTrace themselves.
QueryProfile BuildQueryProfile(const ClusterConfig& cluster,
                               const JoinConfig& config, const RunTrace& trace,
                               const std::string& label);

}  // namespace rdmajoin

#endif  // RDMAJOIN_SCHED_QUERY_PROFILE_H_
