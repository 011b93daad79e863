#ifndef RDMAJOIN_TIMING_REPLAY_H_
#define RDMAJOIN_TIMING_REPLAY_H_

#include <memory>
#include <vector>

#include "cluster/cluster.h"
#include "join/join_config.h"
#include "timing/attribution.h"
#include "timing/phase_times.h"
#include "timing/span_trace.h"
#include "timing/trace.h"
#include "util/statusor.h"

namespace rdmajoin {

class MetricsRegistry;

/// Optional knobs for the timing replay.
struct ReplayOptions {
  /// When non-null, the replay records observability metrics into this
  /// registry: per-host fabric utilization and delivery counters under
  /// "fabric." (see LinkFabric::EnableMetrics) and per-machine phase-time
  /// gauges under "join.machine<m>.<phase>_seconds".
  MetricsRegistry* metrics = nullptr;
  /// Bucket width of the per-host fabric activity timelines.
  double utilization_bucket_seconds = 0.01;
  /// Causal span recording (timing/span_trace.h). On by default: every send
  /// of the network pass gets a lifecycle span and the fabric reports
  /// per-flow rate segments, into a byte-bounded flight recorder published
  /// as ReplayReport::spans. Recording is passive -- it never changes any
  /// replayed time. Set spans.enabled = false to switch it off.
  SpanConfig spans;
  /// External recorder to use instead of an internally created one (e.g. a
  /// recorder already attached to the execution layer's devices, so
  /// replay-time spans and exec-layer counts land in one dataset). Must
  /// outlive the returned report; overrides `spans` when set.
  SpanRecorder* span_recorder = nullptr;
};

/// The replay options an operator run uses: metrics, span switch and
/// external recorder taken from `config` (JoinConfig::metrics, enable_spans,
/// span_recorder).
ReplayOptions JoinReplayOptions(const JoinConfig& config);

/// Outputs of the discrete-event timing replay.
struct ReplayReport {
  PhaseTimes phases;
  /// Per-machine phase times. The barrier-synchronized `phases` above are the
  /// per-phase maxima of these; the per-machine values show the skew a
  /// Chrome trace visualizes (one timeline row per machine).
  std::vector<PhaseTimes> machine_phases;
  /// Seconds each machine's receiver core spent copying incoming two-sided
  /// messages during the network pass.
  std::vector<double> receiver_busy_seconds;
  /// When each machine's partitioning threads finished computing (max over
  /// threads), network pass only.
  std::vector<double> net_thread_finish_seconds;
  /// Completion time of the last in-flight message.
  double last_completion_seconds = 0;
  /// Average rate at which wire bytes drained during the network pass.
  double avg_network_rate_bytes_per_sec = 0;
  /// Critical-path attribution: per machine and phase, the wall-clock split
  /// into compute / network / buffer-stall / barrier-wait, plus the
  /// critical-machine chain (timing/attribution.h). The components sum to
  /// the global phase times exactly.
  AttributionReport attribution;
  /// The span recorder that observed the network pass (null when disabled).
  /// Query with timing/span_query.h or export via SpanDatasetToJson. Points
  /// at ReplayOptions::span_recorder when one was supplied.
  std::shared_ptr<SpanRecorder> spans;
};

/// Replays an execution trace against the cluster's cost and network models
/// and returns virtual full-scale phase times.
///
/// The network partitioning pass is simulated event by event: each
/// partitioning thread advances along its compute timeline at psPart,
/// posts its recorded sends into a fluid-flow fabric, and blocks when the
/// double-buffering credits of a partition slot are exhausted (or, in the
/// non-interleaved variant, after every send). Receiver cores service
/// incoming messages FIFO at the memcpy rate. The histogram, local
/// partitioning and build/probe phases are barrier-synchronized compute
/// phases evaluated per machine (build/probe via LPT scheduling of the
/// recorded tasks).
///
/// When `config.fault_injector` is set and active, the replay applies its
/// scheduled link-capacity windows to the fabric (degradations and flaps
/// land on the discrete-event clock as rate transitions), slows straggler
/// machines' compute timelines, and shrinks the double-buffering credit
/// supply inside credit windows. No injector, or an inactive one, leaves
/// every replayed time byte-identical to an injector-free run.
///
/// A merged multi-query trace (ReplayConcurrent) with Q = 1 + the largest
/// ThreadNetTrace::query tag runs each network-pass thread at 1/Q of the
/// partitioning rate; every other phase runs at full rate on the summed
/// bytes.
ReplayReport ReplayTrace(const ClusterConfig& cluster, const JoinConfig& config,
                         const RunTrace& trace,
                         const ReplayOptions& options = ReplayOptions());

/// Replays several independently-captured traces as if their operators ran
/// concurrently on one cluster (the co-scheduling question the paper's
/// Section 7 leaves open). Merges the traces per machine, tags each query's
/// network threads with its index, and replays the merged trace once with
/// ReplayTrace: in the network pass every machine's cores are time-shared
/// fairly across the queries while all traffic contends in one fabric and
/// one receiver core services the combined message stream; the barrier
/// phases process the summed bytes at full rate. Returns the phase times of
/// the combined workload, i.e. when the last query finishes each phase.
///
/// All traces must have the same machine count and scale factor.
StatusOr<ReplayReport> ReplayConcurrent(const ClusterConfig& cluster,
                                        const JoinConfig& config,
                                        const std::vector<RunTrace>& traces,
                                        const ReplayOptions& options = ReplayOptions());

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_REPLAY_H_
