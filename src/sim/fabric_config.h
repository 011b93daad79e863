#ifndef RDMAJOIN_SIM_FABRIC_CONFIG_H_
#define RDMAJOIN_SIM_FABRIC_CONFIG_H_

#include <cstdint>

#include "sim/rate_sharing.h"
#include "util/status.h"

namespace rdmajoin {

/// Observer of per-flow achieved-rate segments. LinkFabric reports one
/// segment per (flow, constant-rate interval): a new segment starts whenever
/// the equal-share reshare changes the flow's rate (another link activated
/// or drained) and ends when the flow itself drains. Consumers that want
/// "who shared my bottleneck, at what rate, when" (the span recorder in
/// src/timing/span_trace.h) stitch the segments back together by flow id.
/// Segments with dt == 0 are never reported.
class FlowTelemetry {
 public:
  virtual ~FlowTelemetry() = default;
  /// `flow_id` moved at `rate` bytes/sec from `t0` to `t1` (t1 > t0) between
  /// hosts `src` -> `dst`. `bound` names the fair-share constraint that was
  /// binding when the rate was assigned and `bound_host` the host owning it
  /// (src for egress/message-rate, dst for ingress) -- the reshare labels
  /// every flow, so rate > 0 implies bound != RateConstraint::kNone.
  virtual void OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst,
                             double t0, double t1, double rate,
                             RateConstraint bound, uint32_t bound_host) = 0;
};

/// Static description of a simulated switched network (one InfiniBand switch,
/// full bisection bandwidth, per-host port limits). Concurrent transfers
/// share a host's ports equally, as in the paper's model (Eq. 1: netMax
/// divided equally among the partitioning threads of a machine): every
/// active transfer from a host gets an equal share of its egress capacity
/// (and of the destination's ingress capacity), and the transfer's rate is
/// the minimum of the two shares and its message-rate cap.
struct FabricConfig {
  /// Number of hosts attached to the switch.
  uint32_t num_hosts = 2;
  /// Per-host egress port capacity in bytes/second (netMax of the paper).
  double egress_bytes_per_sec = 3.4e9;
  /// Per-host ingress port capacity in bytes/second.
  double ingress_bytes_per_sec = 3.4e9;
  /// Maximum message rate sustainable by a host channel adapter, in
  /// messages/second. A stream of size-S messages tops out at
  /// S * message_rate, which produces the small-message regime of Figure 3
  /// (bandwidth grows with message size until the port rate is reached).
  /// Zero disables the message-rate limit.
  double message_rate_per_host = 425000.0;
  /// Eq. 15 congestion term: every host beyond the first reduces the
  /// effective egress capacity of all hosts by this many bytes/second
  /// (observed on the paper's QDR cluster as 110 MB/s per added machine).
  double congestion_bytes_per_sec_per_extra_host = 0.0;
  /// Fixed latency added between a message fully draining from the source
  /// port and its completion being visible (propagation + switch + remote
  /// HCA processing).
  double base_latency_seconds = 2e-6;
  /// Cross-checks every incremental LinkFabric reshare against a full
  /// recompute (exact comparison; aborts with a diagnostic on mismatch).
  /// Defaults to on in assert-enabled (!NDEBUG) builds and off otherwise;
  /// the equivalence tests enable it explicitly in every build mode.
#ifndef NDEBUG
  bool verify_reshare = true;
#else
  bool verify_reshare = false;
#endif

  /// Effective per-host egress capacity after the congestion penalty.
  double EffectiveEgress() const {
    double eff = egress_bytes_per_sec -
                 congestion_bytes_per_sec_per_extra_host * (num_hosts - 1);
    return eff > 0 ? eff : 0.0;
  }

  /// Validates ranges (positive capacities, at least one host).
  Status Validate() const;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_SIM_FABRIC_CONFIG_H_
