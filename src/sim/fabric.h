#ifndef RDMAJOIN_SIM_FABRIC_H_
#define RDMAJOIN_SIM_FABRIC_H_

#include <cstdint>
#include <vector>

#include "sim/fabric_config.h"

namespace rdmajoin {

/// Per-flow fluid model of point-to-point transfers: the Figure 3 model
/// (bench/fig03_bandwidth.cc). Every injected message is an independent
/// flow; after each injection or drain all flows get their equal-share rate
/// (FabricConfig) recomputed from scratch. The caller owns the virtual clock
/// and drives the fabric with Inject / NextCompletionTime / AdvanceTo.
///
/// The join replay does not use this class: it runs LinkFabric, which serves
/// one FIFO queue per link. The two differ for a window of small messages on
/// one link -- here every in-flight message runs at its own message-rate
/// cap, there the link serves them one after another -- and so give
/// different small-message halves of Figure 3.
class Fabric {
 public:
  using FlowId = uint64_t;
  static constexpr FlowId kInvalidFlow = 0;

  struct Completion {
    FlowId id;
    double time;
  };

  explicit Fabric(const FabricConfig& config);
  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  /// Injects a message of `bytes` bytes from `src` to `dst` at virtual time
  /// `now` (must be >= the last time passed to AdvanceTo/Inject). Returns the
  /// flow id, which the completion carries.
  ///
  /// `bytes` must be positive: a zero-byte (or negative, or NaN) message is
  /// rejected with kInvalidFlow in every build mode and no flow is created.
  FlowId Inject(uint32_t src, uint32_t dst, double bytes, double now);

  /// Earliest tentative completion time under current rates; +infinity if no
  /// flow is active or in its latency stage.
  double NextCompletionTime() const;

  /// Advances all transfers to virtual time `t` and appends messages that
  /// completed at or before `t` to `*completed` in completion-time order.
  /// `t` must be >= the current fabric time.
  void AdvanceTo(double t, std::vector<Completion>* completed);

 private:
  struct Flow {
    FlowId id;
    uint32_t src;
    uint32_t dst;
    double remaining;  // bytes
    double size;       // original bytes
    double rate;       // bytes/sec, assigned at last recompute
  };

  /// Assigns every flow its equal-share rate from freshly counted per-host
  /// flow numbers.
  void RecomputeRates();

  FabricConfig config_;
  /// Per-host active-flow counts, rebuilt by every RecomputeRates.
  std::vector<uint32_t> src_cnt_;
  std::vector<uint32_t> dst_cnt_;
  double now_ = 0.0;
  FlowId next_id_ = 1;
  std::vector<Flow> flows_;
  /// Drained flows still within base latency.
  std::vector<Completion> latency_;
  // Completions that came due while Inject advanced the clock; delivered on
  // the next AdvanceTo call.
  std::vector<Completion> pending_completions_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_SIM_FABRIC_H_
