#ifndef RDMAJOIN_SCHED_ADMISSION_H_
#define RDMAJOIN_SCHED_ADMISSION_H_

#include <cstddef>
#include <cstdint>
#include <deque>

namespace rdmajoin {

/// Limits the admission controller enforces at query arrival. Zero means
/// unlimited for every knob, so the default config admits everything
/// immediately (the single-query world).
struct AdmissionConfig {
  /// Maximum queries running (admitted, unfinished) at once.
  uint32_t max_concurrent = 0;
  /// Maximum queries waiting in the run queue; an arrival that finds the
  /// queue full is rejected outright (a first-class outcome, not an error).
  uint32_t max_queue_length = 0;
};

/// What happened to an arriving query.
enum class AdmissionOutcome : uint8_t { kAdmitted = 0, kQueued, kRejected };

/// Bounded run-queue with a concurrency limit. Deterministic and time-free:
/// the schedule engine owns the clock and calls OnArrival / OnComplete /
/// NextAdmittable in event order. Strict FIFO: an arrival never overtakes a
/// queued query.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config)
      : config_(config) {}

  /// Decides an arriving query's fate. kAdmitted reserves its slot
  /// immediately; kQueued parks it (in arrival order); kRejected leaves no
  /// state behind.
  AdmissionOutcome OnArrival(uint32_t query);

  /// Releases a running query's slot.
  void OnComplete();

  /// Pops the queue head if a slot is free, reserving it. Returns true and
  /// stores the query id; false when the queue is empty or every slot is
  /// taken. Call repeatedly after each OnComplete.
  bool NextAdmittable(uint32_t* query);

  uint32_t running() const { return running_; }
  size_t queue_length() const { return queue_.size(); }

 private:
  bool SlotFree() const;

  AdmissionConfig config_;
  uint32_t running_ = 0;
  std::deque<uint32_t> queue_;
};

}  // namespace rdmajoin

#endif  // RDMAJOIN_SCHED_ADMISSION_H_
