#include "sched/admission.h"

namespace rdmajoin {

bool AdmissionController::SlotFree() const {
  return config_.max_concurrent == 0 || running_ < config_.max_concurrent;
}

AdmissionOutcome AdmissionController::OnArrival(uint32_t query) {
  // FIFO: an arrival never overtakes queued queries even if a slot is free.
  if (queue_.empty() && SlotFree()) {
    ++running_;
    return AdmissionOutcome::kAdmitted;
  }
  if (config_.max_queue_length > 0 &&
      queue_.size() >= config_.max_queue_length) {
    return AdmissionOutcome::kRejected;
  }
  queue_.push_back(query);
  return AdmissionOutcome::kQueued;
}

void AdmissionController::OnComplete() {
  if (running_ > 0) --running_;
}

bool AdmissionController::NextAdmittable(uint32_t* query) {
  if (queue_.empty() || !SlotFree()) return false;
  *query = queue_.front();
  ++running_;
  queue_.pop_front();
  return true;
}

}  // namespace rdmajoin
