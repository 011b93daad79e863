#include "sim/fabric.h"

#include <algorithm>
#include <cassert>
#include <limits>

namespace rdmajoin {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
// Relative tolerance for "this flow finished at time t" comparisons.
constexpr double kTimeEps = 1e-12;
}  // namespace

Fabric::Fabric(const FabricConfig& config) : config_(config) {
  assert(config.Validate().ok());
  src_cnt_.assign(config_.num_hosts, 0);
  dst_cnt_.assign(config_.num_hosts, 0);
}

Fabric::FlowId Fabric::Inject(uint32_t src, uint32_t dst, double bytes, double now) {
  assert(src < config_.num_hosts && dst < config_.num_hosts);
  // An "empty message" has no meaning in a fluid byte-flow model.
  if (!(bytes > 0)) return kInvalidFlow;
  assert(now + kTimeEps >= now_ && "fabric time cannot move backwards");
  // Bring transfers up to date before the flow set changes. Completions that
  // come due are buffered and handed out by the next AdvanceTo call.
  if (now > now_) AdvanceTo(now, &pending_completions_);
  const FlowId id = next_id_++;
  flows_.push_back(Flow{id, src, dst, bytes, bytes, 0.0});
  RecomputeRates();
  return id;
}

double Fabric::NextCompletionTime() const {
  double best = kInf;
  for (const Completion& c : pending_completions_) best = std::min(best, c.time);
  for (const Flow& f : flows_) {
    if (f.rate > 0) best = std::min(best, now_ + f.remaining / f.rate);
  }
  for (const Completion& c : latency_) best = std::min(best, c.time);
  return best;
}

void Fabric::AdvanceTo(double t, std::vector<Completion>* completed) {
  assert(t + kTimeEps >= now_);
  if (t < now_) t = now_;
  if (!pending_completions_.empty() && completed != &pending_completions_) {
    completed->insert(completed->end(), pending_completions_.begin(),
                      pending_completions_.end());
    pending_completions_.clear();
  }
  // Advance in steps: each step ends at the earliest drain within [now_, t],
  // because draining a flow changes the rates of the others.
  while (true) {
    double next_drain = kInf;
    for (const Flow& f : flows_) {
      if (f.rate > 0) next_drain = std::min(next_drain, now_ + f.remaining / f.rate);
    }
    const double step_end = std::min(t, next_drain);
    const double dt = step_end - now_;
    if (dt > 0) {
      for (Flow& f : flows_) f.remaining -= f.rate * dt;
      now_ = step_end;
    }
    bool drained_any = false;
    if (next_drain <= t * (1 + kTimeEps) + kTimeEps) {
      for (size_t i = 0; i < flows_.size();) {
        Flow& f = flows_[i];
        // The second disjunct guarantees forward progress far from t=0: when
        // now_ is large enough that the residual's drain time rounds to now_
        // itself (now_ + eta == now_ in doubles), the clock cannot advance
        // past this flow, so it must drain now -- without this, a residual
        // above the size threshold but below one ulp of now_ spins the
        // advance loop forever.
        const bool done =
            f.rate > 0 && (f.remaining <= f.size * kTimeEps + 1e-9 * f.rate ||
                           now_ + f.remaining / f.rate <= now_);
        if (done) {
          latency_.push_back(Completion{f.id, now_ + config_.base_latency_seconds});
          flows_[i] = flows_.back();
          flows_.pop_back();
          drained_any = true;
        } else {
          ++i;
        }
      }
      if (drained_any) RecomputeRates();
    }
    if (!drained_any && step_end >= t) break;
    if (!drained_any && next_drain == kInf) {
      now_ = t;
      break;
    }
  }
  now_ = t;
  // Emit latency-stage completions due by t, in time order.
  std::vector<Completion> due;
  for (size_t i = 0; i < latency_.size();) {
    if (latency_[i].time <= t * (1 + kTimeEps) + kTimeEps) {
      due.push_back(latency_[i]);
      latency_[i] = latency_.back();
      latency_.pop_back();
    } else {
      ++i;
    }
  }
  std::sort(due.begin(), due.end(), [](const Completion& a, const Completion& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.id < b.id;
  });
  completed->insert(completed->end(), due.begin(), due.end());
}

void Fabric::RecomputeRates() {
  std::fill(src_cnt_.begin(), src_cnt_.end(), 0);
  std::fill(dst_cnt_.begin(), dst_cnt_.end(), 0);
  for (const Flow& f : flows_) {
    ++src_cnt_[f.src];
    ++dst_cnt_[f.dst];
  }
  const double egress = config_.EffectiveEgress();
  for (Flow& f : flows_) {
    const double e_share = egress / src_cnt_[f.src];
    const double i_share = config_.ingress_bytes_per_sec / dst_cnt_[f.dst];
    // A stream of messages of this size cannot exceed size * message_rate.
    const double cap = config_.message_rate_per_host > 0
                           ? f.size * config_.message_rate_per_host
                           : kInf;
    f.rate = std::min({e_share, i_share, cap});
  }
}

}  // namespace rdmajoin
