#include "timing/span_trace.h"

#include <algorithm>
#include <cmath>
#include <string_view>
#include <type_traits>

#include "util/json.h"
#include "util/logging.h"

namespace rdmajoin {

namespace {

// Byte budget split between the two rings: spans are the primary product,
// segments the supporting telemetry.
constexpr double kSpanBudgetShare = 0.5;
// Floors keep tiny budgets usable (and the rings non-empty).
constexpr size_t kMinRingEntries = 64;

size_t RingCapacity(uint64_t budget_bytes, size_t entry_bytes) {
  const size_t n = static_cast<size_t>(budget_bytes / entry_bytes);
  return n < kMinRingEntries ? kMinRingEntries : n;
}

int OpIndex(WorkCompletion::Op op) { return static_cast<int>(op); }

/// Reads one scalar field of the tolerant span reader. null -- how
/// JsonNumber writes a non-finite value -- reads as absent, keeping the
/// field's default; a value of another kind is an error.
template <typename T>
Status ReadField(JsonReader* r, std::string_view key, T* out) {
  if (r->Peek() == 'n') return r->ReadNull();
  if constexpr (std::is_same_v<T, bool>) {
    return r->ReadBool(out);
  } else if constexpr (std::is_integral_v<T>) {
    return r->ReadInteger(key, out);
  } else {
    return r->ReadNumber(out);
  }
}

/// Reads an array of objects into `*out`, each member through `read_member`.
template <typename T>
Status ReadObjects(JsonReader* r, std::vector<T>* out,
                   Status (*read_member)(JsonReader*, std::string_view, T*)) {
  return r->ReadArray(out, [read_member](JsonReader* r, T* item) {
    return r->ForEachMember([&](std::string_view key) { return read_member(r, key, item); });
  });
}

/// A device's per-opcode counts: exactly four integers. Marks `bit` in
/// `*seen`.
Status ReadOpCounts(JsonReader* r, std::string_view key, uint64_t (*c)[4],
                    int bit, int* seen) {
  size_t n = 0;
  RDMAJOIN_RETURN_IF_ERROR(r->ForEachItem([&] {
    return n < 4 ? ReadField(r, key, &(*c)[n++])
                 : r->Error("more than 4 opcode counts");
  }));
  if (n != 4) {
    return Status::InvalidArgument("span JSON: bad \"" + std::string(key) +
                                   "\" opcode array");
  }
  *seen |= bit;
  return Status::OK();
}

Status ReadSpanMember(JsonReader* r, std::string_view key, WrSpan* s) {
  if (key == "id") return ReadField(r, key, &s->id);
  if (key == "machine") return ReadField(r, key, &s->machine);
  if (key == "thread") return ReadField(r, key, &s->thread);
  if (key == "slot") return ReadField(r, key, &s->slot);
  if (key == "src") return ReadField(r, key, &s->src);
  if (key == "dst") return ReadField(r, key, &s->dst);
  if (key == "wire_bytes") return ReadField(r, key, &s->wire_bytes);
  if (key == "flow") return ReadField(r, key, &s->flow);
  if (key == "pull") return ReadField(r, key, &s->pull);
  for (int i = 0; i < kNumSpanStages; ++i) {
    if (key == SpanStageName(static_cast<SpanStage>(i))) {
      return ReadField(r, key, &s->stage[i]);
    }
  }
  if (key == "recv_start") return ReadField(r, key, &s->recv_start);
  if (key == "recv_end") return ReadField(r, key, &s->recv_end);
  if (key == "retries") return ReadField(r, key, &s->retries);
  if (key == "retry_delay_seconds") return ReadField(r, key, &s->retry_delay_seconds);
  return r->SkipValue();
}

Status ReadSegmentMember(JsonReader* r, std::string_view key, FlowSegment* g) {
  if (key == "flow") return ReadField(r, key, &g->flow);
  if (key == "src") return ReadField(r, key, &g->src);
  if (key == "dst") return ReadField(r, key, &g->dst);
  if (key == "t0") return ReadField(r, key, &g->t0);
  if (key == "t1") return ReadField(r, key, &g->t1);
  if (key == "rate") return ReadField(r, key, &g->rate);
  if (key == "bound_host") return ReadField(r, key, &g->bound_host);
  if (key != "bound") return r->SkipValue();
  // v1 documents have no "bound": segments default to kNone. In v2
  // documents an unknown name is a schema violation, not a default.
  std::string name;
  RDMAJOIN_RETURN_IF_ERROR(r->ReadString(&name));
  if (!ParseRateConstraintName(name, &g->bound)) {
    return Status::InvalidArgument("span JSON: unknown segment bound \"" +
                                   name + "\"");
  }
  return Status::OK();
}

Status ReadThreadMember(JsonReader* r, std::string_view key, ThreadMark* t) {
  if (key == "machine") return ReadField(r, key, &t->machine);
  if (key == "thread") return ReadField(r, key, &t->thread);
  if (key == "finish_seconds") return ReadField(r, key, &t->finish_seconds);
  if (key == "compute_seconds") return ReadField(r, key, &t->compute_seconds);
  if (key == "credit_stall_seconds") return ReadField(r, key, &t->credit_stall_seconds);
  if (key == "flow_stall_seconds") return ReadField(r, key, &t->flow_stall_seconds);
  if (key == "fault_recovery_seconds") {
    return ReadField(r, key, &t->fault_recovery_seconds);
  }
  return r->SkipValue();
}

/// A device object; every one carries all three opcode arrays.
Status ReadDevice(JsonReader* r, ExecDeviceCounts* d) {
  int seen = 0;
  RDMAJOIN_RETURN_IF_ERROR(r->ForEachMember([&](std::string_view key) {
    if (key == "device") return ReadField(r, key, &d->device);
    if (key == "posted") return ReadOpCounts(r, key, &d->posted, 1, &seen);
    if (key == "completed") return ReadOpCounts(r, key, &d->completed, 2, &seen);
    if (key == "polled") return ReadOpCounts(r, key, &d->polled, 4, &seen);
    if (key == "failed_completions") return ReadField(r, key, &d->failed_completions);
    if (key == "buffers_acquired") return ReadField(r, key, &d->buffers_acquired);
    if (key == "buffers_released") return ReadField(r, key, &d->buffers_released);
    return r->SkipValue();
  }));
  if (seen != 7) {
    return Status::InvalidArgument("span JSON: device without an opcode array");
  }
  return Status::OK();
}

}  // namespace

const char* SpanStageName(SpanStage stage) {
  switch (stage) {
    case SpanStage::kPosted:
      return "posted";
    case SpanStage::kCreditAcquired:
      return "credit_acquired";
    case SpanStage::kFabricAdmitted:
      return "fabric_admitted";
    case SpanStage::kDelivered:
      return "delivered";
    case SpanStage::kCompleted:
      return "completed";
  }
  return "?";
}

SpanRecorder::SpanRecorder(const SpanConfig& config) : config_(config) {
  if (!config_.enabled) return;
  const double budget = static_cast<double>(config_.max_bytes);
  span_capacity_ = RingCapacity(
      static_cast<uint64_t>(budget * kSpanBudgetShare), sizeof(WrSpan));
  segment_capacity_ = RingCapacity(
      static_cast<uint64_t>(budget * (1.0 - kSpanBudgetShare)),
      sizeof(FlowSegment));
  spans_.reserve(std::min<size_t>(span_capacity_, 4096));
  segments_.reserve(std::min<size_t>(segment_capacity_, 4096));
}

void SpanRecorder::WarnOnFirstDrop(const char* what) {
  if (warned_overflow_) return;
  warned_overflow_ = true;
  RDMAJOIN_LOG(kWarning) << "span recorder ring full (" << what
                         << "): oldest entries are being evicted; raise "
                            "SpanConfig::max_bytes (current "
                         << config_.max_bytes
                         << " bytes) to keep the whole run";
}

WrSpan* SpanRecorder::Find(uint64_t id) {
  if (id == 0 || span_capacity_ == 0) return nullptr;
  const size_t slot = static_cast<size_t>((id - 1) % span_capacity_);
  if (slot >= spans_.size()) return nullptr;
  WrSpan* s = &spans_[slot];
  return s->id == id ? s : nullptr;
}

uint64_t SpanRecorder::BeginSpan(uint32_t machine, uint32_t thread,
                                 uint32_t slot, uint32_t src, uint32_t dst,
                                 double wire_bytes, bool pull,
                                 double posted_time) {
  if (!config_.enabled) return 0;
  const uint64_t id = next_id_++;
  ++spans_recorded_;
  WrSpan span;
  span.id = id;
  span.machine = machine;
  span.thread = thread;
  span.slot = slot;
  span.src = src;
  span.dst = dst;
  span.wire_bytes = wire_bytes;
  span.pull = pull;
  span.stage[static_cast<int>(SpanStage::kPosted)] = posted_time;
  const size_t ring_slot = static_cast<size_t>((id - 1) % span_capacity_);
  if (ring_slot < spans_.size()) {
    // Overwrite: the previous occupant is exactly span_capacity_ ids older.
    if (spans_[ring_slot].id != 0) {
      ++spans_dropped_;
      WarnOnFirstDrop("work-request spans");
    }
    spans_[ring_slot] = span;
  } else {
    spans_.push_back(span);
  }
  return id;
}

void SpanRecorder::MarkStage(uint64_t id, SpanStage stage, double time) {
  WrSpan* span = Find(id);
  if (span == nullptr) {
    if (config_.enabled && id != 0) ++late_stage_updates_;
    return;
  }
  span->stage[static_cast<int>(stage)] = time;
}

void SpanRecorder::SetFlow(uint64_t id, uint64_t flow) {
  if (WrSpan* span = Find(id)) span->flow = flow;
}

void SpanRecorder::SetReceiverService(uint64_t id, double start, double end) {
  if (WrSpan* span = Find(id)) {
    span->recv_start = start;
    span->recv_end = end;
  }
}

void SpanRecorder::SetFaultInfo(uint64_t id, uint32_t retries,
                                double retry_delay_seconds) {
  if (WrSpan* span = Find(id)) {
    span->retries = retries;
    span->retry_delay_seconds = retry_delay_seconds;
  }
}

void SpanRecorder::AddThreadMark(const ThreadMark& mark) {
  if (!config_.enabled) return;
  threads_.push_back(mark);
}

void SpanRecorder::OnFlowSegment(uint64_t flow_id, uint32_t src, uint32_t dst,
                                 double t0, double t1, double rate,
                                 RateConstraint bound, uint32_t bound_host) {
  if (!config_.enabled || !(t1 > t0)) return;
  // Merge into the flow's previous segment when contiguous at the same rate
  // under the same binding constraint, so a flow's segments enumerate its
  // reshare events and constraint transitions, not the simulation's event
  // steps. The constraint check matters: a reshare can leave the rate
  // numerically unchanged while the binding constraint switches (egress and
  // ingress shares crossing over), and coalescing across that boundary would
  // hide the transition from the forensics layer. Stale map entries (evicted
  // or reused slots) are detected by the flow-id check.
  const uint64_t* it = last_segment_of_flow_.Find(flow_id);
  if (it != nullptr && *it < segments_.size()) {
    FlowSegment& prev = segments_[*it];
    if (prev.flow == flow_id && prev.rate == rate && prev.bound == bound &&
        prev.bound_host == bound_host &&
        std::abs(prev.t1 - t0) <= 1e-9 * (1.0 + std::abs(t0))) {
      prev.t1 = t1;
      return;
    }
  }
  ++segments_recorded_;
  const FlowSegment seg{flow_id, src, dst, t0, t1, rate, bound, bound_host};
  size_t idx;
  if (segments_.size() < segment_capacity_) {
    idx = segments_.size();
    segments_.push_back(seg);
  } else {
    idx = segment_next_;
    segment_next_ = (segment_next_ + 1) % segment_capacity_;
    ++segments_dropped_;
    WarnOnFirstDrop("flow segments");
    segments_[idx] = seg;
  }
  // Bound the merge index: entries of long-gone flows are useless, and the
  // map must not outgrow the rings' byte budget.
  if (last_segment_of_flow_.size() > 2 * segment_capacity_) {
    last_segment_of_flow_.Clear();
  }
  last_segment_of_flow_.Put(flow_id, idx);
}

void SpanRecorder::OnWrPosted(uint32_t device, WorkCompletion::Op op) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  ++c.posted[OpIndex(op)];
}

void SpanRecorder::OnWrCompleted(uint32_t device, WorkCompletion::Op op,
                                 bool success) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  ++c.completed[OpIndex(op)];
  if (!success) ++c.failed_completions;
}

void SpanRecorder::OnCompletionPolled(uint32_t device, WorkCompletion::Op op) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  ++c.polled[OpIndex(op)];
}

void SpanRecorder::OnBufferCredit(uint32_t device, bool acquired) {
  if (!config_.enabled) return;
  ExecDeviceCounts& c = devices_[device];
  c.device = device;
  if (acquired) {
    ++c.buffers_acquired;
  } else {
    ++c.buffers_released;
  }
}

SpanDataset SpanRecorder::Snapshot() const {
  SpanDataset ds;
  ds.spans.reserve(spans_.size());
  for (const WrSpan& s : spans_) {
    if (s.id != 0) ds.spans.push_back(s);
  }
  std::sort(ds.spans.begin(), ds.spans.end(),
            [](const WrSpan& a, const WrSpan& b) { return a.id < b.id; });
  // Segments in recording order: the ring overwrites from index
  // segment_next_ once full, so the oldest surviving entry sits there.
  ds.segments.reserve(segments_.size());
  if (segments_.size() < segment_capacity_) {
    ds.segments = segments_;
  } else {
    for (size_t i = 0; i < segments_.size(); ++i) {
      ds.segments.push_back(
          segments_[(segment_next_ + i) % segments_.size()]);
    }
  }
  ds.threads = threads_;
  std::sort(ds.threads.begin(), ds.threads.end(),
            [](const ThreadMark& a, const ThreadMark& b) {
              if (a.machine != b.machine) return a.machine < b.machine;
              return a.thread < b.thread;
            });
  ds.devices.reserve(devices_.size());
  for (const auto& [id, counts] : devices_) {
    (void)id;
    ds.devices.push_back(counts);
  }
  ds.spans_recorded = spans_recorded_;
  ds.spans_dropped = spans_dropped_;
  ds.segments_recorded = segments_recorded_;
  ds.segments_dropped = segments_dropped_;
  ds.late_stage_updates = late_stage_updates_;
  return ds;
}

std::string SpanDatasetToJson(const SpanDataset& dataset) {
  std::string out;
  // Upper bounds of a span / segment line (~350 / ~145 bytes in practice),
  // so the buffer is never copied while it grows; untouched pages cost no RSS.
  out.reserve(256 + dataset.spans.size() * 384 + dataset.segments.size() * 160);
  // Every number, counts included, takes JsonNumber's form.
  JsonWriter w(&out);
  auto count = [](uint64_t v) { return static_cast<double>(v); };
  auto op_counts = [&w](const uint64_t (&c)[4]) {
    w.BeginArray();
    for (const uint64_t v : c) w.Number(static_cast<double>(v));
    w.EndArray();
  };
  // Schema v2 (per-segment constraint labels) only when there is a label to
  // write: label-free datasets (e.g. read from a v1 document) keep the exact
  // v1 bytes.
  bool has_constraints = false;
  for (const FlowSegment& g : dataset.segments) {
    if (g.bound != RateConstraint::kNone) {
      has_constraints = true;
      break;
    }
  }
  w.BeginObject()
      .Key("version").Uint(has_constraints ? 2 : 1)
      .Key("spans_recorded").Number(count(dataset.spans_recorded))
      .Key("spans_dropped").Number(count(dataset.spans_dropped))
      .Key("segments_recorded").Number(count(dataset.segments_recorded))
      .Key("segments_dropped").Number(count(dataset.segments_dropped))
      .Key("late_stage_updates").Number(count(dataset.late_stage_updates))
      .Key("spans").BeginArray();
  for (const WrSpan& s : dataset.spans) {
    w.LineBreak().BeginObject()
        .Key("id").Number(count(s.id))
        .Key("machine").Number(count(s.machine))
        .Key("thread").Number(count(s.thread))
        .Key("slot").Number(count(s.slot))
        .Key("src").Number(count(s.src))
        .Key("dst").Number(count(s.dst))
        .Key("wire_bytes").Number(s.wire_bytes)
        .Key("flow").Number(count(s.flow))
        .Key("pull").Bool(s.pull);
    for (int i = 0; i < kNumSpanStages; ++i) {
      w.Key(SpanStageName(static_cast<SpanStage>(i))).Number(s.stage[i]);
    }
    w.Key("recv_start").Number(s.recv_start).Key("recv_end").Number(s.recv_end);
    if (s.retries > 0 || s.retry_delay_seconds > 0) {
      // Optional fields: fault-free datasets stay byte-identical.
      w.Key("retries").Number(count(s.retries))
          .Key("retry_delay_seconds").Number(s.retry_delay_seconds);
    }
    w.EndObject();
  }
  w.EndArray().Key("segments").BeginArray();
  for (const FlowSegment& g : dataset.segments) {
    w.LineBreak().BeginObject()
        .Key("flow").Number(count(g.flow))
        .Key("src").Number(count(g.src))
        .Key("dst").Number(count(g.dst))
        .Key("t0").Number(g.t0)
        .Key("t1").Number(g.t1)
        .Key("rate").Number(g.rate);
    if (has_constraints) {
      w.Key("bound").String(RateConstraintName(g.bound))
          .Key("bound_host").Number(count(g.bound_host));
    }
    w.EndObject();
  }
  w.EndArray().Key("threads").BeginArray();
  for (const ThreadMark& t : dataset.threads) {
    w.LineBreak().BeginObject()
        .Key("machine").Number(count(t.machine))
        .Key("thread").Number(count(t.thread))
        .Key("finish_seconds").Number(t.finish_seconds)
        .Key("compute_seconds").Number(t.compute_seconds)
        .Key("credit_stall_seconds").Number(t.credit_stall_seconds)
        .Key("flow_stall_seconds").Number(t.flow_stall_seconds);
    if (t.fault_recovery_seconds != 0) {
      w.Key("fault_recovery_seconds").Number(t.fault_recovery_seconds);
    }
    w.EndObject();
  }
  w.EndArray().Key("devices").BeginArray();
  for (const ExecDeviceCounts& d : dataset.devices) {
    w.LineBreak().BeginObject().Key("device").Number(count(d.device)).Key("posted");
    op_counts(d.posted);
    w.Key("completed");
    op_counts(d.completed);
    w.Key("failed_completions").Number(count(d.failed_completions)).Key("polled");
    op_counts(d.polled);
    w.Key("buffers_acquired").Number(count(d.buffers_acquired))
        .Key("buffers_released").Number(count(d.buffers_released))
        .EndObject();
  }
  w.EndArray().EndObject();
  out += '\n';
  return out;
}

StatusOr<SpanDataset> ParseSpanDatasetJson(const std::string& text) {
  JsonReader r(text);
  if (r.Peek() != '{') {
    return Status::InvalidArgument("span JSON: document is not an object");
  }
  SpanDataset ds;
  double version = 0;
  bool has_spans = false;
  RDMAJOIN_RETURN_IF_ERROR(r.ForEachMember([&](std::string_view key) {
    if (key == "version") return ReadField(&r, key, &version);
    if (key == "spans_recorded") return ReadField(&r, key, &ds.spans_recorded);
    if (key == "spans_dropped") return ReadField(&r, key, &ds.spans_dropped);
    if (key == "segments_recorded") return ReadField(&r, key, &ds.segments_recorded);
    if (key == "segments_dropped") return ReadField(&r, key, &ds.segments_dropped);
    if (key == "late_stage_updates") return ReadField(&r, key, &ds.late_stage_updates);
    if (key == "spans") {
      has_spans = true;
      return ReadObjects(&r, &ds.spans, &ReadSpanMember);
    }
    if (key == "segments") return ReadObjects(&r, &ds.segments, &ReadSegmentMember);
    if (key == "threads") return ReadObjects(&r, &ds.threads, &ReadThreadMember);
    if (key == "devices") return r.ReadArray(&ds.devices, ReadDevice);
    return r.SkipValue();
  }));
  RDMAJOIN_RETURN_IF_ERROR(r.ExpectEnd());
  if (version != 1 && version != 2) {
    return Status::InvalidArgument("span JSON: unsupported version");
  }
  if (!has_spans) return Status::InvalidArgument("span JSON: missing \"spans\" array");
  for (const WrSpan& s : ds.spans) {
    if (s.id == 0) return Status::InvalidArgument("span JSON: span without id");
  }
  return ds;
}

Status WriteSpanDatasetFile(const std::string& path,
                            const SpanDataset& dataset) {
  return WriteStringToFile(path, SpanDatasetToJson(dataset));
}

StatusOr<SpanDataset> ReadSpanDatasetFile(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    return Status::InvalidArgument("cannot open span file: " + path);
  }
  return ParseSpanDatasetJson(text);
}

}  // namespace rdmajoin
