#include "perfbench/host_trace.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

double NowSeconds() {
  using Clock = std::chrono::steady_clock;  // lint: allow(wall-clock)
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double PeakRssMb() {
  struct rusage usage {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::string HostSpan::layer() const { return name.substr(0, name.find('.')); }

HostTracer::HostTracer(uint32_t run_id) : run_id_(run_id), origin_(NowSeconds()) {}

uint32_t HostTracer::Begin(const std::string& name) {
  // The global heap peak is about to be reset for the child: fold what the
  // enclosing span has seen so far into its own running peak first.
  if (!open_peak_.empty()) {
    open_peak_.back() = std::max(open_peak_.back(), HeapPeakBytes());
  }
  ResetHeapPeak();
  HostSpan span;
  span.id = static_cast<uint32_t>(spans_.size() + 1);
  span.parent = open_.empty() ? 0 : open_.back();
  span.run_id = run_id_;
  span.name = name;
  span.start = NowSeconds() - origin_;
  spans_.push_back(std::move(span));
  open_.push_back(spans_.back().id);
  open_peak_.push_back(HeapLiveBytes());
  return spans_.back().id;
}

void HostTracer::End(uint32_t id) {
  const double now = NowSeconds() - origin_;
  if (open_.empty() || open_.back() != id) {
    std::fprintf(stderr, "perfbench: span %u closed out of order\n", id);
    std::abort();
  }
  const uint64_t peak = std::max(open_peak_.back(), HeapPeakBytes());
  open_.pop_back();
  open_peak_.pop_back();
  if (!open_peak_.empty()) open_peak_.back() = std::max(open_peak_.back(), peak);
  HostSpan& span = spans_[id - 1];
  span.end = now;
  span.peak_heap_mb = static_cast<double>(peak) / 1e6;
}

double HostTracer::SelfSeconds(uint32_t id) const {
  double children = 0;
  for (const HostSpan& s : spans_) {
    if (s.parent == id) children += s.seconds();
  }
  return spans_[id - 1].seconds() - children;
}

double HostTracer::TotalSeconds(const std::string& name) const {
  double total = 0;
  for (const HostSpan& s : spans_) {
    if (s.name == name) total += s.seconds();
  }
  return total;
}

double HostTracer::PeakHeapMb(const std::string& name) const {
  double peak = 0;
  for (const HostSpan& s : spans_) {
    if (s.name == name) peak = std::max(peak, s.peak_heap_mb);
  }
  return peak;
}

std::map<std::string, double> HostTracer::SelfSecondsByLayer(
    const std::vector<uint32_t>& roots) const {
  std::map<std::string, double> self;
  for (const HostSpan& s : spans_) {
    uint32_t root = s.id;
    while (spans_[root - 1].parent != 0) root = spans_[root - 1].parent;
    if (std::find(roots.begin(), roots.end(), root) != roots.end()) {
      self[s.layer()] += SelfSeconds(s.id);
    }
  }
  return self;
}

std::string HostTracer::ToJson() const {
  std::string out = "[\n";
  char line[512];
  for (size_t i = 0; i < spans_.size(); ++i) {
    const HostSpan& s = spans_[i];
    std::snprintf(line, sizeof(line),
                  "  {\"run\":%u,\"id\":%u,\"parent\":%u,\"name\":\"%s\","
                  "\"start_s\":%.9f,\"end_s\":%.9f,\"self_s\":%.9f,"
                  "\"peak_heap_mb\":%.3f}%s\n",
                  s.run_id, s.id, s.parent, s.name.c_str(), s.start, s.end,
                  SelfSeconds(s.id), s.peak_heap_mb,
                  i + 1 < spans_.size() ? "," : "");
    out += line;
  }
  return out + "]\n";
}

}  // namespace perfbench
