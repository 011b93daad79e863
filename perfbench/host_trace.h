#ifndef RDMAJOIN_PERFBENCH_HOST_TRACE_H_
#define RDMAJOIN_PERFBENCH_HOST_TRACE_H_

// Host-time instrumentation of the benchmark driver: a monotonic clock, the
// process's peak resident set, a resettable peak of live heap bytes, and an
// in-memory span tracer the driver wraps around each public call into the
// library.

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Host seconds on a monotonic clock (arbitrary epoch).
double NowSeconds();

/// Peak resident set size of the process so far, in MB (getrusage).
double PeakRssMb();

/// Bytes currently allocated through the global operator new, and the most
/// live at any moment since the last ResetHeapPeak() (heap_peak.cc).
uint64_t HeapLiveBytes();
uint64_t HeapPeakBytes();
void ResetHeapPeak();

/// One timed call. Times are host seconds since the tracer was created.
struct HostSpan {
  uint32_t id = 0;      ///< 1-based.
  uint32_t parent = 0;  ///< 0 for a root span.
  uint32_t run_id = 0;  ///< Shared by every span of one traced run.
  std::string name;     ///< "<layer>.<call>", e.g. "join.run".
  double start = 0;
  double end = 0;
  /// Most heap bytes live while the span was open, in MB.
  double peak_heap_mb = 0;

  double seconds() const { return end - start; }
  /// The part of `name` before the first '.'.
  std::string layer() const;
};

/// Records nested spans in memory; spans must close in LIFO order. The
/// benchmark is single-threaded, and so is the tracer.
class HostTracer {
 public:
  explicit HostTracer(uint32_t run_id);

  uint32_t Begin(const std::string& name);
  void End(uint32_t id);

  /// Duration minus the time covered by the span's direct children.
  double SelfSeconds(uint32_t id) const;
  /// Total duration and largest heap peak of every span called `name`.
  double TotalSeconds(const std::string& name) const;
  double PeakHeapMb(const std::string& name) const;
  /// Self seconds summed per layer, over the root spans `roots` and all
  /// their descendants.
  std::map<std::string, double> SelfSecondsByLayer(
      const std::vector<uint32_t>& roots) const;
  /// All spans as one JSON document (one object per span).
  std::string ToJson() const;

 private:
  uint32_t run_id_;
  double origin_;
  std::vector<HostSpan> spans_;
  std::vector<uint32_t> open_;  ///< Stack of open span ids.
  /// Heap peak seen so far by each open span (parallel to open_).
  std::vector<uint64_t> open_peak_;
};

/// Opens a span on construction and closes it on destruction; a null tracer
/// makes it a no-op, so untraced runs pay nothing.
class ScopedSpan {
 public:
  ScopedSpan(HostTracer* tracer, const std::string& name)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  HostTracer* tracer_;
  uint32_t id_;
};

}  // namespace perfbench

#endif  // RDMAJOIN_PERFBENCH_HOST_TRACE_H_
