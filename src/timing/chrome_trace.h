#ifndef RDMAJOIN_TIMING_CHROME_TRACE_H_
#define RDMAJOIN_TIMING_CHROME_TRACE_H_

#include <cstddef>
#include <string>

#include "timing/replay.h"
#include "util/status.h"

namespace rdmajoin {

class MetricsRegistry;
struct FaultSchedule;

/// At most this many work-request spans are rendered as slices + flow arrows
/// (the longest by duration win; ties by id). The full dataset can be
/// exported separately via SpanDatasetToJson.
inline constexpr size_t kChromeTraceMaxSpans = 512;

/// Presentation knobs for the Chrome trace export.
struct ChromeTraceOptions {
  /// Free-form run label embedded in the trace metadata (e.g. cluster name
  /// and operator). May contain arbitrary characters; it is JSON-escaped on
  /// output.
  std::string label;
  /// When the run used fault injection, the schedule that was active: each
  /// windowed fault renders as a slice on the affected machine's "fault
  /// windows" row (aligned to the network-phase barrier, like the fabric
  /// counters), so degraded links, flaps, stragglers and credit squeezes are
  /// visible next to the work they delayed. Null omits the row.
  const FaultSchedule* fault_schedule = nullptr;
};

/// Renders one replayed join run as Chrome trace-event JSON, loadable in
/// chrome://tracing or https://ui.perfetto.dev.
///
/// Each machine becomes one process row carrying four "X" (complete) slices,
/// one per join phase. Phases are barrier-synchronized, so every machine's
/// slice for a phase starts at the global end of the previous phase and runs
/// for that machine's own duration -- the white gap up to the barrier is the
/// skew the stacked-bar figures hide. When `metrics` carries the fabric
/// instrumentation recorded by ReplayTrace (ReplayOptions::metrics), each
/// host additionally gets "C" (counter) rows with its egress and ingress
/// utilization in MB/s over the network-partitioning phase.
///
/// When the report carries a span recorder (ReplayReport::spans), the
/// longest work-request spans additionally render as causal slices: one
/// sender-side slice per WR on the posting thread's row (posted ->
/// fabric-admitted, i.e. credit wait plus post overhead) and one
/// receiver-side slice on the destination machine's receiver row (delivered
/// -> completed/service end), connected by a flow arrow ("s"/"f" events
/// keyed by the span id) from sender post to receiver delivery.
///
/// Datasets with binding-constraint labels (schema v2 recordings) add two
/// layers of bottleneck forensics: a stacked "bound flows" counter row per
/// host (egress- / ingress- / msg-rate-bound flow counts over time, colored
/// per series -- an incast reads as a solid ingress band on the victim), and
/// an instant marker on the sender's thread row whenever a rendered span's
/// flow switches binding constraint mid-life.
///
/// Timestamps are microseconds of full-scale virtual time from the start of
/// the run; fabric time zero is aligned to the network-phase barrier.
std::string ChromeTraceJson(const ReplayReport& report,
                            const MetricsRegistry* metrics = nullptr,
                            const ChromeTraceOptions& options = ChromeTraceOptions());

/// Writes ChromeTraceJson(...) to `path`.
Status WriteChromeTraceFile(const std::string& path, const ReplayReport& report,
                            const MetricsRegistry* metrics = nullptr,
                            const ChromeTraceOptions& options = ChromeTraceOptions());

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_CHROME_TRACE_H_
