#ifndef RDMAJOIN_TIMING_TRACE_IO_H_
#define RDMAJOIN_TIMING_TRACE_IO_H_

#include <string>

#include "timing/trace.h"
#include "util/statusor.h"

namespace rdmajoin {

/// Serializes an execution trace to a JSON document. Traces are
/// hardware-independent (they record what the algorithm did, not how long it
/// took), so a saved trace can be replayed against any cluster
/// configuration without re-running the join: rdmajoin_trace,
/// rdmajoin_explain, rdmajoin_analyze --trace and rdmajoin_whatif all read
/// it. A send is written as [dst_machine, slot, wire_bytes,
/// compute_bytes_before], plus [retries, retry_delay_seconds] when retried or
/// pulled, plus [src_machine] when pulled (RDMA READ); fault-free push
/// traces carry only the first four. A trace of a non-channel run names its
/// transport ("transport":"read"), so replays of the file model the receiver
/// copies of the run that produced it.
std::string TraceToJson(const RunTrace& trace);

/// Parses a trace previously produced by TraceToJson, streaming it through
/// JsonReader (no JsonValue tree). Strict: unknown keys, trailing data,
/// integers their field cannot hold, unknown transport names and sends
/// naming a machine the trace does not have are InvalidArgument.
StatusOr<RunTrace> TraceFromJson(const std::string& json);

/// Convenience: write/read a trace file.
Status WriteTraceFile(const RunTrace& trace, const std::string& path);
StatusOr<RunTrace> ReadTraceFile(const std::string& path);

}  // namespace rdmajoin

#endif  // RDMAJOIN_TIMING_TRACE_IO_H_
