#ifndef RDMAJOIN_PERFBENCH_WORKLOADS_H_
#define RDMAJOIN_PERFBENCH_WORKLOADS_H_

// The benchmark's workloads and the code that runs one: set-up (input
// generation), one complete run through the library's public entry points,
// and the recording-passivity replays. Every call into the library is
// wrapped in a host span when a tracer is given.

#include <cstdint>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "join/distributed_join.h"
#include "join/join_config.h"
#include "perfbench/host_trace.h"
#include "timing/phase_times.h"
#include "timing/span_trace.h"
#include "timing/trace.h"
#include "util/metrics.h"
#include "util/status.h"
#include "util/statusor.h"
#include "workload/generator.h"

namespace perfbench {

/// One named workload: a paper configuration and what a run does with it.
struct BenchWorkload {
  std::string name;
  /// Machines of the QDR cluster preset.
  uint32_t machines = 4;
  /// Relation sizes in paper units (millions of tuples); the data path runs
  /// mtuples * 1e6 / scale real tuples.
  double inner_mtuples = 0;
  double outer_mtuples = 0;
  /// Zipf exponent of the outer keys (0: uniform). Skew switches on the
  /// skew-aware partition assignment; probe splitting is on by default.
  double zipf_theta = 0;
  /// The measured scale-up (the smoke test overrides it).
  double scale = 4096;
  /// Span recording in the join's timing replay.
  bool spans = true;
  /// Metrics on, then write trace, span dataset, metrics snapshot and Chrome
  /// trace, read trace and span dataset back, and run the invariant checks.
  bool forensics = false;
  /// Queries captured; above 1 the run replays them concurrently and
  /// schedules them (the seeds are seed, seed + 1, ...).
  uint32_t queries = 1;
  /// The paper's total seconds for the first query's configuration.
  double paper_seconds = 0;
};

/// The four workloads, in BENCHMARK.json order.
const std::vector<BenchWorkload>& Workloads();
const BenchWorkload* FindWorkload(const std::string& name);

/// Counts checked operations and failures; prints each failure to stderr.
class Checks {
 public:
  /// One operation: passes when `ok`.
  void Expect(bool ok, const std::string& what);
  void ExpectOk(const rdmajoin::Status& status, const std::string& what);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }

 private:
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// What the last run produced. Deterministic for a given seed and scale.
struct RunFacts {
  uint64_t tuples = 0;    ///< Real tuples generated, all queries.
  uint64_t messages = 0;  ///< NetworkSummary::messages_sent, all queries.
  double wire_mb = 0;     ///< Virtual wire megabytes, all queries.
  uint64_t pool_acquisitions = 0;
  uint64_t pool_buffers_created = 0;
  uint64_t protocol_violations = 0;
  /// The first query's virtual phase times.
  rdmajoin::PhaseTimes phases;
  /// Forensics: sizes of the written trace and span dataset.
  double trace_json_mb = 0;
  double span_json_mb = 0;
  /// Multi-query: the exact concurrent replay and the fluid schedules.
  double concurrent_seconds = 0;
  double serial_seconds = 0;
  double phase_aligned_seconds = 0;
  double overlap_seconds = 0;
  /// Multi-query: outcomes of the open-loop arrival set.
  uint32_t sched_completed = 0;
  uint32_t sched_rejected = 0;
};

/// Host time and recorder counts of the passivity replays.
struct ReplayFacts {
  double replay_s = 0;          ///< Spans off, all traces.
  double replay_spans_s = 0;    ///< Spans on, all traces.
  /// Spans and metrics on (forensics workloads only).
  double replay_spans_metrics_s = 0;
  /// Recorder totals of the spans-on replays.
  uint64_t spans_recorded = 0;
  uint64_t spans_dropped = 0;
  uint64_t segments_recorded = 0;
  uint64_t segments_dropped = 0;
};

/// Runs one workload. Set up once (or several times), run, then check that
/// span recording is passive on the last run's traces.
class BenchRun {
 public:
  /// `scratch_dir` receives the forensics exports; it must exist.
  BenchRun(const BenchWorkload& workload, double scale, uint64_t seed,
           std::string scratch_dir);

  /// Generates every relation the run uses and builds cluster and config.
  void Setup(HostTracer* tracer);
  /// One complete run of the workload on the set-up inputs (a failed set-up
  /// counts as the run's first failed operation).
  void Run(HostTracer* tracer, Checks* checks);
  /// Replays every trace of the last run with span recording off and on
  /// (`both`), or only with the setting the run did not use, and checks that
  /// each replay reproduces the run's phase times bit for bit. The
  /// forensics workload adds a spans-and-metrics replay when `both`.
  ReplayFacts CheckRecordingIsPassive(bool both, HostTracer* tracer,
                                      Checks* checks);

  const RunFacts& facts() const { return facts_; }
  /// Host seconds of a join replay with the run's own settings: the part of
  /// a join call that is not data path.
  double SameSettingsReplaySeconds(const ReplayFacts& replays) const;
  /// |virtual makespan - Section 5 estimate| / estimate, first query, in %.
  double ModelResidualPct() const;

 private:
  /// Joins query `q`, checks it, and keeps its trace and phase times.
  rdmajoin::StatusOr<rdmajoin::JoinRunResult> Join(size_t q,
                                                   const rdmajoin::JoinConfig& config,
                                                   HostTracer* tracer, Checks* checks);
  void RunSingle(HostTracer* tracer, Checks* checks);
  /// Exports the run, reads it back and runs the forensics checks.
  void Forensics(const rdmajoin::JoinRunResult& run,
                 const rdmajoin::MetricsRegistry& metrics,
                 const rdmajoin::SpanRecorder& recorder, HostTracer* tracer,
                 Checks* checks);
  void RunMulti(HostTracer* tracer, Checks* checks);

  const BenchWorkload& workload_;
  double scale_;
  uint64_t seed_;
  std::string scratch_dir_;
  rdmajoin::ClusterConfig cluster_;
  rdmajoin::JoinConfig config_;
  std::vector<rdmajoin::Workload> inputs_;  ///< One per query.
  rdmajoin::Status setup_status_;
  /// The last run's traces and per-machine phase times, one per query.
  std::vector<rdmajoin::RunTrace> traces_;
  std::vector<std::vector<rdmajoin::PhaseTimes>> machine_phases_;
  std::vector<rdmajoin::PhaseTimes> phases_;
  RunFacts facts_;
};

}  // namespace perfbench

#endif  // RDMAJOIN_PERFBENCH_WORKLOADS_H_
