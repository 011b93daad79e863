#include "perfbench/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <utility>

#include "cluster/presets.h"
#include "join/distributed_join.h"
#include "model/analytical_model.h"
#include "model/parameters.h"
#include "rdma/validator.h"
#include "sched/query_profile.h"
#include "sched/scheduler.h"
#include "sched/workload_mix.h"
#include "timing/attribution.h"
#include "timing/chrome_trace.h"
#include "timing/replay.h"
#include "timing/span_query.h"
#include "timing/span_trace.h"
#include "timing/trace_io.h"
#include "timing/utilization.h"
#include "util/metrics.h"

namespace perfbench {

using namespace rdmajoin;

namespace {

constexpr uint32_t kTupleBytes = 16;
/// Open-loop arrival set of the multi-query workload: this many arrivals at
/// this multiple of the serial capacity (one query per solo makespan),
/// admitted two at a time with two queue slots, so a burst is rejected.
constexpr uint32_t kOpenLoopArrivals = 12;
constexpr double kOpenLoopLoad = 1.5;

uint64_t ScaledTuples(double mtuples, double scale) {
  return static_cast<uint64_t>(mtuples * 1e6 / scale + 0.5);
}

bool SamePhases(const PhaseTimes& a, const PhaseTimes& b) {
  return a.histogram_seconds == b.histogram_seconds &&
         a.network_partition_seconds == b.network_partition_seconds &&
         a.local_partition_seconds == b.local_partition_seconds &&
         a.build_probe_seconds == b.build_probe_seconds;
}

bool SamePhases(const std::vector<PhaseTimes>& a, const std::vector<PhaseTimes>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const PhaseTimes& x, const PhaseTimes& y) {
                      return SamePhases(x, y);
                    });
}

// ---- Field-wise equality of the two on-disk formats' values. ----
// Comparing the read-back values with the written ones directly, rather than
// serializing them again, keeps a second ~20 MB span export out of the run.

bool Same(const SendRecord& a, const SendRecord& b) {
  return a.dst_machine == b.dst_machine && a.slot == b.slot &&
         a.wire_bytes == b.wire_bytes &&
         a.compute_bytes_before == b.compute_bytes_before &&
         a.src_machine == b.src_machine && a.retries == b.retries &&
         a.retry_delay_seconds == b.retry_delay_seconds;
}

bool Same(const BuildProbeTask& a, const BuildProbeTask& b) {
  return a.build_bytes == b.build_bytes && a.probe_bytes == b.probe_bytes &&
         a.table_bytes == b.table_bytes;
}

bool Same(double a, double b) { return a == b; }

// Defined after every element overload, which its body must see.
template <typename T>
bool Same(const std::vector<T>& a, const std::vector<T>& b);

bool Same(const ThreadNetTrace& a, const ThreadNetTrace& b) {
  return a.compute_bytes == b.compute_bytes && a.query == b.query &&
         Same(a.sends, b.sends);
}

bool Same(const MachineTrace& a, const MachineTrace& b) {
  return a.histogram_bytes == b.histogram_bytes &&
         a.histogram_exchange_seconds == b.histogram_exchange_seconds &&
         Same(a.net_threads, b.net_threads) && a.recv_bytes == b.recv_bytes &&
         a.recv_messages == b.recv_messages &&
         a.local_pass_bytes == b.local_pass_bytes &&
         a.sort_bytes == b.sort_bytes && Same(a.merge_tasks, b.merge_tasks) &&
         Same(a.tasks, b.tasks) && a.stolen_in_bytes == b.stolen_in_bytes &&
         a.materialized_bytes == b.materialized_bytes &&
         a.setup_registration_seconds == b.setup_registration_seconds &&
         a.per_send_registration_seconds == b.per_send_registration_seconds;
}

bool Same(const RunTrace& a, const RunTrace& b) {
  return a.scale_up == b.scale_up && Same(a.machines, b.machines);
}

bool Same(const WrSpan& a, const WrSpan& b) {
  return a.id == b.id && a.machine == b.machine && a.thread == b.thread &&
         a.slot == b.slot && a.src == b.src && a.dst == b.dst &&
         a.wire_bytes == b.wire_bytes && a.flow == b.flow && a.pull == b.pull &&
         std::equal(std::begin(a.stage), std::end(a.stage), std::begin(b.stage)) &&
         a.recv_start == b.recv_start && a.recv_end == b.recv_end &&
         a.retries == b.retries && a.retry_delay_seconds == b.retry_delay_seconds;
}

bool Same(const FlowSegment& a, const FlowSegment& b) {
  return a.flow == b.flow && a.src == b.src && a.dst == b.dst && a.t0 == b.t0 &&
         a.t1 == b.t1 && a.rate == b.rate && a.bound == b.bound &&
         a.bound_host == b.bound_host;
}

bool Same(const ThreadMark& a, const ThreadMark& b) {
  return a.machine == b.machine && a.thread == b.thread &&
         a.finish_seconds == b.finish_seconds &&
         a.compute_seconds == b.compute_seconds &&
         a.credit_stall_seconds == b.credit_stall_seconds &&
         a.flow_stall_seconds == b.flow_stall_seconds &&
         a.fault_recovery_seconds == b.fault_recovery_seconds;
}

bool Same(const ExecDeviceCounts& a, const ExecDeviceCounts& b) {
  return a.device == b.device &&
         std::equal(std::begin(a.posted), std::end(a.posted), std::begin(b.posted)) &&
         std::equal(std::begin(a.completed), std::end(a.completed),
                    std::begin(b.completed)) &&
         a.failed_completions == b.failed_completions &&
         std::equal(std::begin(a.polled), std::end(a.polled), std::begin(b.polled)) &&
         a.buffers_acquired == b.buffers_acquired &&
         a.buffers_released == b.buffers_released;
}

bool Same(const SpanDataset& a, const SpanDataset& b) {
  return Same(a.spans, b.spans) && Same(a.segments, b.segments) &&
         Same(a.threads, b.threads) && Same(a.devices, b.devices) &&
         a.spans_recorded == b.spans_recorded &&
         a.spans_dropped == b.spans_dropped &&
         a.segments_recorded == b.segments_recorded &&
         a.segments_dropped == b.segments_dropped &&
         a.late_stage_updates == b.late_stage_updates;
}

template <typename T>
bool Same(const std::vector<T>& a, const std::vector<T>& b) {
  return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                    [](const T& x, const T& y) { return Same(x, y); });
}

Status WriteTextFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  out.close();
  return out ? Status::OK() : Status::Internal("cannot write " + path);
}

double FileMb(const std::string& path) {
  std::error_code ec;
  const uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0.0 : static_cast<double>(bytes) / 1e6;
}

/// One join: Status OK, output equal to the generator's ground truth, and
/// no verbs-protocol violation in report mode.
bool CheckJoin(const StatusOr<JoinRunResult>& result, const Workload& input,
               const ProtocolReport& protocol, const std::string& what,
               Checks* checks) {
  if (!result.ok()) {
    checks->Expect(false, what + ": " + result.status().ToString());
    return false;
  }
  const GroundTruth& truth = input.truth;
  const bool matches = result->stats.matches == truth.expected_matches &&
                       result->stats.key_sum == truth.expected_key_sum &&
                       result->stats.inner_rid_sum == truth.expected_inner_rid_sum;
  checks->Expect(matches && protocol.total() == 0,
                 what + (matches ? ": protocol violations\n" + protocol.ToString()
                                 : ": result differs from the ground truth"));
  return true;
}

}  // namespace

const std::vector<BenchWorkload>& Workloads() {
  static const std::vector<BenchWorkload> kWorkloads = {
      {.name = "replay_qdr10", .machines = 10, .inner_mtuples = 2048,
       .outer_mtuples = 2048, .scale = 16384, .spans = true,
       .paper_seconds = 3.84},
      {.name = "datapath_qdr4", .machines = 4, .inner_mtuples = 2048,
       .outer_mtuples = 2048, .scale = 256, .spans = false,
       .paper_seconds = 7.19},
      {.name = "skew_forensics", .machines = 8, .inner_mtuples = 128,
       .outer_mtuples = 2048, .zipf_theta = 1.2, .scale = 16384, .spans = true,
       .forensics = true, .paper_seconds = 8.19},
      {.name = "multiquery_qdr4", .machines = 4, .inner_mtuples = 1024,
       .outer_mtuples = 1024, .scale = 16384, .spans = false, .queries = 3,
       .paper_seconds = 3.50},
  };
  return kWorkloads;
}

const BenchWorkload* FindWorkload(const std::string& name) {
  for (const BenchWorkload& w : Workloads()) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

void Checks::Expect(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  std::fprintf(stderr, "perfbench: FAILED: %s\n", what.c_str());
}

void Checks::ExpectOk(const Status& status, const std::string& what) {
  Expect(status.ok(), what + (status.ok() ? "" : ": " + status.ToString()));
}

BenchRun::BenchRun(const BenchWorkload& workload, double scale, uint64_t seed,
                   std::string scratch_dir)
    : workload_(workload),
      scale_(scale),
      seed_(seed),
      scratch_dir_(std::move(scratch_dir)) {}

void BenchRun::Setup(HostTracer* tracer) {
  {
    ScopedSpan span(tracer, "cluster.preset");
    cluster_ = QdrCluster(workload_.machines);
  }
  config_ = JoinConfig();
  config_.scale_up = scale_;
  config_.enable_spans = workload_.spans;
  if (workload_.zipf_theta > 0) config_.assignment = AssignmentPolicy::kSkewAware;
  inputs_.clear();  // never hold two copies of the inputs
  setup_status_ = Status::OK();
  for (uint32_t q = 0; q < workload_.queries; ++q) {
    WorkloadSpec spec;
    spec.inner_tuples = ScaledTuples(workload_.inner_mtuples, scale_);
    spec.outer_tuples = ScaledTuples(workload_.outer_mtuples, scale_);
    spec.tuple_bytes = kTupleBytes;
    spec.zipf_theta = workload_.zipf_theta;
    spec.seed = seed_ + q;
    StatusOr<Workload> input = [&] {
      ScopedSpan span(tracer, "workload.generate");
      return GenerateWorkload(spec, cluster_.num_machines);
    }();
    if (!input.ok()) {
      setup_status_ = input.status();
      return;
    }
    inputs_.push_back(std::move(*input));
  }
}

void BenchRun::Run(HostTracer* tracer, Checks* checks) {
  facts_ = RunFacts();
  traces_.assign(inputs_.size(), RunTrace());
  phases_.assign(inputs_.size(), PhaseTimes());
  machine_phases_.assign(inputs_.size(), {});
  for (const Workload& input : inputs_) {
    facts_.tuples += input.inner.total_tuples() + input.outer.total_tuples();
  }
  checks->ExpectOk(setup_status_, "set-up");
  if (!setup_status_.ok()) return;
  if (workload_.queries > 1) {
    RunMulti(tracer, checks);
  } else {
    RunSingle(tracer, checks);
  }
}

StatusOr<JoinRunResult> BenchRun::Join(size_t q, const JoinConfig& config,
                                       HostTracer* tracer, Checks* checks) {
  ProtocolValidator validator(ProtocolValidator::Mode::kReport);
  JoinConfig checked = config;
  checked.validator = &validator;
  StatusOr<JoinRunResult> result = [&] {
    ScopedSpan span(tracer, "join.run");
    return DistributedJoin(cluster_, checked).Run(inputs_[q].inner, inputs_[q].outer);
  }();
  const ProtocolReport protocol = validator.report();
  if (!CheckJoin(result, inputs_[q], protocol, "join of query " + std::to_string(q),
                 checks)) {
    return result;
  }
  facts_.messages += result->net.messages_sent;
  facts_.wire_mb += result->net.virtual_wire_bytes / 1e6;
  facts_.pool_acquisitions += result->net.pool_acquisitions;
  facts_.pool_buffers_created += result->net.pool_buffers_created;
  facts_.protocol_violations += protocol.total();
  if (q == 0) facts_.phases = result->times;
  phases_[q] = result->times;
  machine_phases_[q] = result->replay.machine_phases;
  traces_[q] = std::move(result->trace);
  return result;
}

void BenchRun::RunSingle(HostTracer* tracer, Checks* checks) {
  // Declared before the result, which may point at them, so they outlive it.
  MetricsRegistry metrics;
  SpanRecorder recorder;
  JoinConfig config = config_;
  if (workload_.forensics) {
    config.metrics = &metrics;
    config.span_recorder = &recorder;
  }
  const StatusOr<JoinRunResult> result = Join(0, config, tracer, checks);
  if (result.ok() && workload_.forensics) {
    Forensics(*result, metrics, recorder, tracer, checks);
  }
}

void BenchRun::Forensics(const JoinRunResult& run, const MetricsRegistry& metrics,
                         const SpanRecorder& recorder, HostTracer* tracer,
                         Checks* checks) {
  const std::string trace_path = scratch_dir_ + "/run.trace";
  const std::string spans_path = scratch_dir_ + "/spans.json";
  const std::string metrics_path = scratch_dir_ + "/metrics.json";
  const std::string chrome_path = scratch_dir_ + "/chrome.json";

  // 1. Write everything an "explain this run" session reads.
  {
    ScopedSpan span(tracer, "timing.trace_to_json");
    checks->ExpectOk(WriteTraceFile(traces_[0], trace_path), "write trace");
  }
  SpanDataset dataset;
  {
    ScopedSpan span(tracer, "timing.span_to_json");
    dataset = recorder.Snapshot();
    checks->ExpectOk(WriteSpanDatasetFile(spans_path, dataset),
                     "write span dataset");
  }
  {
    ScopedSpan span(tracer, "util.metrics_to_json");
    checks->ExpectOk(WriteTextFile(metrics_path, metrics.SnapshotJson()),
                     "write metrics snapshot");
  }
  {
    ScopedSpan span(tracer, "timing.chrome_trace");
    ChromeTraceOptions options;
    options.label = cluster_.name + ", " + workload_.name;
    checks->ExpectOk(WriteChromeTraceFile(chrome_path, run.replay, &metrics, options),
                     "write Chrome trace");
  }
  facts_.trace_json_mb = FileMb(trace_path);
  facts_.span_json_mb = FileMb(spans_path);

  // 2. Read the trace and the span dataset back; both must round-trip.
  const StatusOr<RunTrace> trace_back = [&] {
    ScopedSpan span(tracer, "timing.trace_from_json");
    return ReadTraceFile(trace_path);
  }();
  checks->Expect(trace_back.ok() && Same(*trace_back, traces_[0]),
                 "trace round-trips to an equal value");
  const StatusOr<SpanDataset> spans_back = [&] {
    ScopedSpan span(tracer, "timing.span_from_json");
    return ReadSpanDatasetFile(spans_path);
  }();
  checks->Expect(spans_back.ok() && Same(*spans_back, dataset),
                 "span dataset round-trips to an equal value");
  if (!spans_back.ok()) return;

  // 3. The forensics checks, on what was read back.
  ScopedSpan span(tracer, "timing.check");
  checks->Expect(CheckSpanInvariants(*spans_back).ok(), "span invariants");
  FabricConfig fabric = cluster_.fabric;
  fabric.num_hosts = cluster_.num_machines;
  checks->Expect(
      CheckConstraintInvariants(*spans_back, ConstraintCheckContextFromFabric(fabric))
          .ok(),
      "binding-constraint invariants");
  const UtilizationReport utilization = ComputeUtilization(run.replay, &*spans_back);
  checks->Expect(CheckUtilization(utilization, run.replay.attribution).ok(),
                 "utilization reproduces the attribution");
  const CongestionReport congestion = ComputeCongestion(*spans_back);
  checks->Expect(congestion.bucket_seconds > 0 &&
                     congestion.hosts.size() == cluster_.num_machines,
                 "congestion timelines cover every host");
}

void BenchRun::RunMulti(HostTracer* tracer, Checks* checks) {
  for (size_t q = 0; q < inputs_.size(); ++q) {
    if (!Join(q, config_, tracer, checks).ok()) return;
  }
  const StatusOr<ReplayReport> concurrent = [&] {
    ScopedSpan span(tracer, "timing.replay_concurrent");
    return ReplayConcurrent(cluster_, config_, traces_);
  }();
  checks->ExpectOk(concurrent.status(), "concurrent replay");
  if (!concurrent.ok()) return;
  facts_.concurrent_seconds = concurrent->phases.TotalSeconds();

  std::vector<QueryProfile> profiles;
  {
    ScopedSpan span(tracer, "sched.profile");
    for (size_t q = 0; q < traces_.size(); ++q) {
      profiles.push_back(BuildQueryProfile(cluster_, config_, traces_[q],
                                           "q" + std::to_string(q)));
    }
  }

  ScopedSpan span(tracer, "sched.schedule");
  SchedulerConfig sc;
  sc.fabric = cluster_.fabric;
  sc.fabric.num_hosts = cluster_.num_machines;
  // The batch: every query arrives at time zero.
  std::vector<SchedQuery> batch;
  for (const QueryProfile& profile : profiles) {
    SchedQuery query;
    query.profile = profile;
    batch.push_back(std::move(query));
  }
  const std::pair<SchedPolicy, double*> policies[] = {
      {SchedPolicy::kSerial, &facts_.serial_seconds},
      {SchedPolicy::kPhaseAligned, &facts_.phase_aligned_seconds},
      {SchedPolicy::kOverlap, &facts_.overlap_seconds}};
  for (const auto& [policy, makespan] : policies) {
    sc.policy = policy;
    const StatusOr<ScheduleReport> report = RunSchedule(batch, sc);
    const Status valid = report.ok() ? CheckScheduleInvariants(*report) : report.status();
    checks->ExpectOk(valid, std::string(SchedPolicyName(policy)) + " schedule");
    if (valid.ok()) *makespan = report->makespan_seconds;
  }

  // One seeded open-loop arrival set over the same profiles.
  std::vector<MixClass> mix;
  for (uint32_t q = 0; q < profiles.size(); ++q) {
    mix.push_back({profiles[q].label, q, 1.0});
  }
  const StatusOr<std::vector<ArrivalEvent>> arrivals = GenerateArrivals(
      mix, kOpenLoopLoad / profiles[0].solo_seconds, kOpenLoopArrivals, seed_);
  checks->ExpectOk(arrivals.status(), "open-loop arrivals");
  if (!arrivals.ok()) return;
  std::vector<SchedQuery> open_loop;
  for (const ArrivalEvent& arrival : *arrivals) {
    SchedQuery query;
    query.profile = profiles[mix[arrival.class_index].profile_index];
    query.arrival_seconds = arrival.time_seconds;
    open_loop.push_back(std::move(query));
  }
  sc.policy = SchedPolicy::kOverlap;
  sc.admission.max_concurrent = 2;
  sc.admission.max_queue_length = 2;
  const StatusOr<ScheduleReport> report = RunSchedule(open_loop, sc);
  const Status valid = report.ok() ? CheckScheduleInvariants(*report) : report.status();
  checks->ExpectOk(valid, "open-loop schedule");
  if (!valid.ok()) return;
  facts_.sched_completed = report->completed;
  facts_.sched_rejected = report->rejected;
}

ReplayFacts BenchRun::CheckRecordingIsPassive(bool both, HostTracer* tracer,
                                              Checks* checks) {
  ReplayFacts out;
  // Replays one trace and checks it against the run's phase times; returns
  // the host seconds it took.
  const auto replay = [&](size_t q, const ReplayOptions& options,
                          const std::string& name) {
    const double start = NowSeconds();
    const ReplayReport report = [&] {
      ScopedSpan span(tracer, name);
      return ReplayTrace(cluster_, config_, traces_[q], options);
    }();
    const double seconds = NowSeconds() - start;
    checks->Expect(SamePhases(report.phases, phases_[q]) &&
                       SamePhases(report.machine_phases, machine_phases_[q]),
                   name + " of query " + std::to_string(q) +
                       " reproduces the run's phase times");
    if (report.spans != nullptr && report.spans->enabled()) {
      out.spans_recorded += report.spans->spans_recorded();
      out.spans_dropped += report.spans->spans_dropped();
      out.segments_recorded += report.spans->segments_recorded();
      out.segments_dropped += report.spans->segments_dropped();
    }
    return seconds;
  };
  for (size_t q = 0; q < traces_.size(); ++q) {
    for (const bool spans : {false, true}) {
      if (!both && spans == workload_.spans) continue;
      ReplayOptions options;
      options.spans.enabled = spans;
      const double seconds =
          replay(q, options, spans ? "timing.replay_spans" : "timing.replay");
      (spans ? out.replay_spans_s : out.replay_s) += seconds;
    }
    if (both && workload_.forensics) {
      MetricsRegistry metrics;
      ReplayOptions options;
      options.metrics = &metrics;
      out.replay_spans_metrics_s +=
          replay(q, options, "timing.replay_spans_metrics");
    }
  }
  return out;
}

double BenchRun::SameSettingsReplaySeconds(const ReplayFacts& replays) const {
  if (workload_.forensics) return replays.replay_spans_metrics_s;
  return workload_.spans ? replays.replay_spans_s : replays.replay_s;
}

double BenchRun::ModelResidualPct() const {
  const auto bytes = [](double mtuples) {
    return static_cast<uint64_t>(mtuples * 1e6 * kTupleBytes);
  };
  const ModelEstimate est = Estimate(ParamsFromCluster(
      cluster_, bytes(workload_.inner_mtuples), bytes(workload_.outer_mtuples)));
  PhaseTimes predicted;
  predicted.histogram_seconds = est.histogram_seconds;
  predicted.network_partition_seconds = est.network_partition_seconds;
  predicted.local_partition_seconds = est.local_partition_seconds;
  predicted.build_probe_seconds = est.build_probe_seconds;
  return 100.0 * std::fabs(ResidualAgainst(facts_.phases, predicted).relative_error);
}

}  // namespace perfbench
