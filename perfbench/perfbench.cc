// Host-time benchmark of whole rdmajoin runs, end to end and per layer.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1 --out-dir DIR
//   perfbench --smoke --out-dir DIR
//
// --trace 0 sets the workload up several times, then runs it for S seconds,
// and prints the end-to-end metrics (medians). --trace 1 makes one untraced
// and one traced run, wraps a host span around every public call, replays the
// run's traces with span recording off and on to split the join call into
// data path, replay and recording, and prints the per-layer metrics. Either
// way the last line of standard output is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
//
// --smoke runs every workload once at scale 65536 and seed 42, both ways,
// prints every metric with its unit, checks that the virtual times equal the
// committed bench/baselines rows for the same configuration, and exits 1 on
// any failure. Run it from the repository root.
//
// Every run checks its outputs; see Checks in workloads.h for what counts.

#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/host_trace.h"
#include "perfbench/workloads.h"
#include "util/json.h"

namespace perfbench {
namespace {

/// Set-up repeats at least this often, and on for this long, to report a
/// median.
constexpr size_t kMinSetups = 3;
constexpr double kSetupSeconds = 1.0;
/// A measurement makes at least this many runs, so its median averages two
/// even on workloads whose run is half the measuring time.
constexpr size_t kMinRuns = 2;
/// The smoke test's scale and seed: the committed baselines' configuration.
constexpr double kSmokeScale = 65536;
constexpr uint64_t kSmokeSeed = 42;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0;
};

struct Outcome {
  std::vector<Metric> metrics;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  RunFacts facts;
};

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0 : n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

double Percent(double value, double reference) {
  return reference > 0 ? 100.0 * std::fabs(value - reference) / reference : 0;
}

/// The fluid phase-aligned schedule's error against the exact concurrent
/// replay (multi-query workloads; 0 elsewhere).
double SchedErrPct(const RunFacts& facts) {
  return Percent(facts.phase_aligned_seconds, facts.concurrent_seconds);
}

/// --trace 0: median set-up and run host times.
Outcome MeasureEndToEnd(const BenchWorkload& workload, double scale,
                        uint64_t seed, double seconds, size_t min_runs,
                        const std::string& scratch) {
  Checks checks;
  BenchRun run(workload, scale, seed, scratch);
  std::vector<double> setups;
  const double setup_start = NowSeconds();
  do {
    const double t0 = NowSeconds();
    run.Setup(nullptr);
    setups.push_back(NowSeconds() - t0);
  } while (setups.size() < kMinSetups || NowSeconds() - setup_start < kSetupSeconds);

  // Runs back to back: at least kMinRuns, then more while the next one
  // (predicted at the median so far) still ends within the measuring time.
  std::vector<double> runs;
  const double start = NowSeconds();
  do {
    const double t0 = NowSeconds();
    run.Run(nullptr, &checks);
    runs.push_back(NowSeconds() - t0);
  } while (runs.size() < min_runs || NowSeconds() - start + Median(runs) <= seconds);
  run.CheckRecordingIsPassive(/*both=*/false, nullptr, &checks);

  Outcome out;
  out.facts = run.facts();
  const double run_s = Median(runs);
  out.metrics = {
      {"run_s", "s", run_s},
      {"setup_s", "s", Median(setups)},
      {"sim_msgs_per_s", "1/s", Ratio(static_cast<double>(out.facts.messages), run_s)},
      {"peak_rss_mb", "MB", PeakRssMb()},
  };
  out.attempted = checks.attempted();
  out.failed = checks.failed();

  std::printf("%s: seed %llu, scale %.0f, %zu set-ups, %zu runs (s):",
              workload.name.c_str(), static_cast<unsigned long long>(seed), scale,
              setups.size(), runs.size());
  for (const double r : runs) std::printf(" %.3f", r);
  std::printf("\n");
  if (runs.size() < 20) {
    std::printf("  run_s is the median of %zu runs; no percentile above it has "
                "ten runs beyond it\n",
                runs.size());
  } else {
    // Nearest rank of the highest percentile with ten runs beyond it.
    std::vector<double> sorted = runs;
    std::sort(sorted.begin(), sorted.end());
    const size_t rank = sorted.size() - 10;
    std::printf("  run_s is the median of %zu runs; p%.0f = %.6f s\n",
                runs.size(), 100.0 * rank / sorted.size(), sorted[rank - 1]);
  }
  return out;
}

/// --trace 1: one untraced run, one traced run, and the split replays.
Outcome MeasurePerLayer(const BenchWorkload& workload, double scale,
                        uint64_t seed, const std::string& scratch,
                        const std::string& spans_out) {
  Checks checks;
  BenchRun run(workload, scale, seed, scratch);
  run.Setup(nullptr);
  const double t0 = NowSeconds();
  run.Run(nullptr, &checks);
  const double untraced_run_s = NowSeconds() - t0;

  HostTracer tracer(/*run_id=*/1);
  const uint32_t setup_root = tracer.Begin("bench.setup");
  run.Setup(&tracer);
  tracer.End(setup_root);
  const uint32_t run_root = tracer.Begin("bench.run");
  run.Run(&tracer, &checks);
  tracer.End(run_root);
  const uint32_t split_root = tracer.Begin("bench.split");
  const ReplayFacts replays = run.CheckRecordingIsPassive(/*both=*/true, &tracer, &checks);
  tracer.End(split_root);

  if (!spans_out.empty()) {
    std::ofstream out(spans_out, std::ios::binary);
    out << tracer.ToJson();
    checks.Expect(static_cast<bool>(out), "write host spans to " + spans_out);
  }

  const RunFacts& f = run.facts();
  const double traced_setup_s = tracer.TotalSeconds("bench.setup");
  const double traced_run_s = tracer.TotalSeconds("bench.run");
  const double join_s = tracer.TotalSeconds("join.run");
  // The join call's replay, measured on its own with the same settings,
  // moves from the join layer's self time to the timing layer's.
  const double join_replay_s = run.SameSettingsReplaySeconds(replays);
  std::map<std::string, double> self = tracer.SelfSecondsByLayer({setup_root, run_root});
  self["join"] -= join_replay_s;
  self["timing"] += join_replay_s;
  const double messages = static_cast<double>(f.messages);

  Outcome out;
  out.facts = f;
  out.metrics = {
      {"workload.generate_s", "s", tracer.TotalSeconds("workload.generate")},
      {"workload.tuples", "count", static_cast<double>(f.tuples)},
      {"join.run_s", "s", join_s},
      {"join.datapath_s", "s", join_s - join_replay_s},
      {"join.tuples_per_s", "1/s", Ratio(static_cast<double>(f.tuples), join_s)},
      {"join.peak_heap_mb", "MB", tracer.PeakHeapMb("join.run")},
      {"rdma.pool_acquisitions", "count", static_cast<double>(f.pool_acquisitions)},
      {"rdma.pool_buffers_created", "count", static_cast<double>(f.pool_buffers_created)},
      {"rdma.pool_reuse_ratio", "ratio",
       f.pool_acquisitions > 0
           ? 1.0 - Ratio(static_cast<double>(f.pool_buffers_created),
                         static_cast<double>(f.pool_acquisitions))
           : 0},
      {"rdma.protocol_violations", "count", static_cast<double>(f.protocol_violations)},
      {"transport.messages", "count", messages},
      {"transport.wire_mb", "MB", f.wire_mb},
      {"timing.replay_s", "s", replays.replay_s},
      {"timing.replay_spans_s", "s", replays.replay_spans_s},
      {"timing.span_overhead_x", "x", Ratio(replays.replay_spans_s, replays.replay_s)},
      {"timing.replay_msgs_per_s", "1/s", Ratio(messages, replays.replay_s)},
      {"timing.virtual_s", "s", f.phases.TotalSeconds()},
      {"timing.spans_recorded", "count", static_cast<double>(replays.spans_recorded)},
      {"timing.span_keep_ratio", "ratio",
       Ratio(static_cast<double>(replays.spans_recorded - replays.spans_dropped),
             static_cast<double>(replays.spans_recorded))},
      {"timing.segments_recorded", "count", static_cast<double>(replays.segments_recorded)},
      {"timing.segment_keep_ratio", "ratio",
       Ratio(static_cast<double>(replays.segments_recorded - replays.segments_dropped),
             static_cast<double>(replays.segments_recorded))},
      {"sim.segments_per_msg", "ratio",
       Ratio(static_cast<double>(replays.segments_recorded), messages)},
      {"timing.peak_heap_mb", "MB", tracer.PeakHeapMb("timing.replay_spans")},
      {"timing.metrics_overhead_x", "x",
       Ratio(replays.replay_spans_metrics_s, replays.replay_spans_s)},
      {"timing.trace_to_json_s", "s", tracer.TotalSeconds("timing.trace_to_json")},
      {"timing.trace_from_json_s", "s", tracer.TotalSeconds("timing.trace_from_json")},
      {"timing.trace_json_mb", "MB", f.trace_json_mb},
      {"timing.span_to_json_s", "s", tracer.TotalSeconds("timing.span_to_json")},
      {"timing.span_from_json_s", "s", tracer.TotalSeconds("timing.span_from_json")},
      {"timing.span_json_mb", "MB", f.span_json_mb},
      {"timing.chrome_trace_s", "s", tracer.TotalSeconds("timing.chrome_trace")},
      {"timing.check_s", "s", tracer.TotalSeconds("timing.check")},
      {"timing.replay_concurrent_s", "s", tracer.TotalSeconds("timing.replay_concurrent")},
      {"timing.paper_err_pct", "%", Percent(f.phases.TotalSeconds(), workload.paper_seconds)},
      {"sched.profile_s", "s", tracer.TotalSeconds("sched.profile")},
      {"sched.schedule_s", "s", tracer.TotalSeconds("sched.schedule")},
      {"sched.completed", "count", static_cast<double>(f.sched_completed)},
      {"sched.rejected", "count", static_cast<double>(f.sched_rejected)},
      {"sched.overlap_vs_serial", "ratio", Ratio(f.overlap_seconds, f.serial_seconds)},
      {"sched.err_pct", "%", SchedErrPct(f)},
      {"model.residual_pct", "%", run.ModelResidualPct()},
  };
  // Self time per layer over the traced set-up and run; they sum to
  // trace.run_s, and bench.self_s is the driver's own share.
  for (const char* layer : {"workload", "cluster", "join", "timing", "sched", "util", "bench"}) {
    out.metrics.push_back({std::string(layer) + ".self_s", "s", self[layer]});
  }
  out.metrics.push_back({"trace.run_s", "s", traced_setup_s + traced_run_s});
  out.metrics.push_back({"trace.overhead_x", "x", Ratio(traced_run_s, untraced_run_s)});
  out.attempted = checks.attempted();
  out.failed = checks.failed();
  return out;
}

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) v = 0;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string ResultJson(const Outcome& out) {
  std::string json = "{\"correct\": ";
  json += out.failed == 0 ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(out.attempted);
  json += ", \"failed\": " + std::to_string(out.failed);
  json += ", \"metrics\": {";
  for (size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    if (i > 0) json += ", ";
    json += "\"" + m.name + "\": {\"value\": " + FormatNumber(m.value) +
            ", \"unit\": \"" + m.unit + "\"}";
  }
  return json + "}}";
}

void PrintMetrics(const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-28s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
}

/// Run-level accuracy figures, printed beside the end-to-end metrics. They
/// are deterministic for a seed but move with it, so they are reported as
/// per-layer metrics (timing.paper_err_pct, sched.err_pct), not bounded.
void PrintAccuracy(const BenchWorkload& workload, const Outcome& out) {
  const double virtual_s = out.facts.phases.TotalSeconds();
  std::printf("  %-28s %18.6f (%llu failed of %llu checked operations)\n",
              "fail_frac",
              Ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted)),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  std::printf("  %-28s %18.6f %% (virtual %.6f s, paper %.2f s)\n", "paper_err_pct",
              Percent(virtual_s, workload.paper_seconds), virtual_s,
              workload.paper_seconds);
  if (workload.queries > 1) {
    std::printf("  %-28s %18.6f %% (phase-aligned %.6f s, exact %.6f s)\n",
                "sched_err_pct", SchedErrPct(out.facts),
                out.facts.phase_aligned_seconds, out.facts.concurrent_seconds);
  }
}

/// measured_seconds of the row `label` in a committed bench JSON.
double BaselineSeconds(const std::string& path, const std::string& label) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = rdmajoin::ParseJson(text.str());
  if (!doc.ok()) return -1;
  const rdmajoin::JsonValue* rows = doc->Find("rows");
  if (rows == nullptr || !rows->is_array()) return -1;
  for (const rdmajoin::JsonValue& row : rows->array_items) {
    if (row.StringOr("label", "") == label) return row.NumberOr("measured_seconds", -1);
  }
  return -1;
}

/// The metric names and units BENCHMARK.json declares must be the ones this
/// program prints.
void CheckBenchmarkJson(const std::vector<Metric>& end_to_end,
                        const std::vector<Metric>& per_layer, Checks* checks) {
  std::ifstream in("BENCHMARK.json", std::ios::binary);
  std::stringstream text;
  text << in.rdbuf();
  const auto doc = rdmajoin::ParseJson(text.str());
  checks->ExpectOk(doc.status(), "parse BENCHMARK.json");
  if (!doc.ok()) return;
  const auto declared = [&](const char* key) {
    std::vector<std::string> names;
    const rdmajoin::JsonValue* list = doc->Find(key);
    if (list != nullptr && list->is_array()) {
      for (const rdmajoin::JsonValue& m : list->array_items) {
        names.push_back(m.StringOr("name", "") + " " + m.StringOr("unit", ""));
      }
    }
    return names;
  };
  const auto printed = [](const std::vector<Metric>& metrics) {
    std::vector<std::string> names;
    for (const Metric& m : metrics) names.push_back(m.name + " " + m.unit);
    return names;
  };
  checks->Expect(declared("end_to_end") == printed(end_to_end),
                 "BENCHMARK.json end_to_end lists the printed metrics in order");
  checks->Expect(declared("per_layer") == printed(per_layer),
                 "BENCHMARK.json per_layer lists the printed metrics in order");
  std::vector<std::string> workloads;
  for (const BenchWorkload& w : Workloads()) workloads.push_back(w.name + " ");
  checks->Expect(declared("workloads") == workloads,
                 "BENCHMARK.json lists the workloads in order");
}

int Smoke(const std::string& scratch) {
  Checks checks;
  std::map<std::string, RunFacts> facts;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  for (const BenchWorkload& workload : Workloads()) {
    const Outcome e2e = MeasureEndToEnd(workload, kSmokeScale, kSmokeSeed, 0, 1, scratch);
    PrintMetrics(e2e.metrics);
    PrintAccuracy(workload, e2e);
    const Outcome layers = MeasurePerLayer(workload, kSmokeScale, kSmokeSeed, scratch, "");
    PrintMetrics(layers.metrics);
    for (const Outcome* o : {&e2e, &layers}) {
      checks.Expect(o->failed == 0, workload.name + ": every checked operation passes");
    }
    facts[workload.name] = e2e.facts;
    end_to_end = e2e.metrics;
    per_layer = layers.metrics;
  }

  // The same program as the gated figures: identical virtual seconds.
  struct Anchor {
    const char* workload;
    const char* file;
    const char* label;
    double RunFacts::*value;  // nullptr: the first query's virtual makespan
  };
  const Anchor anchors[] = {
      {"replay_qdr10", "bench/baselines/BENCH_fig07a_phase_breakdown.json",
       "10 machines", nullptr},
      {"datapath_qdr4", "bench/baselines/BENCH_fig07a_phase_breakdown.json",
       "4 machines", nullptr},
      {"multiquery_qdr4", "bench/baselines/BENCH_ext_concurrent_queries.json",
       "3 queries", &RunFacts::concurrent_seconds},
      {"multiquery_qdr4", "bench/baselines/BENCH_ext_concurrent_queries.json",
       "phase-aligned 3 queries", &RunFacts::phase_aligned_seconds},
  };
  for (const Anchor& a : anchors) {
    const RunFacts& f = facts[a.workload];
    const double got = a.value ? f.*a.value : f.phases.TotalSeconds();
    const double want = BaselineSeconds(a.file, a.label);
    std::printf("anchor %-16s %-24s %.17g (baseline %.17g)\n", a.workload, a.label,
                got, want);
    checks.Expect(got == want, std::string("anchor ") + a.workload + " equals " +
                                   a.file + " row '" + a.label + "'");
  }
  CheckBenchmarkJson(end_to_end, per_layer, &checks);
  std::printf("smoke: %llu checks, %llu failed\n",
              static_cast<unsigned long long>(checks.attempted()),
              static_cast<unsigned long long>(checks.failed()));
  return checks.failed() == 0 ? 0 : 1;
}

[[noreturn]] void Usage(const char* argv0, const std::string& error) {
  std::fprintf(stderr,
               "error: %s\n"
               "usage: %s --workload NAME --seed N --seconds S --trace 0|1 "
               "--out-dir DIR\n"
               "       %s --smoke --out-dir DIR\n"
               "workloads:",
               error.c_str(), argv0, argv0);
  for (const BenchWorkload& w : Workloads()) std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty() || text.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  *out = std::strtoull(text.c_str(), nullptr, 10);
  return true;
}

int Main(int argc, char** argv) {
  std::string workload_name;
  std::string out_dir;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  uint64_t trace = 0;
  bool smoke = false;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
      continue;
    }
    if (i + 1 >= argc) Usage(argv[0], "missing value for " + arg);
    const std::string value = argv[++i];
    if (arg == "--workload") {
      workload_name = value;
    } else if (arg == "--out-dir") {
      out_dir = value;
    } else if (arg == "--seed") {
      have_seed = ParseU64(value, &seed);
      if (!have_seed) Usage(argv[0], "invalid --seed " + value);
    } else if (arg == "--seconds") {
      have_seconds = ParseU64(value, &seconds) && seconds > 0;
      if (!have_seconds) Usage(argv[0], "invalid --seconds " + value);
    } else if (arg == "--trace") {
      have_trace = ParseU64(value, &trace) && trace <= 1;
      if (!have_trace) Usage(argv[0], "invalid --trace " + value);
    } else {
      Usage(argv[0], "unknown flag " + arg);
    }
  }
  if (out_dir.empty()) Usage(argv[0], "--out-dir is required");
  const BenchWorkload* workload = FindWorkload(workload_name);
  if (!smoke && (workload == nullptr || !have_seed || !have_seconds || !have_trace)) {
    Usage(argv[0], workload == nullptr ? "unknown workload '" + workload_name + "'"
                                       : "--seed, --seconds and --trace are required");
  }

  // Exports of the forensics workload go to a private directory, removed at
  // exit.
  namespace fs = std::filesystem;
  const std::string scratch = out_dir + "/tmp-" + std::to_string(getpid());
  std::error_code ec;
  fs::create_directories(scratch, ec);
  if (ec) {
    std::fprintf(stderr, "error: cannot create %s: %s\n", scratch.c_str(),
                 ec.message().c_str());
    return 2;
  }
  int status = 0;
  if (smoke) {
    status = Smoke(scratch);
  } else {
    Outcome out;
    if (trace == 0) {
      out = MeasureEndToEnd(*workload, workload->scale, seed,
                            static_cast<double>(seconds), kMinRuns, scratch);
      PrintMetrics(out.metrics);
      PrintAccuracy(*workload, out);
    } else {
      const std::string spans_out =
          out_dir + "/spans-" + workload->name + "-seed" + std::to_string(seed) + ".json";
      out = MeasurePerLayer(*workload, workload->scale, seed, scratch, spans_out);
      PrintMetrics(out.metrics);
      std::printf("  host spans written to %s\n", spans_out.c_str());
    }
    std::printf("%s\n", ResultJson(out).c_str());
  }
  fs::remove_all(scratch, ec);
  return status;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
