// Seeded mutation fuzzing of every on-disk JSON reader. Each reader gets its
// format's real documents -- generated traces and span datasets, a schedule,
// a fault schedule, and the committed bench baselines -- and then truncated,
// bit-flipped and digit-inflated variants of them. A reader may accept or
// reject a variant, but it must answer with a Status: under the asan-ubsan
// preset, a crash or an undefined cast fails the test. Unmutated documents
// must parse and, where the format has a writer, re-serialize to the same
// bytes. The write-only formats (run diff, utilization, congestion, metrics
// snapshot, Chrome trace, lint findings) join the corpus with ParseJson as
// their reader, so every document JsonWriter produces is checked to parse.

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/presets.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "lint/lint.h"
#include "sched/scheduler.h"
#include "timing/chrome_trace.h"
#include "timing/replay.h"
#include "timing/run_diff.h"
#include "timing/span_query.h"
#include "timing/span_trace.h"
#include "tests/fault_schedule_json.h"
#include "timing/trace_io.h"
#include "timing/utilization.h"
#include "util/bench_json.h"
#include "util/json.h"
#include "util/metrics.h"
#include "util/random.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

constexpr uint64_t kSeed = 20150531;
/// Mutated variants per document.
constexpr int kVariants = 300;

/// One document and the reader of its format. `reserialize` is null for
/// formats without a writer of the parsed value.
struct Case {
  std::string name;
  std::string text;
  std::function<Status(const std::string&)> read;
  std::function<StatusOr<std::string>(const std::string&)> reserialize;
};

template <typename T>
std::function<Status(const std::string&)> StatusOf(
    StatusOr<T> (*reader)(const std::string&)) {
  return [reader](const std::string& text) { return reader(text).status(); };
}

template <typename T>
std::function<StatusOr<std::string>(const std::string&)> Reserialize(
    StatusOr<T> (*reader)(const std::string&), std::string (*writer)(const T&)) {
  return [reader, writer](const std::string& text) -> StatusOr<std::string> {
    StatusOr<T> parsed = reader(text);
    if (!parsed.ok()) return parsed.status();
    return writer(*parsed);
  };
}

/// A variant of `text`: truncated at a random length, one random bit
/// flipped, or a number made oversized (a long digit run, a large exponent)
/// or negative.
std::string Mutate(const std::string& text, Random* rng) {
  std::string out = text;
  if (out.empty()) return out;
  const size_t at = rng->Uniform(out.size());
  switch (rng->Uniform(3)) {
    case 0:
      out.resize(at);
      return out;
    case 1:
      out[at] = static_cast<char>(out[at] ^ (1 << rng->Uniform(8)));
      return out;
    default: {
      size_t digit = out.find_first_of("0123456789", at);
      if (digit == std::string::npos) digit = out.find_first_of("0123456789");
      if (digit == std::string::npos) return out;
      static const char* const kInflations[] = {"999999999999999999999", "e30",
                                                "e308", "0000000000"};
      if (rng->Uniform(4) == 0) {
        out.insert(digit, "-");
      } else {
        out.insert(digit + 1, kInflations[rng->Uniform(4)]);
      }
      return out;
    }
  }
}

std::string ReadFileOrDie(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

/// A small join's trace, pushed by the default transport or pulled by RDMA
/// READ; `replay` (optional) receives its replay, recording into `metrics`.
RunTrace SmallTrace(bool pull, ReplayReport* replay,
                    MetricsRegistry* metrics = nullptr) {
  WorkloadSpec spec;
  spec.inner_tuples = 2000;
  spec.outer_tuples = 4000;
  auto w = GenerateWorkload(spec, 3);
  EXPECT_TRUE(w.ok());
  JoinConfig jc;
  jc.network_radix_bits = 3;
  jc.scale_up = 512.0;
  ClusterConfig cluster = QdrCluster(3);
  if (pull) cluster.transport = TransportKind::kRdmaRead;
  auto result = DistributedJoin(cluster, jc).Run(w->inner, w->outer);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  ReplayOptions options;
  options.metrics = metrics;
  if (replay != nullptr) *replay = ReplayTrace(cluster, jc, result->trace, options);
  return result->trace;
}

ScheduleReport HandSchedule() {
  ScheduleReport report;
  report.policy = SchedPolicy::kOverlap;
  report.makespan_seconds = 3.25;
  report.completed = 2;
  for (uint32_t q = 0; q < 2; ++q) {
    QueryOutcome outcome;
    outcome.id = q;
    outcome.label = "q" + std::to_string(q);
    outcome.weight = q + 1;
    outcome.finish_seconds = 1.5 + q;
    outcome.completed = true;
    outcome.latency_seconds = 1.5 + q;
    outcome.attribution[0].compute_seconds = 0.125;
    report.queries.push_back(outcome);
  }
  report.idle_windows.push_back(SchedIdleWindow{true, 0.5, 0.75, 1});
  return report;
}

RunDiffReport HandRunDiff() {
  RunDiffReport report;
  report.bench = "fig07a";
  report.scale_up = 65536;
  report.seed_b = 43;
  report.verdict = "network-partition \"slower\"\n on machine 2";
  RowDelta row;
  row.label = "qdr/4";
  row.a_seconds = 1.25;
  row.b_seconds = 1.5;
  row.slower = true;
  row.dominant_phase = "network-partition";
  PhaseDelta phase;
  phase.phase = "network-partition";
  phase.dominant_bucket = "network";
  phase.buckets.push_back(BucketDelta{"network", 0.5, 0.75, 0.25});
  row.phases.push_back(phase);
  report.rows.push_back(row);
  report.stages.push_back(
      StageDelta{"credit_acquired", 10, 12, 0.5, 0.75, 1, 2, 3, 4, 1});
  report.flows.push_back(FlowDelta{7, 1, 1, 2, 0.25, 0.5, 0.25});
  report.metrics.push_back(MetricDelta{"fabric.host0.egress_bytes", 1, 2, 1});
  return report;
}

lint::LintResult HandLintFindings() {
  lint::LintResult result;
  result.findings.push_back(
      {"raw-random", "src/a \"b\".cc", 3, "banned `rand`\t(x)", true});
  result.findings.push_back({"env-read", "src/c.cc", 9, "banned `getenv`", false});
  result.burn_down.push_back({"env-read", "src/gone.cc", 2});
  result.total = 2;
  result.baselined = 1;
  result.unsuppressed = 1;
  return result;
}

std::vector<Case> Corpus() {
  std::vector<Case> corpus;
  ReplayReport replay;
  MetricsRegistry metrics;
  const RunTrace push = SmallTrace(/*pull=*/false, &replay, &metrics);
  const RunTrace pull = SmallTrace(/*pull=*/true, nullptr);
  const auto trace_rt = Reserialize(&TraceFromJson, &TraceToJson);
  corpus.push_back({"push trace", TraceToJson(push), StatusOf(&TraceFromJson),
                    trace_rt});
  corpus.push_back({"pull trace", TraceToJson(pull), StatusOf(&TraceFromJson),
                    trace_rt});
  EXPECT_NE(replay.spans, nullptr);
  if (replay.spans != nullptr) {
    corpus.push_back({"span dataset", SpanDatasetToJson(replay.spans->Snapshot()),
                      StatusOf(&ParseSpanDatasetJson),
                      Reserialize(&ParseSpanDatasetJson, &SpanDatasetToJson)});
  }
  // Write-only formats: tools and humans read them, through ParseJson.
  const auto tree = [](const std::string& text) { return ParseJson(text).status(); };
  corpus.push_back({"run diff", RunDiffToJson(HandRunDiff()), tree, nullptr});
  corpus.push_back({"utilization",
                    UtilizationToJson(ComputeUtilization(replay, nullptr)), tree,
                    nullptr});
  if (replay.spans != nullptr) {
    corpus.push_back(
        {"congestion",
         CongestionReportToJson(
             ComputeCongestion(replay.spans->Snapshot(), CongestionOptions())),
         tree, nullptr});
  }
  corpus.push_back({"metrics snapshot", metrics.SnapshotJson(), tree, nullptr});
  corpus.push_back({"chrome trace", ChromeTraceJson(replay, &metrics), tree, nullptr});
  corpus.push_back({"lint findings", lint::FindingsToJson(HandLintFindings()), tree,
                    nullptr});
  corpus.push_back({"schedule", ScheduleReportToJson(HandSchedule()),
                    StatusOf(&ParseScheduleReport),
                    Reserialize(&ParseScheduleReport, &ScheduleReportToJson)});
  auto chaos = MakeFaultPreset("chaos", 7, 4);
  EXPECT_TRUE(chaos.ok());
  corpus.push_back({"fault schedule", FaultScheduleToJson(*chaos),
                    StatusOf(&FaultScheduleFromJson),
                    Reserialize(&FaultScheduleFromJson, &FaultScheduleToJson)});

  const std::filesystem::path root(RDMAJOIN_REPO_ROOT);
  std::vector<std::filesystem::path> baselines;
  for (const auto& entry :
       std::filesystem::directory_iterator(root / "bench" / "baselines")) {
    if (entry.path().extension() == ".json") baselines.push_back(entry.path());
  }
  std::sort(baselines.begin(), baselines.end());
  EXPECT_FALSE(baselines.empty());
  for (const auto& path : baselines) {
    corpus.push_back({path.filename().string(), ReadFileOrDie(path),
                      StatusOf(&ParseBenchJson), nullptr});
  }
  EXPECT_GE(corpus.size(), 16u);
  return corpus;
}

TEST(JsonFuzz, UnmutatedDocumentsRoundTrip) {
  for (const Case& c : Corpus()) {
    EXPECT_TRUE(ParseJson(c.text).ok()) << c.name;
    const Status status = c.read(c.text);
    EXPECT_TRUE(status.ok()) << c.name << ": " << status.ToString();
    if (c.reserialize == nullptr) continue;
    const StatusOr<std::string> again = c.reserialize(c.text);
    ASSERT_TRUE(again.ok()) << c.name;
    EXPECT_EQ(*again, c.text) << c.name;
  }
}

TEST(JsonFuzz, MutatedDocumentsYieldAStatus) {
  Random rng(kSeed);
  for (const Case& c : Corpus()) {
    size_t rejected = 0;
    for (int i = 0; i < kVariants; ++i) {
      const std::string variant = Mutate(c.text, &rng);
      // Both the tree reader and the format's own reader see every variant.
      const Status tree = ParseJson(variant).status();
      const Status status = c.read(variant);
      if (!status.ok()) {
        ++rejected;
        EXPECT_NE(status.message(), "") << c.name;
      }
      // Every variant the generic parser rejects is malformed JSON, which no
      // format reader may accept.
      if (!tree.ok()) {
        EXPECT_FALSE(status.ok()) << c.name << " accepted: " << variant;
      }
    }
    EXPECT_GT(rejected, 0u) << c.name;
  }
}

}  // namespace
}  // namespace rdmajoin
