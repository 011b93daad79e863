#include "timing/run_diff.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "cluster/presets.h"
#include "fault/injector.h"
#include "fault/schedule.h"
#include "join/distributed_join.h"
#include "timing/replay.h"
#include "util/json.h"
#include "workload/generator.h"

namespace rdmajoin {
namespace {

void Appendf(std::string* out, const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  out->append(buf);
}

/// Serializes one replayed run into the bench JSON schema (the same shape
/// bench::BenchReporter emits), so DiffRuns can drill into real attribution.
std::string BenchFromReplay(const ReplayReport& replay, uint64_t seed,
                            const std::string& label = "join") {
  std::string out;
  Appendf(&out,
          "{\"schema_version\":1,\"bench\":\"diff_test\",\"scale_up\":1024,"
          "\"seed\":%llu,\"rows\":[{\"label\":\"%s\",\"ok\":true,"
          "\"verified\":true,\"measured_seconds\":%.17g,\"phases\":{"
          "\"histogram_seconds\":%.17g,\"network_partition_seconds\":%.17g,"
          "\"local_partition_seconds\":%.17g,\"build_probe_seconds\":%.17g},"
          "\"attribution\":{\"critical_path\":[",
          static_cast<unsigned long long>(seed), label.c_str(),
          replay.attribution.MakespanSeconds(), replay.phases.histogram_seconds,
          replay.phases.network_partition_seconds,
          replay.phases.local_partition_seconds,
          replay.phases.build_probe_seconds);
  bool first = true;
  for (const CriticalPathStep& step : replay.attribution.CriticalPath()) {
    if (!first) out += ",";
    first = false;
    Appendf(&out,
            "{\"phase\":\"%s\",\"machine\":%u,\"seconds\":%.17g,"
            "\"breakdown\":{\"compute_seconds\":%.17g,"
            "\"network_seconds\":%.17g,\"buffer_stall_seconds\":%.17g,"
            "\"barrier_wait_seconds\":%.17g,\"fault_recovery_seconds\":%.17g}}",
            std::string(JoinPhaseName(step.phase)).c_str(), step.machine,
            step.phase_seconds, step.breakdown.compute_seconds,
            step.breakdown.network_seconds, step.breakdown.buffer_stall_seconds,
            step.breakdown.barrier_wait_seconds,
            step.breakdown.fault_recovery_seconds);
  }
  out += "]}}]}";
  return out;
}

RunArtifacts ArtifactsFromReplay(const ReplayReport& replay, uint64_t seed) {
  auto doc = ParseBenchJson(BenchFromReplay(replay, seed));
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  RunArtifacts artifacts;
  artifacts.bench = std::move(*doc);
  if (replay.spans != nullptr) artifacts.spans = replay.spans->Snapshot();
  return artifacts;
}

JoinRunResult RunJoin(const ClusterConfig& cluster, JoinConfig config) {
  WorkloadSpec spec;
  spec.inner_tuples = 20000;
  spec.outer_tuples = 40000;
  spec.seed = 42;
  auto workload = GenerateWorkload(spec, cluster.num_machines);
  EXPECT_TRUE(workload.ok()) << workload.status().ToString();
  config.network_radix_bits = 5;
  config.scale_up = 1024.0;
  DistributedJoin join(cluster, config);
  auto result = join.Run(workload->inner, workload->outer);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return std::move(*result);
}

/// A minimal hand-written two-row bench doc for perturbation tests. The
/// network pass of row "r0" takes `net` seconds, with the critical machine's
/// breakdown splitting it into `net_network` + `net_stall` (+ compute).
std::string HandDoc(double net, double net_network, double net_stall,
                    uint32_t machine) {
  std::string out;
  Appendf(&out,
          "{\"schema_version\":1,\"bench\":\"hand\",\"scale_up\":64,"
          "\"seed\":7,\"rows\":[{\"label\":\"r0\",\"ok\":true,"
          "\"verified\":true,\"measured_seconds\":%.17g,\"phases\":{"
          "\"histogram_seconds\":1.0,\"network_partition_seconds\":%.17g,"
          "\"local_partition_seconds\":1.0,\"build_probe_seconds\":1.0},"
          "\"attribution\":{\"critical_path\":["
          "{\"phase\":\"network-partition\",\"machine\":%u,"
          "\"seconds\":%.17g,\"breakdown\":{\"compute_seconds\":%.17g,"
          "\"network_seconds\":%.17g,\"buffer_stall_seconds\":%.17g,"
          "\"barrier_wait_seconds\":0}}]}}]}",
          3.0 + net, net, machine, net,
          net - net_network - net_stall, net_network, net_stall);
  return out;
}

RunArtifacts HandArtifacts(double net, double net_network, double net_stall,
                           uint32_t machine) {
  auto doc = ParseBenchJson(HandDoc(net, net_network, net_stall, machine));
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  RunArtifacts a;
  a.bench = std::move(*doc);
  return a;
}

TEST(RunDiff, IdenticalRunsReportZeroDivergence) {
  JoinRunResult run = RunJoin(QdrCluster(4), JoinConfig{});
  const RunArtifacts a = ArtifactsFromReplay(run.replay, 42);
  const RunArtifacts b = ArtifactsFromReplay(run.replay, 42);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->zero_divergence);
  EXPECT_FALSE(report->HasDivergence());
  EXPECT_EQ(report->verdict, "runs are identical (zero divergence)");
  // Both spans present -> the stage drill-down exists; nothing diverged.
  EXPECT_FALSE(report->stages.empty());
  EXPECT_TRUE(report->flows.empty());
  // Zero tolerances (the CI determinism cross-check) still exit clean.
  RunDiffOptions exact;
  exact.relative_tolerance = 0;
  exact.absolute_tolerance_seconds = 0;
  auto strict = DiffRuns(a, b, exact);
  ASSERT_TRUE(strict.ok());
  EXPECT_FALSE(strict->HasDivergence());
}

TEST(RunDiff, SlowerRowDrillsToDominantPhaseAndBucket) {
  // B's network pass is 50% longer, all of it in the network bucket.
  const RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  const RunArtifacts b = HandArtifacts(3.0, 2.0, 0.5, 2);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->zero_divergence);
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 1u);
  const RowDelta& rd = report->rows[0];
  EXPECT_TRUE(rd.slower);
  EXPECT_FALSE(rd.faster);
  EXPECT_EQ(rd.dominant_phase, "network-partition");
  const PhaseDelta& net = rd.phases[1];
  EXPECT_EQ(net.phase, "network-partition");
  EXPECT_NEAR(net.delta_seconds, 1.0, 1e-12);
  EXPECT_EQ(net.a_machine, 1u);
  EXPECT_EQ(net.b_machine, 2u);
  EXPECT_EQ(net.dominant_bucket, "network");
  EXPECT_NEAR(net.dominant_bucket_share, 1.0, 1e-12);
  // The narrative localizes the movement, e.g.
  // "network-partition +50.0% on machine 2, 100% of it network".
  EXPECT_NE(rd.narrative.find("network-partition"), std::string::npos);
  EXPECT_NE(rd.narrative.find("machine 2"), std::string::npos);
  EXPECT_NE(rd.narrative.find("network"), std::string::npos);
  EXPECT_NE(report->verdict.find("r0"), std::string::npos);
  // The human report prints the drill-down for the slower row.
  const std::string text = FormatRunDiff(*report);
  EXPECT_NE(text.find("SLOWER"), std::string::npos);
  EXPECT_NE(text.find("critical machine 1 -> 2"), std::string::npos);
}

TEST(RunDiff, FasterRowOnlyDrilledWithReportImprovements) {
  const RunArtifacts a = HandArtifacts(3.0, 2.0, 0.5, 1);
  const RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  ASSERT_EQ(report->rows.size(), 1u);
  EXPECT_TRUE(report->rows[0].faster);
  EXPECT_EQ(report->rows_faster, 1u);
  const std::string quiet = FormatRunDiff(*report, false);
  const std::string loud = FormatRunDiff(*report, true);
  EXPECT_EQ(quiet.find("critical machine"), std::string::npos);
  EXPECT_NE(loud.find("critical machine"), std::string::npos);
}

TEST(RunDiff, LinkDegradeLocalizesToTheNetworkPass) {
  // Same workload and seed, one run fault-free, one with machine 2's ports
  // degraded for the whole network pass. The diff must localize the
  // regression: network-partition dominant, the movement booked in the
  // network/stall/fault buckets, and the narrative naming the machine that
  // now defines the barrier. (With a degraded ingress link the barrier is
  // typically defined by a *peer* stalling on send credits to the slow
  // host, so the critical machine need not be machine 2 itself.)
  JoinRunResult clean = RunJoin(QdrCluster(4), JoinConfig{});

  FaultSchedule schedule;
  FaultEvent ev;
  ev.kind = FaultKind::kLinkDegrade;
  ev.machine = 2;
  ev.start_seconds = 0;
  ev.duration_seconds = 1e9;
  ev.factor = 0.25;
  schedule.events.push_back(ev);
  FaultInjector injector(schedule);
  JoinConfig faulty_config;
  faulty_config.fault_injector = &injector;
  JoinRunResult degraded = RunJoin(QdrCluster(4), faulty_config);

  const RunArtifacts a = ArtifactsFromReplay(clean.replay, 42);
  const RunArtifacts b = ArtifactsFromReplay(degraded.replay, 42);
  RunDiffOptions options;
  options.relative_tolerance = 0.01;
  options.absolute_tolerance_seconds = 1e-6;
  auto report = DiffRuns(a, b, options);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 1u);
  const RowDelta& rd = report->rows[0];
  EXPECT_TRUE(rd.slower);
  EXPECT_EQ(rd.dominant_phase, "network-partition");
  const PhaseDelta& net = rd.phases[1];
  EXPECT_GT(net.delta_seconds, 0);
  EXPECT_LT(net.b_machine, 4u);
  EXPECT_TRUE(net.dominant_bucket == "network" ||
              net.dominant_bucket == "fault_recovery" ||
              net.dominant_bucket == "buffer_stall")
      << "dominant bucket was " << net.dominant_bucket;
  char machine_tag[32];
  std::snprintf(machine_tag, sizeof(machine_tag), "machine %u", net.b_machine);
  EXPECT_NE(rd.narrative.find(machine_tag), std::string::npos) << rd.narrative;
}

TEST(RunDiff, PerturbedSpansSurfaceTheDivergingFlow) {
  JoinRunResult run = RunJoin(QdrCluster(3), JoinConfig{});
  RunArtifacts a = ArtifactsFromReplay(run.replay, 42);
  RunArtifacts b = ArtifactsFromReplay(run.replay, 42);
  ASSERT_TRUE(a.spans.has_value() && b.spans.has_value());
  ASSERT_FALSE(b.spans->spans.empty());
  WrSpan& victim = b.spans->spans[0];
  victim.stage[4] += 0.5;  // This work request completed half a second late.
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_FALSE(report->zero_divergence);
  ASSERT_FALSE(report->flows.empty());
  EXPECT_EQ(report->flows[0].id, victim.id);
  EXPECT_NEAR(report->flows[0].delta_duration, 0.5, 1e-9);
}

TEST(RunDiff, MetricsSnapshotsAreCompared) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto ma = ParseJson(
      "{\"counters\":{\"fabric.delivered\":100},"
      "\"gauges\":{\"join.rate\":{\"value\":2.5}}}");
  auto mb = ParseJson(
      "{\"counters\":{\"fabric.delivered\":120},"
      "\"gauges\":{\"join.rate\":{\"value\":2.5}}}");
  ASSERT_TRUE(ma.ok() && mb.ok());
  a.metrics = std::move(*ma);
  b.metrics = std::move(*mb);
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->metrics_compared, 2u);
  EXPECT_EQ(report->metrics_diverged, 1u);
  ASSERT_EQ(report->metrics.size(), 1u);
  EXPECT_EQ(report->metrics[0].name, "counters.fabric.delivered");
  EXPECT_NEAR(report->metrics[0].delta, 20.0, 1e-12);
  EXPECT_FALSE(report->zero_divergence);
  // Bench rows are identical, so no row-level divergence: metrics deepen the
  // forensics but do not trip the gate by themselves.
  EXPECT_FALSE(report->HasDivergence());
  // One-sided artifact presence also kills zero_divergence.
  RunArtifacts c = HandArtifacts(2.0, 1.0, 0.5, 1);
  auto lopsided = DiffRuns(a, c);
  ASSERT_TRUE(lopsided.ok());
  EXPECT_FALSE(lopsided->zero_divergence);
}

TEST(RunDiff, MissingRowIsDivergence) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  // Rename B's row so A's "r0" has no match and B's row is B-only.
  b.bench.rows[0].label = "r1";
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->rows_missing, 2u);
  EXPECT_FALSE(report->zero_divergence);
  EXPECT_TRUE(report->HasDivergence());
  ASSERT_EQ(report->rows.size(), 2u);
  EXPECT_TRUE(report->rows[0].missing_in_b);
  EXPECT_TRUE(report->rows[1].only_in_b);
  EXPECT_EQ(report->rows[1].narrative, "row only present in run B");
}

TEST(RunDiff, IncomparableDocumentsAreRejected) {
  RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  RunArtifacts b = HandArtifacts(2.0, 1.0, 0.5, 1);
  b.bench.bench = "other";
  EXPECT_FALSE(DiffRuns(a, b).ok());
  b.bench.bench = a.bench.bench;
  b.bench.scale_up = 128;
  EXPECT_FALSE(DiffRuns(a, b).ok());
  // Seeds MAY differ (comparing a new seed against history is legitimate);
  // the report records both.
  b.bench.scale_up = a.bench.scale_up;
  b.bench.seed = 99;
  auto report = DiffRuns(a, b);
  ASSERT_TRUE(report.ok());
  EXPECT_EQ(report->seed_a, 7u);
  EXPECT_EQ(report->seed_b, 99u);
}

TEST(RunDiff, CriticalStepMachineOutOfRangeIsRejected) {
  std::string doc = HandDoc(2.0, 1.0, 0.5, 1);
  const std::string machine = "\"machine\":1,";
  ASSERT_NE(doc.find(machine), std::string::npos);
  doc.replace(doc.find(machine), machine.size(), "\"machine\":1e30,");
  auto parsed = ParseBenchJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  RunArtifacts b;
  b.bench = std::move(*parsed);
  const auto report = DiffRuns(HandArtifacts(2.0, 1.0, 0.5, 1), b);
  ASSERT_FALSE(report.ok());
  EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
}

TEST(RunDiff, JsonExportIsDeterministic) {
  const RunArtifacts a = HandArtifacts(2.0, 1.0, 0.5, 1);
  const RunArtifacts b = HandArtifacts(3.0, 2.0, 0.5, 2);
  auto r1 = DiffRuns(a, b);
  auto r2 = DiffRuns(a, b);
  ASSERT_TRUE(r1.ok() && r2.ok());
  const std::string j1 = RunDiffToJson(*r1);
  EXPECT_EQ(j1, RunDiffToJson(*r2));
  EXPECT_NE(j1.find("\"schema_version\":1"), std::string::npos);
  EXPECT_NE(j1.find("\"zero_divergence\":false"), std::string::npos);
  EXPECT_NE(j1.find("\"dominant_phase\":\"network-partition\""),
            std::string::npos);
  // The export round-trips through the JSON parser.
  EXPECT_TRUE(ParseJson(j1).ok());
}

// ---------- The rdmajoin_analyze --diff gate (GateRuns) ----------

struct GateRow {
  const char* label;
  double seconds;
  bool ok = true;
};

/// A bench document with rows `rows`, no phases or attribution.
std::string GateDoc(const std::vector<GateRow>& rows, const char* bench = "x",
                    uint64_t seed = 42, double scale = 8192.0) {
  std::string out;
  Appendf(&out,
          "{\"schema_version\":1,\"bench\":\"%s\",\"scale_up\":%s,"
          "\"seed\":%llu,\"rows\":[",
          bench, JsonNumber(scale).c_str(),
          static_cast<unsigned long long>(seed));
  for (size_t i = 0; i < rows.size(); ++i) {
    Appendf(&out,
            "%s{\"label\":\"%s\",\"ok\":%s,\"verified\":true,"
            "\"measured_seconds\":%s}",
            i > 0 ? "," : "", rows[i].label, rows[i].ok ? "true" : "false",
            JsonNumber(rows[i].seconds).c_str());
  }
  out += "]}";
  return out;
}

/// One input of the gate and the verdict it must keep. Every case but the
/// last is a test of the gate's earlier bench-JSON differ, ported with its
/// verdict unchanged; the default RunDiffOptions margins (5 %, 20 ms) are
/// the ones those tests used.
struct GateCase {
  std::string test;  ///< the name of the TEST that runs this case
  std::string name;
  std::string baseline;
  std::string current;
  bool comparable;  ///< false: rejected, rdmajoin_analyze exits 2
  bool regressed;   ///< the verdict: rdmajoin_analyze exits 1
  size_t slower, faster, missing;
  /// Lines FormatRunDiff prints only with --report-improvements.
  std::vector<std::string> improvement_drills;
};

std::vector<GateCase> GateCases() {
  const bool ok = true, fails = true, rejected = false;
  const std::string kBase = GateDoc({{"a", 4.0}, {"b", 8.0}});
  // test, name, baseline, current, comparable, regressed, slower, faster,
  // missing, improvement drills
  return {
      {"IdenticalDocumentsAreClean", "identical", kBase, kBase, ok, !fails, 0,
       0, 0, {}},
      {"SlowdownBeyondToleranceRegresses", "b slower by 11.25 %", kBase,
       GateDoc({{"a", 4.0}, {"b", 8.9}}), ok, fails, 1, 0, 0, {}},
      {"SlowdownWithinTolerancePasses", "a, b slower by 2.5 %, 3.75 %",
       kBase,
       GateDoc({{"a", 4.1}, {"b", 8.3}}), ok, !fails, 0, 0, 0, {}},
      // 50 % slower, but only 10 ms: below the 20 ms absolute guard.
      {"AbsoluteToleranceAbsorbsMicroRowNoise", "a slower by 10 ms",
       GateDoc({{"a", 0.02}, {"b", 8.0}}), GateDoc({{"a", 0.03}, {"b", 8.0}}),
       ok, !fails, 0, 0, 0, {}},
      {"ImprovementIsCountedButDoesNotFail", "b faster", kBase,
       GateDoc({{"a", 4.0}, {"b", 6.0}}), ok, !fails, 0, 1, 0,
       {"'b': no phase-level movement"}},
      {"ReportImprovementsAppendsTheSpeedupSection", "a, b faster", kBase,
       GateDoc({{"a", 3.0}, {"b", 6.0}}), ok, !fails, 0, 2, 0,
       {"'a': no phase-level movement", "'b': no phase-level movement"}},
      {"MissingBaselineRowFailsTheGate", "b missing", kBase,
       GateDoc({{"a", 4.0}}), ok, fails, 0, 0, 1, {}},
      {"FailedRowInCurrentCountsAsMissing", "b failed", kBase,
       GateDoc({{"a", 4.0}, {"b", 8.0, false}}), ok, fails, 0, 0, 1, {}},
      {"IncomparableDocumentsAreRejected", "different bench", kBase,
       GateDoc({{"a", 4.0}, {"b", 8.0}}, "y"), rejected, !fails, 0, 0, 0, {}},
      {"IncomparableDocumentsAreRejected", "different seed", kBase,
       GateDoc({{"a", 4.0}, {"b", 8.0}}, "x", 43), rejected, !fails, 0, 0, 0,
       {}},
      {"IncomparableDocumentsAreRejected", "different scale", kBase,
       GateDoc({{"a", 4.0}, {"b", 8.0}}, "x", 42, 1024.0), rejected, !fails, 0,
       0, 0, {}},
      // Stricter than the earlier differ, which ignored such rows.
      {"RowOnlyInCurrentFails", "c only in current", kBase,
       GateDoc({{"a", 4.0}, {"b", 8.0}, {"c", 1.0}}), ok, fails, 0, 0, 1, {}},
  };
}

RunArtifacts GateRun(const std::string& json) {
  auto doc = ParseBenchJson(json);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString();
  RunArtifacts run;
  run.bench = std::move(*doc);
  return run;
}

/// Runs every GateCases() row of `test` through GateRuns and checks the
/// verdict, the counts and both FormatRunDiff reports.
void ExpectGateVerdicts(const std::string& test) {
  size_t ran = 0;
  for (const GateCase& c : GateCases()) {
    if (c.test != test) continue;
    ++ran;
    SCOPED_TRACE(c.name);
    auto report = GateRuns(GateRun(c.baseline), GateRun(c.current));
    if (!c.comparable) {
      EXPECT_FALSE(report.ok());
      EXPECT_EQ(report.status().code(), StatusCode::kInvalidArgument);
      continue;
    }
    if (!report.ok()) {
      ADD_FAILURE() << report.status().ToString();
      continue;
    }
    EXPECT_EQ(report->Regressed(), c.regressed);
    EXPECT_EQ(report->rows_slower, c.slower);
    EXPECT_EQ(report->rows_faster, c.faster);
    EXPECT_EQ(report->rows_missing, c.missing);
    // A failing verdict names the row that failed it.
    if (c.regressed) {
      EXPECT_NE(report->verdict.find("'"), std::string::npos)
          << report->verdict;
    }
    for (const RowDelta& rd : report->rows) {
      if (rd.missing_in_b || rd.a_seconds == 0) continue;
      EXPECT_NEAR(rd.delta_seconds, rd.b_seconds - rd.a_seconds, 1e-12);
      EXPECT_NEAR(rd.ratio, rd.b_seconds / rd.a_seconds, 1e-12);
    }
    const std::string plain = FormatRunDiff(*report);
    EXPECT_EQ(plain.find("SLOWER") != std::string::npos, c.slower > 0);
    EXPECT_EQ(plain.find("MISSING") != std::string::npos ||
                  plain.find("ONLY IN B") != std::string::npos,
              c.missing > 0);
    // --report-improvements appends the faster rows' drill-downs and never
    // changes the verdict.
    const std::string verbose =
        FormatRunDiff(*report, /*report_improvements=*/true);
    EXPECT_EQ(verbose.find(plain), 0u) << "the plain report is a prefix";
    for (const std::string& line : c.improvement_drills) {
      EXPECT_EQ(plain.find(line), std::string::npos) << line;
      EXPECT_NE(verbose.find(line), std::string::npos) << line;
    }
    if (c.improvement_drills.empty()) {
      EXPECT_EQ(verbose, plain);
    }
  }
  EXPECT_GT(ran, 0u) << "no gate case for " << test;
}

TEST(BenchDiff, IdenticalDocumentsAreClean) {
  ExpectGateVerdicts("IdenticalDocumentsAreClean");
}
TEST(BenchDiff, SlowdownBeyondToleranceRegresses) {
  ExpectGateVerdicts("SlowdownBeyondToleranceRegresses");
}
TEST(BenchDiff, SlowdownWithinTolerancePasses) {
  ExpectGateVerdicts("SlowdownWithinTolerancePasses");
}
TEST(BenchDiff, AbsoluteToleranceAbsorbsMicroRowNoise) {
  ExpectGateVerdicts("AbsoluteToleranceAbsorbsMicroRowNoise");
}
TEST(BenchDiff, ImprovementIsCountedButDoesNotFail) {
  ExpectGateVerdicts("ImprovementIsCountedButDoesNotFail");
}
TEST(BenchDiff, ReportImprovementsAppendsTheSpeedupSection) {
  ExpectGateVerdicts("ReportImprovementsAppendsTheSpeedupSection");
}
TEST(BenchDiff, MissingBaselineRowFailsTheGate) {
  ExpectGateVerdicts("MissingBaselineRowFailsTheGate");
}
TEST(BenchDiff, FailedRowInCurrentCountsAsMissing) {
  ExpectGateVerdicts("FailedRowInCurrentCountsAsMissing");
}
TEST(BenchDiff, IncomparableDocumentsAreRejected) {
  ExpectGateVerdicts("IncomparableDocumentsAreRejected");
}
TEST(RunDiff, RowOnlyInCurrentFails) {
  ExpectGateVerdicts("RowOnlyInCurrentFails");
}

}  // namespace
}  // namespace rdmajoin
