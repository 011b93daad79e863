// End-to-end smoke tests of the command-line tools: a small join is run
// through rdmajoin_cli, its artifacts are fed to rdmajoin_trace and
// rdmajoin_analyze, and every output is checked to parse and every exit code
// to match the documented contract. The tool binaries are injected by CMake
// via compile definitions.

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_temp_dir.h"
#include "util/json.h"

#ifndef RDMAJOIN_CLI_BIN
#error "RDMAJOIN_CLI_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_TRACE_BIN
#error "RDMAJOIN_TRACE_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_ANALYZE_BIN
#error "RDMAJOIN_ANALYZE_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_WHATIF_BIN
#error "RDMAJOIN_WHATIF_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_CHAOS_BIN
#error "RDMAJOIN_CHAOS_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_CHECK_BIN
#error "RDMAJOIN_CHECK_BIN must be defined by the build"
#endif
#ifndef RDMAJOIN_EXPLAIN_BIN
#error "RDMAJOIN_EXPLAIN_BIN must be defined by the build"
#endif

namespace rdmajoin {
namespace {

/// Runs `command` through the shell (stdout/stderr silenced) and returns its
/// exit status, or -1 when the child did not exit normally.
int RunTool(const std::string& command) {
  const std::string full = command + " >/dev/null 2>&1";
  const int raw = std::system(full.c_str());
  if (raw == -1) return -1;
#ifdef WIFEXITED
  if (!WIFEXITED(raw)) return -1;
  return WEXITSTATUS(raw);
#else
  return raw;
#endif
}

std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::string();
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

/// One shared CLI run whose artifacts several tests inspect. Each test runs
/// in its own process, which repeats SetUpTestSuite, so the artifacts go to
/// the process's own TestTempPath directory.
class ToolsSmokeTest : public testing::Test {
 protected:
  static void SetUpTestSuite() {
    trace_path_ = new std::string(TestTempPath("join.trace"));
    spans_path_ = new std::string(TestTempPath("spans.json"));
    chrome_path_ = new std::string(TestTempPath("chrome.json"));
    const std::string cmd = std::string(RDMAJOIN_CLI_BIN) +
                            " --cluster=qdr --machines=4 --inner=2048"
                            " --outer=2048 --scale=65536 --seed=42" +
                            " --trace-out=" + *trace_path_ +
                            " --spans-json=" + *spans_path_ +
                            " --chrome-trace=" + *chrome_path_;
    cli_exit_ = RunTool(cmd);
  }
  static void TearDownTestSuite() {
    delete trace_path_;
    delete spans_path_;
    delete chrome_path_;
    trace_path_ = spans_path_ = chrome_path_ = nullptr;
  }

  static std::string* trace_path_;
  static std::string* spans_path_;
  static std::string* chrome_path_;
  static int cli_exit_;
};

std::string* ToolsSmokeTest::trace_path_ = nullptr;
std::string* ToolsSmokeTest::spans_path_ = nullptr;
std::string* ToolsSmokeTest::chrome_path_ = nullptr;
int ToolsSmokeTest::cli_exit_ = -1;

TEST_F(ToolsSmokeTest, CliRunSucceedsAndWritesParsableArtifacts) {
  ASSERT_EQ(cli_exit_, 0);

  const std::string spans_text = ReadFileOrEmpty(*spans_path_);
  ASSERT_FALSE(spans_text.empty());
  auto spans = ParseJson(spans_text);
  ASSERT_TRUE(spans.ok()) << spans.status().ToString();
  ASSERT_TRUE(spans->is_object());
  const JsonValue* span_list = spans->Find("spans");
  ASSERT_NE(span_list, nullptr);
  ASSERT_TRUE(span_list->is_array());
  EXPECT_GT(span_list->array_items.size(), 0u);

  const std::string chrome_text = ReadFileOrEmpty(*chrome_path_);
  ASSERT_FALSE(chrome_text.empty());
  auto chrome = ParseJson(chrome_text);
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  const JsonValue* events = chrome->Find("traceEvents");
  ASSERT_NE(events, nullptr);
  ASSERT_TRUE(events->is_array());
  // The causal arrows made it into the export.
  bool has_flow_start = false, has_flow_end = false;
  for (const JsonValue& e : events->array_items) {
    const std::string ph = e.StringOr("ph", "");
    if (ph == "s") has_flow_start = true;
    if (ph == "f") has_flow_end = true;
  }
  EXPECT_TRUE(has_flow_start);
  EXPECT_TRUE(has_flow_end);
}

TEST_F(ToolsSmokeTest, AnalyzeSpansReportsAndChecksCleanly) {
  ASSERT_EQ(cli_exit_, 0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + *spans_path_),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + *spans_path_ + " --check"),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + *spans_path_ + " --check --top=3"),
            0);
}

TEST_F(ToolsSmokeTest, TraceToolReplaysTraceAndReexportsSpans) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string out = TestTempPath("replayed_chrome.json");
  const std::string respans = TestTempPath("replayed_spans.json");
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_TRACE_BIN) + " --trace=" +
                    *trace_path_ + " --out=" + out + " --spans-json=" +
                    respans),
            0);
  auto chrome = ParseJson(ReadFileOrEmpty(out));
  ASSERT_TRUE(chrome.ok()) << chrome.status().ToString();
  EXPECT_NE(chrome->Find("traceEvents"), nullptr);
  // The replayed span dataset passes the analyzer's invariant gate too.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    respans + " --check"),
            0);
}

TEST_F(ToolsSmokeTest, TraceToolReplaysOnEveryClusterPreset) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string replay = std::string(RDMAJOIN_TRACE_BIN) + " --trace=" +
                             *trace_path_ + " --out=" +
                             TestTempPath("preset_chrome.json");
  for (const char* preset : {"qdr", "fdr", "qpi", "ipoib"}) {
    EXPECT_EQ(RunTool(replay + " --cluster=" + preset), 0) << preset;
  }
  EXPECT_EQ(RunTool(replay + " --cluster=nope"), 1);
}

/// The part of a span dataset that the replay produces: everything before
/// the execution-layer device counts, which only a live run records.
std::string ReplayedPart(const std::string& spans_json) {
  return spans_json.substr(0, spans_json.find(",\"devices\":"));
}

// An RDMA READ (pull) or WRITE (memory) run captured by the CLI replays
// through the trace tool under the transport the trace records -- no receiver
// copy for the one-sided transports -- so the replayed spans equal the run's
// byte for byte, and both span datasets pass the analyzer's invariant gate.
TEST(PullTraceSmokeTest, CliReadTraceReplaysAndPassesTheSpanGate) {
  for (const std::string transport : {"read", "memory"}) {
    SCOPED_TRACE(transport);
    const std::string trace = TestTempPath(transport + ".trace");
    const std::string spans = TestTempPath(transport + "_spans.json");
    const std::string respans = TestTempPath(transport + "_respans.json");
    ASSERT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                      " --machines=4 --inner=512 --outer=512 --scale=65536" +
                      " --transport=" + transport + " --trace-out=" + trace +
                      " --spans-json=" + spans),
              0);
    ASSERT_EQ(RunTool(std::string(RDMAJOIN_TRACE_BIN) + " --trace=" + trace +
                      " --out=" + TestTempPath(transport + "_chrome.json") +
                      " --spans-json=" + respans),
              0);
    const std::string live = ReadFileOrEmpty(spans);
    ASSERT_NE(live.find(",\"devices\":"), std::string::npos);
    EXPECT_TRUE(ReplayedPart(live) == ReplayedPart(ReadFileOrEmpty(respans)))
        << "the trace tool's replay diverges from the run";
    for (const std::string& path : {spans, respans}) {
      EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" + path +
                        " --check"),
                0)
          << path;
      auto parsed = ParseJson(ReadFileOrEmpty(path));
      ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
      const JsonValue* list = parsed->Find("spans");
      ASSERT_NE(list, nullptr);
      ASSERT_FALSE(list->array_items.empty());
      EXPECT_EQ(list->array_items[0].BoolOr("pull", false), transport == "read")
          << path;
    }
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) + " --transport=nope"), 1);
}

// A trace whose send names a machine the trace does not have is malformed
// input: rdmajoin_trace reports it and exits 1 instead of indexing past its
// link table.
TEST(TraceToolSmokeTest, OutOfRangeDestinationExitsOneWithoutCrashing) {
  const std::string trace = TestTempPath("bad_dst.trace");
  {
    std::ofstream out(trace, std::ios::binary);
    out << "{\"scale_up\":1,\"machines\":[{\"net_threads\":[{"
        << "\"compute_bytes\":8,\"sends\":[[1,0,8,0]]}]},{\"net_threads\":[{"
        << "\"compute_bytes\":8,\"sends\":[[7,0,8,0]]}]}]}";
  }
  const std::string err = TestTempPath("bad_dst.err");
  const std::string cmd = std::string(RDMAJOIN_TRACE_BIN) + " --trace=" +
                          trace + " --out=" + TestTempPath("bad_dst.json") +
                          " >/dev/null 2>" + err;
  const int raw = std::system(cmd.c_str());
  ASSERT_TRUE(WIFEXITED(raw)) << "rdmajoin_trace did not exit normally";
  EXPECT_EQ(WEXITSTATUS(raw), 1);
  EXPECT_NE(ReadFileOrEmpty(err).find("dst_machine 7"), std::string::npos)
      << ReadFileOrEmpty(err);
}

TEST_F(ToolsSmokeTest, NoSpansRunOmitsRecorderAndRejectsContradictoryFlags) {
  const std::string trace = TestTempPath("nospans.trace");
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --no-spans --trace-out=" + trace),
            0);
  // --no-spans with --spans-json is a usage error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --no-spans --spans-json=" + TestTempPath("never.json")),
            1);
}

TEST_F(ToolsSmokeTest, AnalyzeSpansExitCodesFollowTheContract) {
  // Missing file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) +
                    " --spans=" + TestTempPath("does_not_exist.json")),
            2);
  // Malformed JSON -> bad input (2).
  const std::string malformed = TestTempPath("malformed.json");
  {
    std::ofstream out(malformed, std::ios::binary);
    out << "{\"version\": 1, \"spans\": [";
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    malformed),
            2);
  // Bad --top -> usage error (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    malformed + " --top=0"),
            2);
  // A well-formed dataset that violates the invariants -> exit 1: one span
  // posted but never delivered or completed.
  const std::string violating = TestTempPath("violating.json");
  {
    std::ofstream out(violating, std::ios::binary);
    out << "{\"version\":1,"
        << "\"spans_recorded\":1,\"spans_dropped\":0,"
        << "\"segments_recorded\":0,\"segments_dropped\":0,"
        << "\"late_stage_updates\":0,"
        << "\"spans\":[{\"id\":1,\"machine\":0,\"thread\":0,\"slot\":0,"
        << "\"src\":0,\"dst\":1,\"wire_bytes\":65536,\"flow\":1,"
        << "\"pull\":false,\"posted\":0,\"credit_acquired\":0,"
        << "\"fabric_admitted\":0,\"delivered\":-1,\"completed\":-1,"
        << "\"recv_start\":-1,\"recv_end\":-1}],"
        << "\"segments\":[],\"threads\":[],\"devices\":[]}";
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    violating),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" +
                    violating + " --check"),
            1);
}

TEST_F(ToolsSmokeTest, ExplainUtilizationReplaysAndChecksTheIdentity) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string json_out = TestTempPath("util.json");
  // The replayed trace's idle-window totals reproduce the attribution.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization" +
                    " --trace=" + *trace_path_ + " --check --json-out=" +
                    json_out),
            0);
  auto parsed = ParseJson(ReadFileOrEmpty(json_out));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("idle_windows"), nullptr);
  EXPECT_NE(parsed->Find("timelines"), nullptr);
  // Missing trace file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization" +
                    " --trace=" + TestTempPath("no_such.trace")),
            2);
}

TEST_F(ToolsSmokeTest, ExplainCongestionReportsAndChecksLabels) {
  ASSERT_EQ(cli_exit_, 0);
  const std::string json_out = TestTempPath("congestion.json");
  // The replayed trace's binding-constraint labels are tight against the
  // replay's own fabric configuration.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --congestion" +
                    " --trace=" + *trace_path_ + " --check --json-out=" +
                    json_out),
            0);
  auto parsed = ParseJson(ReadFileOrEmpty(json_out));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("totals"), nullptr);
  EXPECT_NE(parsed->Find("hosts"), nullptr);
  EXPECT_NE(parsed->Find("incasts"), nullptr);
  // Missing trace file -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --congestion" +
                    " --trace=" + TestTempPath("no_such.trace")),
            2);
}

/// Writes a small two-row bench JSON document for the diff smoke tests;
/// `r1_seconds` varies the second row's measurement and `extra_row` appends
/// a third row.
std::string WriteBenchDoc(const std::string& name, double r1_seconds,
                          int seed = 42, bool extra_row = false) {
  const std::string path = TestTempPath(name);
  std::ofstream out(path, std::ios::binary);
  out << "{\"schema_version\":1,\"bench\":\"smoke\",\"scale_up\":65536,"
      << "\"seed\":" << seed << ",\"rows\":["
      << "{\"label\":\"r0\",\"ok\":true,\"verified\":true,"
      << "\"measured_seconds\":1.5,\"phases\":{\"histogram\":0.1,"
      << "\"network-partition\":0.9,\"local-partition\":0.2,"
      << "\"build-probe\":0.3}},"
      << "{\"label\":\"r1\",\"ok\":true,\"verified\":true,"
      << "\"measured_seconds\":" << r1_seconds
      << ",\"phases\":{\"histogram\":0.1,\"network-partition\":"
      << (r1_seconds - 0.6) << ",\"local-partition\":0.2,"
      << "\"build-probe\":0.3}}"
      << (extra_row ? ",{\"label\":\"r2\",\"ok\":true,\"verified\":true,"
                      "\"measured_seconds\":0.5}"
                    : "")
      << "]}";
  return path;
}

TEST(ExplainSmokeTest, DiffExitCodesFollowTheContract) {
  const std::string a = WriteBenchDoc("explain_a.json", 1.5);
  const std::string same = WriteBenchDoc("explain_same.json", 1.5);
  const std::string slow = WriteBenchDoc("explain_slow.json", 3.0);
  // Identical runs diff clean even at zero tolerance.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    same + " --tolerance=0 --abs-tolerance=0"),
            0);
  // A row slower beyond both margins -> divergence (1), with or without the
  // improvements drill-down.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    slow),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + slow +
                    " " + a + " --report-improvements"),
            1);
  // The JSON export rides along without changing the verdict.
  const std::string json_out = TestTempPath("explain_diff.json");
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    slow + " --json-out=" + json_out),
            1);
  auto parsed = ParseJson(ReadFileOrEmpty(json_out));
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_NE(parsed->Find("rows"), nullptr);
  // Missing or malformed input -> bad input (2).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    TestTempPath("no_such_bench.json")),
            2);
  const std::string malformed = TestTempPath("explain_malformed.json");
  {
    std::ofstream out(malformed, std::ios::binary);
    out << "{\"schema_version\":1,";
  }
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " +
                    malformed),
            2);
}

TEST(ExplainSmokeTest, UsageErrorsExitTwo) {
  // No mode selected.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN)), 2);
  // Unknown flag.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --no-such-flag"), 2);
  // --utilization / --congestion without a trace.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --utilization"), 2);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --congestion"), 2);
  // --diff needs two documents.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " +
                    TestTempPath("only_one.json")),
            2);
}

// Numeric flags are parsed strictly: a malformed or negative value is a usage
// error (2) before any input is read, never a silent default such as exact
// mode for --tolerance=abc, 500 % for --tolerance=5% or a wrapped core count.
TEST(ExplainSmokeTest, MalformedNumericFlagsExitTwo) {
  const std::string a = WriteBenchDoc("strict_explain.json", 1.5);
  const std::string diff =
      std::string(RDMAJOIN_EXPLAIN_BIN) + " --diff " + a + " " + a;
  EXPECT_EQ(RunTool(diff + " --tolerance=0.05 --abs-tolerance=0.02"), 0);
  for (const char* flag : {"--tolerance=abc", "--tolerance=5%",
                           "--tolerance=-0.1", "--abs-tolerance=nan",
                           "--top=x", "--top=-3"}) {
    EXPECT_EQ(RunTool(diff + " " + flag), 2) << flag;
  }
  const std::string util = std::string(RDMAJOIN_EXPLAIN_BIN) +
                           " --utilization --trace=" +
                           TestTempPath("never_read.trace");
  for (const char* flag : {"--cores=-1", "--cores=4x", "--cores=0",
                           "--buckets=-2", "--buckets=1.5"}) {
    EXPECT_EQ(RunTool(util + " " + flag), 2) << flag;
  }
}

// The tools that run joins parse numeric flags strictly too: a malformed,
// negative or zero value is a usage error (exit 1) reported while the flags
// are parsed. The trailing --help (or, for rdmajoin_whatif, an unknown flag)
// ends the parse before any run could start, even if a value slipped through.
TEST(ToolFlagsSmokeTest, MalformedNumericFlagsExitOne) {
  struct Case {
    const char* bin;
    std::vector<const char*> flags;
  };
  const std::vector<Case> cases = {
      {RDMAJOIN_CLI_BIN, {"--cores=-1", "--machines=abc", "--scale=0", "--seed=1x"}},
      {RDMAJOIN_CHECK_BIN, {"--cores=-1", "--machines=abc", "--scale=0", "--seed=1x"}},
      {RDMAJOIN_CHAOS_BIN, {"--cores=-1", "--machines=abc", "--scale=0", "--seed=1x"}},
      {RDMAJOIN_WHATIF_BIN, {"--cores=-1", "--machines=abc", "--scale=0"}},
      {RDMAJOIN_TRACE_BIN, {"--cores=-1", "--bucket-ms=0"}},
  };
  const std::string err = TestTempPath("flags.err");
  for (const Case& c : cases) {
    for (const char* flag : c.flags) {
      const std::string cmd = std::string(c.bin) + " " + flag +
                              " --help >/dev/null 2>" + err;
      const int raw = std::system(cmd.c_str());
      ASSERT_TRUE(WIFEXITED(raw)) << c.bin << " " << flag;
      EXPECT_EQ(WEXITSTATUS(raw), 1) << c.bin << " " << flag;
      EXPECT_NE(ReadFileOrEmpty(err).find("invalid value"), std::string::npos)
          << c.bin << " " << flag << ": " << ReadFileOrEmpty(err);
    }
  }
}

TEST(AnalyzeSmokeTest, MalformedNumericFlagsExitTwo) {
  const std::string a = WriteBenchDoc("strict_analyze.json", 1.5);
  const std::string diff =
      std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + a + " " + a;
  EXPECT_EQ(RunTool(diff + " --tolerance=0.05 --abs-tolerance=0.02"), 0);
  for (const char* flag : {"--tolerance=abc", "--tolerance=5%",
                           "--abs-tolerance=-1", "--abs-tolerance=inf"}) {
    EXPECT_EQ(RunTool(diff + " " + flag), 2) << flag;
  }
  const std::string trace = std::string(RDMAJOIN_ANALYZE_BIN) + " --trace=" +
                            TestTempPath("never_read.trace");
  for (const char* flag : {"--cores=-1", "--machines=-4", "--machines=two",
                           "--scale=0", "--scale=abc", "--inner=-1",
                           "--outer=1e999"}) {
    EXPECT_EQ(RunTool(trace + " " + flag), 2) << flag;
  }
}

TEST(AnalyzeDiffSmokeTest, ReportImprovementsDoesNotChangeTheVerdict) {
  const std::string a = WriteBenchDoc("analyze_a.json", 1.5);
  const std::string slow = WriteBenchDoc("analyze_slow.json", 3.0);
  // Pure improvements (slow -> fast) pass the gate with and without the flag.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + slow +
                    " " + a),
            0);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + slow +
                    " " + a + " --report-improvements"),
            0);
  // A regression still fails regardless of the flag.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --diff " + a + " " +
                    slow + " --report-improvements"),
            1);
}

TEST(AnalyzeDiffSmokeTest, ExitCodesFollowTheContract) {
  const std::string gate = std::string(RDMAJOIN_ANALYZE_BIN) + " --diff ";
  const std::string a = WriteBenchDoc("gate_a.json", 1.5);
  // Identical documents pass.
  EXPECT_EQ(RunTool(gate + a + " " + a), 0);
  // A row only in the current document fails the gate.
  EXPECT_EQ(RunTool(gate + a + " " +
                    WriteBenchDoc("gate_extra.json", 1.5, 42, true)),
            1);
  // Different seeds are not comparable: an input error, not a verdict.
  EXPECT_EQ(RunTool(gate + a + " " + WriteBenchDoc("gate_seed.json", 1.5, 43)),
            2);
  // Missing input, or not exactly two documents.
  EXPECT_EQ(RunTool(gate + a + " " + TestTempPath("gate_missing.json")), 2);
  EXPECT_EQ(RunTool(gate + a), 2);
}

TEST(WhatifSmokeTest, CaptureReplayAndExitCodesFollowTheContract) {
  const std::string trace = TestTempPath("whatif.trace");
  // Capture a tiny join trace.
  ASSERT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) +
                    " --capture=" + trace +
                    " --machines=2 --inner=32 --outer=32 --scale=65536"),
            0);
  // Replay it on the same cluster shape.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --machines=2"),
            0);
  // Replay it under a what-if knob.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --machines=2 --bandwidth-gbps=1"),
            0);
  // Unknown flag -> usage error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --no-such-flag"), 1);
  // Neither --capture nor --trace -> usage error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --machines=2"), 1);
  // Unknown cluster preset -> error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --cluster=nope"),
            1);
  // Missing trace file -> error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) +
                    " --trace=" + TestTempPath("missing.trace")),
            1);
  // Machine-count mismatch between trace and replay cluster -> error.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_WHATIF_BIN) + " --trace=" + trace +
                    " --machines=3"),
            1);
}

TEST(ChaosSmokeTest, MatrixRunsCleanAndEmitsIdenticalJsonOnRerun) {
  const std::string common =
      std::string(RDMAJOIN_CHAOS_BIN) +
      " --machines=2 --cores=4 --inner=16 --outer=16 --scale=65536 --seed=7" +
      " --presets=qp-error,link-degrade,straggler --policy=both";
  const std::string a = TestTempPath("chaos_a.json");
  const std::string b = TestTempPath("chaos_b.json");
  ASSERT_EQ(RunTool(common + " --json=" + a), 0);
  ASSERT_EQ(RunTool(common + " --json=" + b), 0);
  const std::string text_a = ReadFileOrEmpty(a);
  ASSERT_FALSE(text_a.empty());
  // Identical (schedule, seed) -> byte-identical machine-readable output.
  EXPECT_EQ(text_a, ReadFileOrEmpty(b));
  auto parsed = ParseJson(text_a);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const JsonValue* rows = parsed->Find("rows");
  ASSERT_NE(rows, nullptr);
  ASSERT_TRUE(rows->is_array());
  EXPECT_EQ(rows->array_items.size(), 6u);  // 3 presets x 2 policies
  for (const JsonValue& row : rows->array_items) {
    EXPECT_TRUE(row.BoolOr("acceptable", false));
  }

  // Contract violations exit nonzero.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) + " --no-such-flag"), 1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) + " --policy=nope"), 1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) + " --cluster=nope"), 1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CHAOS_BIN) +
                    " --machines=2 --inner=16 --outer=16 --scale=65536" +
                    " --presets=no-such-preset"),
            1);
}

TEST(CliFaultSmokeTest, FaultedRunsAreCleanDeterministicAndCheckable) {
  const std::string common =
      std::string(RDMAJOIN_CLI_BIN) +
      " --machines=2 --inner=512 --outer=512 --scale=65536 --seed=42" +
      " --faults=chaos --fault-policy=recover";
  const std::string spans_a = TestTempPath("fault_spans_a.json");
  const std::string spans_b = TestTempPath("fault_spans_b.json");
  ASSERT_EQ(RunTool(common + " --spans-json=" + spans_a), 0);
  ASSERT_EQ(RunTool(common + " --spans-json=" + spans_b), 0);
  const std::string text_a = ReadFileOrEmpty(spans_a);
  ASSERT_FALSE(text_a.empty());
  // Same (schedule, seed) -> byte-identical span dataset.
  EXPECT_EQ(text_a, ReadFileOrEmpty(spans_b));
  // The analyzer's invariant gate holds under an active fault schedule too.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_ANALYZE_BIN) + " --spans=" + spans_a +
                    " --check"),
            0);

  // An abort-policy run against a QP fault fails with a nonzero exit but
  // still exits cleanly (no crash -> RunTool reports the exit code, not -1).
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --faults=qp-error --fault-policy=abort"),
            1);
  // Unknown preset / policy are usage errors.
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --faults=no-such-preset"),
            1);
  EXPECT_EQ(RunTool(std::string(RDMAJOIN_CLI_BIN) +
                    " --machines=2 --inner=512 --outer=512 --scale=65536" +
                    " --faults=chaos --fault-policy=nope"),
            1);
}

}  // namespace
}  // namespace rdmajoin
