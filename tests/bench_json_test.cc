// Tests for the machine-readable bench pipeline: the minimal JSON parser,
// BenchReporter's emitted schema (round-tripped through ParseBenchJson) and
// the strict ParseOptions flag validation. The rdmajoin_analyze --diff gate
// is tested with the run differ it calls (run_diff_test).

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/presets.h"
#include "util/bench_json.h"
#include "util/json.h"

namespace rdmajoin {
namespace {

// ---------- JSON parser ----------

TEST(Json, ParsesScalarsAndContainers) {
  auto v = ParseJson(R"({"a": 1.5, "b": "x\n\"y\"", "c": [true, null], "d": {}})");
  ASSERT_TRUE(v.ok()) << v.status().ToString();
  EXPECT_DOUBLE_EQ(v->NumberOr("a", 0), 1.5);
  EXPECT_EQ(v->StringOr("b", ""), "x\n\"y\"");
  const JsonValue* c = v->Find("c");
  ASSERT_NE(c, nullptr);
  ASSERT_TRUE(c->is_array());
  ASSERT_EQ(c->array_items.size(), 2u);
  EXPECT_TRUE(c->array_items[0].bool_value);
  EXPECT_TRUE(c->array_items[1].is_null());
  ASSERT_NE(v->Find("d"), nullptr);
  EXPECT_TRUE(v->Find("d")->is_object());
  EXPECT_EQ(v->Find("missing"), nullptr);
}

TEST(Json, RejectsTrailingGarbageAndMalformedInput) {
  EXPECT_FALSE(ParseJson("{} trailing").ok());
  EXPECT_FALSE(ParseJson("{\"a\":}").ok());
  EXPECT_FALSE(ParseJson("[1,]").ok());
  EXPECT_FALSE(ParseJson("\"unterminated").ok());
  EXPECT_FALSE(ParseJson("").ok());
  // Numbers that overflow to infinity: JSON cannot represent inf.
  for (const char* doc : {"1e999", "-1e999", "[1e400]", "{\"a\":-1e400}"}) {
    const auto parsed = ParseJson(doc);
    ASSERT_FALSE(parsed.ok()) << doc;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << doc;
  }
}

TEST(Json, NumberFormattingRoundTrips) {
  for (double v : {0.0, 1.0, -2.5, 3.333333333333333, 1e-9, 12345678.901}) {
    const std::string text = JsonNumber(v);
    auto parsed = ParseJson(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_DOUBLE_EQ(parsed->number_value, v) << text;
  }
  // JSON cannot represent non-finite numbers; they degrade to null.
  EXPECT_EQ(JsonNumber(1.0 / 0.0), "null");
  EXPECT_EQ(JsonNumber(0.0 / 0.0), "null");
}

TEST(Json, EscapeCoversControlCharacters) {
  std::string out;
  JsonWriter(&out).String("a\"b\\c\n\t");
  EXPECT_EQ(out, "\"a\\\"b\\\\c\\n\\t\"");
}

// ---------- BenchReporter schema round trip ----------

bench::Options TestOptions() {
  bench::Options opt;
  opt.scale_up = 8192.0;
  opt.seed = 42;
  opt.json = false;  // Tests never write files; they use ToJson() directly.
  return opt;
}

TEST(BenchReporter, EmittedDocumentRoundTripsThroughParser) {
  const bench::Options opt = TestOptions();
  bench::BenchReporter reporter("unit_test_bench", opt);
  reporter.AddMeasurement("point one", {{"machines", "4"}}, 3.25, "seconds", 3.0);
  reporter.AddMeasurement("bandwidth", {{"message_bytes", "65536"}}, 4200.0,
                          "mbps", 4700.0);
  reporter.AddError("broken point", {{"machines", "9"}}, "OOM: too big");

  auto doc = ParseBenchJson(reporter.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  EXPECT_EQ(doc->schema_version, kBenchJsonSchemaVersion);
  EXPECT_EQ(doc->bench, "unit_test_bench");
  EXPECT_DOUBLE_EQ(doc->scale_up, 8192.0);
  EXPECT_EQ(doc->seed, 42u);
  ASSERT_EQ(doc->rows.size(), 3u);

  const BenchJsonRow* row = doc->FindRow("point one");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->ok);
  ASSERT_TRUE(row->has_measured);
  EXPECT_DOUBLE_EQ(row->measured_seconds, 3.25);
  ASSERT_TRUE(row->has_paper);
  EXPECT_DOUBLE_EQ(row->paper_seconds, 3.0);
  // Config values that look numeric are emitted as JSON numbers.
  const JsonValue* config = row->raw.Find("config");
  ASSERT_NE(config, nullptr);
  EXPECT_DOUBLE_EQ(config->NumberOr("machines", 0), 4.0);

  // Non-seconds measurements carry their unit and do not become
  // measured_seconds (the diff gate only compares like-for-like seconds).
  const BenchJsonRow* bw = doc->FindRow("bandwidth");
  ASSERT_NE(bw, nullptr);
  EXPECT_FALSE(bw->has_measured);
  EXPECT_EQ(bw->raw.StringOr("unit", ""), "mbps");
  EXPECT_DOUBLE_EQ(bw->raw.NumberOr("measured_value", 0), 4200.0);

  const BenchJsonRow* bad = doc->FindRow("broken point");
  ASSERT_NE(bad, nullptr);
  EXPECT_FALSE(bad->ok);
  EXPECT_FALSE(bad->has_measured);
  EXPECT_EQ(bad->error, "OOM: too big");
}

TEST(BenchReporter, RealRunCarriesPhasesAttributionAndViolations) {
  const bench::Options opt = TestOptions();
  bench::RunOutcome run = bench::RunPaperJoin(QdrCluster(2), 64, 64, opt);
  ASSERT_TRUE(run.ok) << run.error;

  bench::BenchReporter reporter("unit_test_bench", opt);
  reporter.AddRun("2 machines", {{"machines", "2"}}, run);
  auto doc = ParseBenchJson(reporter.ToJson());
  ASSERT_TRUE(doc.ok()) << doc.status().ToString();
  const BenchJsonRow* row = doc->FindRow("2 machines");
  ASSERT_NE(row, nullptr);
  EXPECT_TRUE(row->ok);
  EXPECT_TRUE(row->verified);
  ASSERT_TRUE(row->has_measured);
  EXPECT_NEAR(row->measured_seconds, run.times.TotalSeconds(), 1e-9);
  EXPECT_EQ(row->protocol_violations, run.protocol_violations);

  const JsonValue* phases = row->raw.Find("phases");
  ASSERT_NE(phases, nullptr);
  EXPECT_NEAR(phases->NumberOr("network_partition_seconds", -1),
              run.times.network_partition_seconds, 1e-9);

  // The attribution block must decompose the measured makespan: sum of the
  // four per-phase totals == measured_seconds (this is what
  // rdmajoin_analyze's invariant check re-verifies on every file).
  const JsonValue* attribution = row->raw.Find("attribution");
  ASSERT_NE(attribution, nullptr);
  const JsonValue* totals = attribution->Find("totals");
  ASSERT_NE(totals, nullptr);
  const double sum = totals->NumberOr("compute_seconds", 0) +
                     totals->NumberOr("network_seconds", 0) +
                     totals->NumberOr("buffer_stall_seconds", 0) +
                     totals->NumberOr("barrier_wait_seconds", 0);
  EXPECT_NEAR(sum, row->measured_seconds, 1e-6 * row->measured_seconds);
  const JsonValue* path = attribution->Find("critical_path");
  ASSERT_NE(path, nullptr);
  ASSERT_TRUE(path->is_array());
  EXPECT_EQ(path->array_items.size(), kNumJoinPhases);
}

TEST(BenchReporter, IdenticalSeedRerunsEmitIdenticalBytes) {
  // The regression gate depends on deterministic output: same cluster, same
  // seed, same scale -> byte-identical JSON (no timestamps, stable number
  // formatting).
  const bench::Options opt = TestOptions();
  auto render = [&opt]() {
    bench::RunOutcome run = bench::RunPaperJoin(FdrCluster(3), 64, 64, opt);
    bench::BenchReporter reporter("unit_test_bench", opt);
    reporter.AddRun("3 machines", {{"machines", "3"}}, run);
    return reporter.ToJson();
  };
  EXPECT_EQ(render(), render());
}

TEST(BenchJson, RejectsBadDocuments) {
  EXPECT_FALSE(ParseBenchJson("[]").ok());
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":99,\"bench\":\"x\"}").ok());
  EXPECT_FALSE(
      ParseBenchJson("{\"schema_version\":1,\"bench\":\"x\"}").ok());  // no rows
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":1,\"bench\":\"x\",\"rows\":"
                              "[{\"ok\":true}]}")
                   .ok());  // row without label
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":1,\"rows\":[]}").ok());
  // Integers their field cannot hold: the cast would be undefined behaviour.
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":1,\"bench\":\"x\","
                              "\"seed\":1e30,\"rows\":[]}")
                   .ok());
  EXPECT_FALSE(ParseBenchJson("{\"schema_version\":1,\"bench\":\"x\","
                              "\"rows\":[{\"label\":\"r\","
                              "\"protocol_violations\":-1}]}")
                   .ok());
}

TEST(Json, IntegerOrRangeChecks) {
  auto v = ParseJson(R"({"u":7,"neg":-1,"big":1e30,"s":"x","i":-5})");
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(*v->IntegerOr<uint32_t>("u", 0), 7u);
  EXPECT_EQ(*v->IntegerOr<uint32_t>("missing", 9), 9u);
  EXPECT_EQ(*v->IntegerOr<uint32_t>("s", 9), 9u);  // not a number: fallback
  EXPECT_EQ(*v->IntegerOr<int32_t>("i", 0), -5);
  EXPECT_FALSE(v->IntegerOr<uint32_t>("neg", 0).ok());
  EXPECT_FALSE(v->IntegerOr<uint64_t>("big", 0).ok());
  EXPECT_FALSE(v->IntegerOr<int32_t>("big", 0).ok());
  uint8_t small = 0;
  EXPECT_TRUE(JsonToInteger(255.0, "f", &small).ok());
  EXPECT_EQ(small, 255);
  EXPECT_FALSE(JsonToInteger(256.0, "f", &small).ok());
  int64_t wide = 0;
  EXPECT_TRUE(JsonToInteger(-9223372036854775808.0, "f", &wide).ok());
  EXPECT_FALSE(JsonToInteger(9223372036854775808.0, "f", &wide).ok());
}

TEST(Json, NestingDepthIsBounded) {
  // 64 nested arrays hold a value; 65 do not.
  const auto nested = [](int depth) {
    return std::string(depth, '[') + "1" + std::string(depth, ']');
  };
  EXPECT_TRUE(ParseJson(nested(64)).ok());
  EXPECT_FALSE(ParseJson(nested(65)).ok());
  // Empty containers at the limit are fine.
  EXPECT_TRUE(ParseJson(std::string(65, '[') + std::string(65, ']')).ok());
  EXPECT_FALSE(ParseJson(std::string(100000, '[')).ok());
}

TEST(JsonReader, StreamsMembersAndItems) {
  JsonReader r(R"( {"a": [1, 2.5, -3], "k\u0065y": "v\n", "skip": {"x": [null, true]}} )");
  std::vector<double> a;
  std::string key_value;
  ASSERT_TRUE(r.ForEachMember([&](std::string_view key) {
                 if (key == "a") {
                   return r.ForEachItem([&] { return r.ReadNumber(&a.emplace_back()); });
                 }
                 if (key == "key") return r.ReadString(&key_value);
                 return r.SkipValue();
               }).ok());
  EXPECT_TRUE(r.ExpectEnd().ok());
  EXPECT_EQ(a, (std::vector<double>{1, 2.5, -3}));
  EXPECT_EQ(key_value, "v\n");

  JsonReader trailing("[] x");
  EXPECT_TRUE(trailing.ForEachItem([] { return Status::OK(); }).ok());
  EXPECT_FALSE(trailing.ExpectEnd().ok());
  uint32_t n = 0;
  JsonReader negative("-1");
  EXPECT_EQ(negative.ReadInteger("n", &n).code(), StatusCode::kInvalidArgument);
}

// ---------- Strict option parsing ----------

bench::Options ParseArgs(std::vector<std::string> args,
                         const std::vector<std::string>& extra = {}) {
  args.insert(args.begin(), "bench_test");
  std::vector<char*> argv;
  argv.reserve(args.size());
  for (std::string& a : args) argv.push_back(a.data());
  return bench::ParseOptions(static_cast<int>(argv.size()), argv.data(), 1024.0,
                             extra);
}

TEST(ParseOptions, AcceptsValidFlags) {
  const bench::Options opt =
      ParseArgs({"--scale=2048", "--seed=7", "--csv", "--json-out=/tmp/x.json"});
  EXPECT_DOUBLE_EQ(opt.scale_up, 2048.0);
  EXPECT_EQ(opt.seed, 7u);
  EXPECT_TRUE(opt.csv);
  EXPECT_TRUE(opt.json);
  EXPECT_EQ(opt.json_out, "/tmp/x.json");
  EXPECT_FALSE(ParseArgs({"--no-json"}).json);
  EXPECT_DOUBLE_EQ(ParseArgs({"--presets"}, {"--presets"}).scale_up, 1024.0);
}

using ParseOptionsDeathTest = ::testing::Test;

TEST(ParseOptionsDeathTest, UnknownFlagExitsWithUsage) {
  EXPECT_EXIT(ParseArgs({"--bogus"}), ::testing::ExitedWithCode(2),
              "unknown flag");
}

TEST(ParseOptionsDeathTest, NonNumericValuesExit) {
  EXPECT_EXIT(ParseArgs({"--scale=abc"}), ::testing::ExitedWithCode(2),
              "invalid --scale");
  EXPECT_EXIT(ParseArgs({"--scale=12x"}), ::testing::ExitedWithCode(2),
              "invalid --scale");
  EXPECT_EXIT(ParseArgs({"--seed=1.5"}), ::testing::ExitedWithCode(2),
              "invalid --seed");
  EXPECT_EXIT(ParseArgs({"--seed=-3"}), ::testing::ExitedWithCode(2),
              "invalid --seed");
}

TEST(ParseOptionsDeathTest, SubUnitScaleExits) {
  EXPECT_EXIT(ParseArgs({"--scale=0.5"}), ::testing::ExitedWithCode(2),
              "--scale must be >= 1");
}

}  // namespace
}  // namespace rdmajoin
