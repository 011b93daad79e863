#include "timing/span_trace.h"

#include <cmath>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "tests/test_temp_dir.h"
#include "util/json.h"
#include "util/logging.h"

namespace rdmajoin {
namespace {

/// A tiny budget: both rings sized at their 64-entry floor.
SpanConfig TinyConfig() {
  SpanConfig config;
  config.max_bytes = 1024;
  return config;
}

TEST(SpanRecorder, RecordsFullLifecycle) {
  SpanRecorder rec;
  const uint64_t id = rec.BeginSpan(/*machine=*/1, /*thread=*/2, /*slot=*/7,
                                    /*src=*/1, /*dst=*/3, /*wire_bytes=*/4096,
                                    /*pull=*/false, /*posted_time=*/1.0);
  ASSERT_NE(id, 0u);
  rec.MarkStage(id, SpanStage::kCreditAcquired, 1.5);
  rec.MarkStage(id, SpanStage::kFabricAdmitted, 1.6);
  rec.MarkStage(id, SpanStage::kDelivered, 2.0);
  rec.MarkStage(id, SpanStage::kCompleted, 2.25);
  rec.SetFlow(id, 42);
  rec.SetReceiverService(id, 2.0, 2.1);

  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.spans.size(), 1u);
  const WrSpan& s = ds.spans[0];
  EXPECT_TRUE(s.complete());
  EXPECT_DOUBLE_EQ(s.duration(), 1.25);
  EXPECT_DOUBLE_EQ(s.StageSeconds(SpanStage::kCreditAcquired), 0.5);
  EXPECT_NEAR(s.StageSeconds(SpanStage::kFabricAdmitted), 0.1, 1e-12);
  EXPECT_DOUBLE_EQ(s.StageSeconds(SpanStage::kDelivered), 0.4);
  EXPECT_DOUBLE_EQ(s.StageSeconds(SpanStage::kCompleted), 0.25);
  EXPECT_EQ(s.flow, 42u);
  EXPECT_EQ(s.machine, 1u);
  EXPECT_EQ(s.dst, 3u);
  EXPECT_DOUBLE_EQ(s.recv_start, 2.0);
  // The four stage intervals reassemble the duration exactly.
  double sum = 0;
  for (int i = 1; i < kNumSpanStages; ++i) {
    sum += s.StageSeconds(static_cast<SpanStage>(i));
  }
  EXPECT_DOUBLE_EQ(sum, s.duration());
}

TEST(SpanRecorder, DisabledRecorderRecordsNothing) {
  SpanConfig config;
  config.enabled = false;
  SpanRecorder rec(config);
  EXPECT_EQ(rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0), 0u);
  rec.MarkStage(1, SpanStage::kDelivered, 1.0);
  rec.OnFlowSegment(1, 0, 1, 0.0, 1.0, 100.0, RateConstraint::kSenderEgress, 0);
  rec.OnWrPosted(0, WorkCompletion::Op::kSend);
  rec.AddThreadMark(ThreadMark{});
  const SpanDataset ds = rec.Snapshot();
  EXPECT_TRUE(ds.spans.empty());
  EXPECT_TRUE(ds.segments.empty());
  EXPECT_TRUE(ds.threads.empty());
  EXPECT_TRUE(ds.devices.empty());
  EXPECT_EQ(ds.spans_recorded, 0u);
  EXPECT_EQ(ds.late_stage_updates, 0u);
}

TEST(SpanRecorder, CapacityFollowsByteBudget) {
  SpanConfig small = TinyConfig();
  SpanRecorder tiny(small);
  EXPECT_EQ(tiny.span_capacity(), 64u);
  EXPECT_EQ(tiny.segment_capacity(), 64u);

  SpanConfig big;
  big.max_bytes = 64 * 1024 * 1024;
  SpanRecorder large(big);
  EXPECT_GT(large.span_capacity(), tiny.span_capacity());
  EXPECT_GT(large.segment_capacity(), tiny.segment_capacity());
  // The rings respect the budget split: capacity * entry size stays within
  // each ring's share of the budget.
  EXPECT_LE(large.span_capacity() * sizeof(WrSpan), big.max_bytes);
  EXPECT_LE(large.segment_capacity() * sizeof(FlowSegment), big.max_bytes);
}

TEST(SpanRecorder, RingEvictsOldestDeterministically) {
  SpanRecorder rec(TinyConfig());
  const size_t cap = rec.span_capacity();
  const size_t total = cap + 10;
  for (size_t i = 0; i < total; ++i) {
    const uint64_t id = rec.BeginSpan(0, 0, 0, 0, 1, 64, false,
                                      static_cast<double>(i));
    EXPECT_EQ(id, i + 1);
  }
  EXPECT_EQ(rec.spans_recorded(), total);
  EXPECT_EQ(rec.spans_dropped(), 10u);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.spans.size(), cap);
  // Exactly the oldest 10 ids were evicted.
  EXPECT_EQ(ds.spans.front().id, 11u);
  EXPECT_EQ(ds.spans.back().id, total);
  for (size_t i = 1; i < ds.spans.size(); ++i) {
    EXPECT_EQ(ds.spans[i].id, ds.spans[i - 1].id + 1);
  }
}

TEST(SpanRecorder, LateStageUpdatesOnEvictedSpansAreCounted) {
  SpanRecorder rec(TinyConfig());
  const uint64_t first = rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0);
  for (size_t i = 0; i < rec.span_capacity(); ++i) {
    rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 1.0);
  }
  // `first` has been overwritten; its stage update must not corrupt the
  // current occupant of the slot.
  rec.MarkStage(first, SpanStage::kDelivered, 9.0);
  EXPECT_EQ(rec.late_stage_updates(), 1u);
  const SpanDataset ds = rec.Snapshot();
  for (const WrSpan& s : ds.spans) {
    EXPECT_EQ(s.stage[static_cast<int>(SpanStage::kDelivered)], kSpanUnset);
  }
}

TEST(SpanRecorder, MergesContiguousSameRateSegments) {
  constexpr RateConstraint kE = RateConstraint::kSenderEgress;
  SpanRecorder rec;
  rec.OnFlowSegment(/*flow_id=*/5, 0, 1, 0.0, 1.0, 1e9, kE, 0);
  rec.OnFlowSegment(5, 0, 1, 1.0, 2.0, 1e9, kE, 0);  // contiguous, same: merge
  rec.OnFlowSegment(5, 0, 1, 2.0, 3.0, 5e8, kE, 0);  // rate change: new segment
  rec.OnFlowSegment(5, 0, 1, 4.0, 5.0, 5e8, kE, 0);  // gap: new segment
  rec.OnFlowSegment(6, 0, 2, 5.0, 6.0, 5e8, kE, 0);  // other flow: new segment
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.segments.size(), 4u);
  EXPECT_DOUBLE_EQ(ds.segments[0].t0, 0.0);
  EXPECT_DOUBLE_EQ(ds.segments[0].t1, 2.0);
  EXPECT_DOUBLE_EQ(ds.segments[0].rate, 1e9);
  EXPECT_EQ(ds.segments[3].flow, 6u);
  // The byte integral is preserved across the merge.
  double bytes = 0;
  for (const FlowSegment& g : ds.segments) {
    if (g.flow == 5) bytes += g.rate * (g.t1 - g.t0);
  }
  EXPECT_DOUBLE_EQ(bytes, 2e9 + 5e8 + 5e8);
}

TEST(SpanRecorder, SplitsSegmentsAcrossConstraintSwitch) {
  // A reshare can switch the binding constraint while the rate stays
  // numerically identical (egress and ingress shares crossing over). The
  // recorder must NOT coalesce across the switch: each segment's label must
  // describe its whole interval.
  SpanRecorder rec;
  rec.OnFlowSegment(5, 0, 1, 0.0, 1.0, 1e9, RateConstraint::kSenderEgress, 0);
  rec.OnFlowSegment(5, 0, 1, 1.0, 2.0, 1e9, RateConstraint::kReceiverIngress,
                    1);
  // Same constraint kind but a different owning host also splits.
  rec.OnFlowSegment(5, 0, 1, 2.0, 3.0, 1e9, RateConstraint::kReceiverIngress,
                    1);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.segments.size(), 2u);
  EXPECT_EQ(ds.segments[0].bound, RateConstraint::kSenderEgress);
  EXPECT_DOUBLE_EQ(ds.segments[0].t1, 1.0);
  EXPECT_EQ(ds.segments[1].bound, RateConstraint::kReceiverIngress);
  EXPECT_EQ(ds.segments[1].bound_host, 1u);
  EXPECT_DOUBLE_EQ(ds.segments[1].t0, 1.0);
  EXPECT_DOUBLE_EQ(ds.segments[1].t1, 3.0);
}

TEST(SpanRecorder, SegmentRingKeepsNewestInRecordingOrder) {
  SpanRecorder rec(TinyConfig());
  const size_t cap = rec.segment_capacity();
  const size_t total = cap + 7;
  for (size_t i = 0; i < total; ++i) {
    const double t = static_cast<double>(2 * i);
    // Distinct flows so no two segments merge.
    rec.OnFlowSegment(/*flow_id=*/i + 1, 0, 1, t, t + 1.0, 1e9,
                      RateConstraint::kSenderEgress, 0);
  }
  EXPECT_EQ(rec.segments_dropped(), 7u);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.segments.size(), cap);
  EXPECT_EQ(ds.segments.front().flow, 8u);  // oldest surviving
  EXPECT_EQ(ds.segments.back().flow, total);
  for (size_t i = 1; i < ds.segments.size(); ++i) {
    EXPECT_EQ(ds.segments[i].flow, ds.segments[i - 1].flow + 1);
  }
}

TEST(SpanRecorder, ExecCountsAccumulatePerDevice) {
  SpanRecorder rec;
  rec.OnWrPosted(2, WorkCompletion::Op::kSend);
  rec.OnWrPosted(2, WorkCompletion::Op::kSend);
  rec.OnWrCompleted(2, WorkCompletion::Op::kSend, /*success=*/true);
  rec.OnWrCompleted(2, WorkCompletion::Op::kSend, /*success=*/false);
  rec.OnCompletionPolled(2, WorkCompletion::Op::kSend);
  rec.OnBufferCredit(2, /*acquired=*/true);
  rec.OnBufferCredit(2, /*acquired=*/false);
  rec.OnWrPosted(0, WorkCompletion::Op::kRead);
  const SpanDataset ds = rec.Snapshot();
  ASSERT_EQ(ds.devices.size(), 2u);
  // std::map order: device 0 first.
  EXPECT_EQ(ds.devices[0].device, 0u);
  EXPECT_EQ(ds.devices[0].posted[static_cast<int>(WorkCompletion::Op::kRead)],
            1u);
  const ExecDeviceCounts& d2 = ds.devices[1];
  EXPECT_EQ(d2.device, 2u);
  EXPECT_EQ(d2.posted[static_cast<int>(WorkCompletion::Op::kSend)], 2u);
  EXPECT_EQ(d2.completed[static_cast<int>(WorkCompletion::Op::kSend)], 2u);
  EXPECT_EQ(d2.failed_completions, 1u);
  EXPECT_EQ(d2.polled[static_cast<int>(WorkCompletion::Op::kSend)], 1u);
  EXPECT_EQ(d2.buffers_acquired, 1u);
  EXPECT_EQ(d2.buffers_released, 1u);
}

TEST(SpanRecorder, OverflowWarnsExactlyOncePerRun) {
  std::vector<std::string> warnings;
  Logger::SetSink([&warnings](LogLevel level, const std::string& message) {
    if (level == LogLevel::kWarning) warnings.push_back(message);
  });
  const LogLevel old_level = Logger::level();
  Logger::SetLevel(LogLevel::kWarning);

  SpanRecorder rec(TinyConfig());
  for (size_t i = 0; i < 3 * rec.span_capacity(); ++i) {
    rec.BeginSpan(0, 0, 0, 0, 1, 64, false, 0.0);
  }
  for (size_t i = 0; i < 3 * rec.segment_capacity(); ++i) {
    rec.OnFlowSegment(i + 1, 0, 1, static_cast<double>(2 * i),
                      static_cast<double>(2 * i + 1), 1e9,
                      RateConstraint::kSenderEgress, 0);
  }
  Logger::SetLevel(old_level);
  Logger::SetSink(nullptr);

  ASSERT_EQ(warnings.size(), 1u) << "overflow must warn once per run, not per "
                                    "event or per ring";
  EXPECT_NE(warnings[0].find("SpanConfig::max_bytes"), std::string::npos);
}

TEST(SpanDatasetJson, RoundTripsEveryField) {
  SpanRecorder rec;
  const uint64_t id =
      rec.BeginSpan(1, 2, 7, 1, 3, 4096.0, /*pull=*/true, 1.0);
  rec.MarkStage(id, SpanStage::kCreditAcquired, 1.5);
  rec.MarkStage(id, SpanStage::kFabricAdmitted, 1.5625);
  rec.MarkStage(id, SpanStage::kDelivered, 2.0);
  rec.MarkStage(id, SpanStage::kCompleted, 2.25);
  rec.SetFlow(id, 42);
  rec.SetReceiverService(id, 2.0, 2.125);
  // A second, incomplete span exercises the kSpanUnset encoding.
  rec.BeginSpan(0, 0, 1, 0, 2, 128.0, false, 3.0);
  rec.OnFlowSegment(42, 1, 3, 1.5625, 2.0, 4096.0 / 0.4375,
                    RateConstraint::kReceiverIngress, 3);
  rec.AddThreadMark(ThreadMark{1, 2, 9.0, 5.0, 0.5, 0.25});
  rec.OnWrPosted(1, WorkCompletion::Op::kSend);
  rec.OnWrCompleted(1, WorkCompletion::Op::kSend, true);
  rec.OnCompletionPolled(1, WorkCompletion::Op::kSend);
  rec.OnBufferCredit(1, true);

  const SpanDataset ds = rec.Snapshot();
  const std::string json = SpanDatasetToJson(ds);
  auto back = ParseSpanDatasetJson(json);
  ASSERT_TRUE(back.ok()) << back.status().ToString();

  ASSERT_EQ(back->spans.size(), ds.spans.size());
  for (size_t i = 0; i < ds.spans.size(); ++i) {
    const WrSpan& a = ds.spans[i];
    const WrSpan& b = back->spans[i];
    EXPECT_EQ(a.id, b.id);
    EXPECT_EQ(a.machine, b.machine);
    EXPECT_EQ(a.thread, b.thread);
    EXPECT_EQ(a.slot, b.slot);
    EXPECT_EQ(a.src, b.src);
    EXPECT_EQ(a.dst, b.dst);
    EXPECT_EQ(a.wire_bytes, b.wire_bytes);
    EXPECT_EQ(a.flow, b.flow);
    EXPECT_EQ(a.pull, b.pull);
    for (int j = 0; j < kNumSpanStages; ++j) {
      EXPECT_EQ(a.stage[j], b.stage[j]) << "span " << a.id << " stage " << j;
    }
    EXPECT_EQ(a.recv_start, b.recv_start);
    EXPECT_EQ(a.recv_end, b.recv_end);
  }
  // A labeled segment promotes the document to schema version 2.
  EXPECT_NE(json.find("\"version\":2"), std::string::npos);
  ASSERT_EQ(back->segments.size(), 1u);
  EXPECT_EQ(back->segments[0].flow, 42u);
  EXPECT_EQ(back->segments[0].rate, ds.segments[0].rate);
  EXPECT_EQ(back->segments[0].bound, RateConstraint::kReceiverIngress);
  EXPECT_EQ(back->segments[0].bound_host, 3u);
  ASSERT_EQ(back->threads.size(), 1u);
  EXPECT_EQ(back->threads[0].credit_stall_seconds, 0.5);
  ASSERT_EQ(back->devices.size(), 1u);
  EXPECT_EQ(back->devices[0].posted[static_cast<int>(WorkCompletion::Op::kSend)],
            1u);
  EXPECT_EQ(back->spans_recorded, ds.spans_recorded);

  // Serialization is deterministic: a second pass is byte-identical.
  EXPECT_EQ(SpanDatasetToJson(*back), json);
}

/// A hand-built dataset whose numbers cover the formatter's awkward cases:
/// %g's switch to exponent form (1e5, 1e-5), values that need all 17
/// significant digits, the smallest subnormal, a large power of two, the
/// kSpanUnset sentinel, and the optional retry / fault-recovery fields.
SpanDataset PinnedDataset(bool with_constraints) {
  SpanDataset ds;
  ds.spans_recorded = 100000;
  ds.spans_dropped = 3;
  ds.segments_recorded = 120;
  ds.late_stage_updates = 1;

  WrSpan a;
  a.id = 1;
  a.machine = 0;
  a.thread = 1;
  a.slot = 2;
  a.src = 0;
  a.dst = 3;
  a.wire_bytes = 262144;
  a.flow = 100000;
  a.stage[0] = 0.1;
  a.stage[1] = 0.1 + 0.2;
  a.stage[2] = 1e-5;
  a.stage[3] = 1.6715738234668946;
  a.stage[4] = 1.6718226947205777;
  a.recv_start = 1.6718226947205777;
  a.recv_end = 1.6718663853872444;
  ds.spans.push_back(a);

  WrSpan b;
  b.id = 120;
  b.machine = 7;
  b.thread = 15;
  b.slot = 1000;
  b.src = 7;
  b.dst = 0;
  b.wire_bytes = std::ldexp(1.0, 60);
  b.flow = 123456789;
  b.pull = true;
  b.stage[0] = std::ldexp(1.0, -1074);
  b.stage[1] = 1e5;
  b.stage[2] = 123456.78901234567;
  b.retries = 2;
  b.retry_delay_seconds = 1e-5;
  ds.spans.push_back(b);

  FlowSegment g;
  g.flow = 100000;
  g.src = 0;
  g.dst = 3;
  g.t0 = 0.1;
  g.t1 = 1.5590839809084138;
  g.rate = 438333333.3333333;
  FlowSegment h;
  h.flow = 123456789;
  h.src = 7;
  h.dst = 0;
  h.t0 = 1e-5;
  h.t1 = 2.5;
  h.rate = 3.2e9;
  if (with_constraints) {
    g.bound = RateConstraint::kSenderEgress;
    g.bound_host = 0;
    h.bound = RateConstraint::kReceiverIngress;
    h.bound_host = 100;
  }
  ds.segments = {g, h};

  ds.threads.push_back(
      ThreadMark{0, 1, 2.25, 1.2500000000000002, 0.5, 0.0625});
  ThreadMark faulted{7, 15, 3.0000000000000004, 1e-5, 0, 0.1};
  faulted.fault_recovery_seconds = 0.25;
  ds.threads.push_back(faulted);

  ExecDeviceCounts d;
  d.device = 3;
  d.posted[0] = 100000;
  d.posted[1] = 7;
  d.completed[0] = 99999;
  d.failed_completions = 1;
  d.polled[0] = 100000;
  d.buffers_acquired = 120;
  d.buffers_released = 120;
  ds.devices.push_back(d);
  return ds;
}

// The exact bytes SpanDatasetToJson wrote for PinnedDataset before the
// number formatter moved to std::to_chars; a formatter or writer change that
// alters a single byte of the span-dataset format fails here.
constexpr char kPinnedV1[] = R"json({"version":1,"spans_recorded":1e+05,"spans_dropped":3,"segments_recorded":1.2e+02,"segments_dropped":0,"late_stage_updates":1,"spans":[
{"id":1,"machine":0,"thread":1,"slot":2,"src":0,"dst":3,"wire_bytes":262144,"flow":1e+05,"pull":false,"posted":0.1,"credit_acquired":0.30000000000000004,"fabric_admitted":1e-05,"delivered":1.6715738234668946,"completed":1.6718226947205777,"recv_start":1.6718226947205777,"recv_end":1.6718663853872444},
{"id":1.2e+02,"machine":7,"thread":15,"slot":1e+03,"src":7,"dst":0,"wire_bytes":1.152921504606847e+18,"flow":123456789,"pull":true,"posted":5e-324,"credit_acquired":1e+05,"fabric_admitted":123456.78901234567,"delivered":-1,"completed":-1,"recv_start":-1,"recv_end":-1,"retries":2,"retry_delay_seconds":1e-05}],"segments":[
{"flow":1e+05,"src":0,"dst":3,"t0":0.1,"t1":1.5590839809084138,"rate":438333333.3333333},
{"flow":123456789,"src":7,"dst":0,"t0":1e-05,"t1":2.5,"rate":3.2e+09}],"threads":[
{"machine":0,"thread":1,"finish_seconds":2.25,"compute_seconds":1.2500000000000002,"credit_stall_seconds":0.5,"flow_stall_seconds":0.0625},
{"machine":7,"thread":15,"finish_seconds":3.0000000000000004,"compute_seconds":1e-05,"credit_stall_seconds":0,"flow_stall_seconds":0.1,"fault_recovery_seconds":0.25}],"devices":[
{"device":3,"posted":[1e+05,7,0,0],"completed":[99999,0,0,0],"failed_completions":1,"polled":[1e+05,0,0,0],"buffers_acquired":1.2e+02,"buffers_released":1.2e+02}]}
)json";

constexpr char kPinnedV2[] = R"json({"version":2,"spans_recorded":1e+05,"spans_dropped":3,"segments_recorded":1.2e+02,"segments_dropped":0,"late_stage_updates":1,"spans":[
{"id":1,"machine":0,"thread":1,"slot":2,"src":0,"dst":3,"wire_bytes":262144,"flow":1e+05,"pull":false,"posted":0.1,"credit_acquired":0.30000000000000004,"fabric_admitted":1e-05,"delivered":1.6715738234668946,"completed":1.6718226947205777,"recv_start":1.6718226947205777,"recv_end":1.6718663853872444},
{"id":1.2e+02,"machine":7,"thread":15,"slot":1e+03,"src":7,"dst":0,"wire_bytes":1.152921504606847e+18,"flow":123456789,"pull":true,"posted":5e-324,"credit_acquired":1e+05,"fabric_admitted":123456.78901234567,"delivered":-1,"completed":-1,"recv_start":-1,"recv_end":-1,"retries":2,"retry_delay_seconds":1e-05}],"segments":[
{"flow":1e+05,"src":0,"dst":3,"t0":0.1,"t1":1.5590839809084138,"rate":438333333.3333333,"bound":"egress","bound_host":0},
{"flow":123456789,"src":7,"dst":0,"t0":1e-05,"t1":2.5,"rate":3.2e+09,"bound":"ingress","bound_host":1e+02}],"threads":[
{"machine":0,"thread":1,"finish_seconds":2.25,"compute_seconds":1.2500000000000002,"credit_stall_seconds":0.5,"flow_stall_seconds":0.0625},
{"machine":7,"thread":15,"finish_seconds":3.0000000000000004,"compute_seconds":1e-05,"credit_stall_seconds":0,"flow_stall_seconds":0.1,"fault_recovery_seconds":0.25}],"devices":[
{"device":3,"posted":[1e+05,7,0,0],"completed":[99999,0,0,0],"failed_completions":1,"polled":[1e+05,0,0,0],"buffers_acquired":1.2e+02,"buffers_released":1.2e+02}]}
)json";

TEST(SpanDatasetJson, PinnedBytesV1) {
  EXPECT_EQ(SpanDatasetToJson(PinnedDataset(/*with_constraints=*/false)),
            kPinnedV1);
}

TEST(SpanDatasetJson, PinnedBytesV2) {
  const SpanDataset ds = PinnedDataset(/*with_constraints=*/true);
  EXPECT_EQ(SpanDatasetToJson(ds), kPinnedV2);
  // The pinned document reads back to the same dataset.
  auto back = ParseSpanDatasetJson(kPinnedV2);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(SpanDatasetToJson(*back), kPinnedV2);
}

TEST(SpanDatasetJson, RejectsMalformedDocuments) {
  EXPECT_FALSE(ParseSpanDatasetJson("{not json").ok());
  EXPECT_FALSE(ParseSpanDatasetJson("[]").ok());                  // not an object
  EXPECT_FALSE(ParseSpanDatasetJson("{\"version\":99}").ok());    // bad version
  EXPECT_FALSE(ParseSpanDatasetJson("{\"version\":1}").ok());     // no spans
  EXPECT_FALSE(
      ParseSpanDatasetJson("{\"version\":1,\"spans\":[{\"id\":0}]}").ok());
  EXPECT_FALSE(ParseSpanDatasetJson(
                   "{\"version\":1,\"spans\":[],\"devices\":[{\"device\":0,"
                   "\"posted\":[1,2]}]}")
                   .ok());  // opcode array must have 4 entries
  // Integers their field cannot hold: the cast would be undefined behaviour.
  for (const char* bad : {
           "{\"version\":1,\"spans\":[{\"id\":1,\"machine\":1e30}]}",
           "{\"version\":1,\"spans\":[{\"id\":-1}]}",
           "{\"version\":1,\"spans\":[{\"id\":1,\"src\":4294967296}]}",
           "{\"version\":1,\"spans_dropped\":-1,\"spans\":[]}",
           "{\"version\":1,\"spans\":[],\"segments\":[{\"dst\":-2}]}",
           "{\"version\":1,\"spans\":[],\"devices\":[{\"posted\":[1,2,3,"
           "1e30],\"completed\":[0,0,0,0],\"polled\":[0,0,0,0]}]}",
       }) {
    const StatusOr<SpanDataset> parsed = ParseSpanDatasetJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(SpanDatasetJson, SkipsUnknownKeysAndReadsNullAsAbsent) {
  // Unknown keys, nested or not, are skipped; null -- how a non-finite
  // number is written -- keeps the field's default.
  const std::string doc =
      "{\"note\":{\"nested\":[1,\"x\",null]},\"version\":2,\"spans\":[{"
      "\"id\":3,\"machine\":null,\"pull\":null,\"posted\":null,"
      "\"extra\":[true]}],\"segments\":[{\"flow\":3,\"rate\":null}],"
      "\"threads\":[{}]}";
  auto ds = ParseSpanDatasetJson(doc);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->spans.size(), 1u);
  EXPECT_EQ(ds->spans[0].id, 3u);
  EXPECT_EQ(ds->spans[0].machine, 0u);
  EXPECT_FALSE(ds->spans[0].pull);
  EXPECT_EQ(ds->spans[0].stage[0], kSpanUnset);
  ASSERT_EQ(ds->segments.size(), 1u);
  EXPECT_EQ(ds->segments[0].flow, 3u);
  EXPECT_EQ(ds->segments[0].rate, 0.0);
  EXPECT_EQ(ds->segments[0].bound, RateConstraint::kNone);
  ASSERT_EQ(ds->threads.size(), 1u);
  EXPECT_EQ(ds->threads[0].finish_seconds, 0.0);
  // A known field holding another kind of value is an error.
  for (const char* bad : {
           "{\"version\":1,\"spans\":[{\"id\":1,\"machine\":\"two\"}]}",
           "{\"version\":1,\"spans\":[{\"id\":1,\"pull\":1}]}",
           "{\"version\":1,\"spans\":[],\"segments\":[7]}",
           "{\"version\":2,\"spans\":[],\"segments\":[{\"bound\":5}]}",
       }) {
    EXPECT_FALSE(ParseSpanDatasetJson(bad).ok()) << bad;
  }
}

TEST(SpanDatasetJson, ReadsSchemaV1SegmentsAsUnlabeled) {
  // Pre-forensics documents carry no "bound" keys; they parse with kNone
  // labels and re-serialize byte-identically (still version 1).
  const std::string v1 =
      "{\"version\":1,\"spans\":[],\"segments\":[{\"flow\":7,\"src\":0,"
      "\"dst\":1,\"t0\":0,\"t1\":1,\"rate\":1000}],\"spans_recorded\":0,"
      "\"spans_dropped\":0,\"segments_recorded\":1,\"segments_dropped\":0}";
  auto ds = ParseSpanDatasetJson(v1);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  ASSERT_EQ(ds->segments.size(), 1u);
  EXPECT_EQ(ds->segments[0].bound, RateConstraint::kNone);
  EXPECT_EQ(ds->segments[0].bound_host, 0u);
  EXPECT_NE(SpanDatasetToJson(*ds).find("\"version\":1"), std::string::npos);
}

TEST(SpanDatasetJson, RejectsUnknownConstraintName) {
  const std::string v2 =
      "{\"version\":2,\"spans\":[],\"segments\":[{\"flow\":7,\"src\":0,"
      "\"dst\":1,\"t0\":0,\"t1\":1,\"rate\":1000,\"bound\":\"warp_drive\","
      "\"bound_host\":0}]}";
  EXPECT_FALSE(ParseSpanDatasetJson(v2).ok());
  // Version 2 documents with valid names parse.
  const std::string ok =
      "{\"version\":2,\"spans\":[],\"segments\":[{\"flow\":7,\"src\":0,"
      "\"dst\":1,\"t0\":0,\"t1\":1,\"rate\":1000,\"bound\":\"ingress\","
      "\"bound_host\":1}]}";
  auto ds = ParseSpanDatasetJson(ok);
  ASSERT_TRUE(ds.ok()) << ds.status().ToString();
  EXPECT_EQ(ds->segments[0].bound, RateConstraint::kReceiverIngress);
}

TEST(SpanDatasetJson, FileRoundTrip) {
  SpanRecorder rec;
  const uint64_t id = rec.BeginSpan(0, 0, 0, 0, 1, 64.0, false, 0.0);
  rec.MarkStage(id, SpanStage::kCompleted, 1.0);
  const SpanDataset ds = rec.Snapshot();
  const std::string path = TestTempPath("span_dataset_test.json");
  ASSERT_TRUE(WriteSpanDatasetFile(path, ds).ok());
  auto back = ReadSpanDatasetFile(path);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->spans.size(), 1u);
  EXPECT_FALSE(WriteSpanDatasetFile("/nonexistent-dir/x.json", ds).ok());
  EXPECT_FALSE(ReadSpanDatasetFile("/nonexistent-dir/x.json").ok());
}

}  // namespace
}  // namespace rdmajoin
