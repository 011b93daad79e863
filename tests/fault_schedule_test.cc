// Fault schedules and the injector's query semantics: validation, JSON
// round trip (byte-stable), presets, and the window/ordinal arithmetic the
// replay and transport layers rely on.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "fault/injector.h"
#include "fault/schedule.h"
#include "tests/fault_schedule_json.h"
#include "tests/test_temp_dir.h"

namespace rdmajoin {
namespace {

FaultEvent Degrade(uint32_t machine, double start, double duration,
                   double factor) {
  FaultEvent e;
  e.kind = FaultKind::kLinkDegrade;
  e.machine = machine;
  e.start_seconds = start;
  e.duration_seconds = duration;
  e.factor = factor;
  return e;
}

TEST(FaultSchedule, ValidateAcceptsWellFormedSchedules) {
  FaultSchedule s;
  s.events.push_back(Degrade(1, 0.1, 0.2, 0.5));
  FaultEvent qp;
  qp.kind = FaultKind::kQpError;
  qp.machine = 0;
  qp.ordinal = 7;
  qp.count = 3;
  s.events.push_back(qp);
  EXPECT_TRUE(s.Validate().ok());
  EXPECT_TRUE(s.Validate(2).ok());
}

TEST(FaultSchedule, ValidateRejectsBadFactorsWindowsAndMachines) {
  {
    FaultSchedule s;
    s.events.push_back(Degrade(0, 0.0, 1.0, 0.0));  // factor must be > 0
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    s.events.push_back(Degrade(0, 0.0, 1.0, 1.5));  // factor must be <= 1
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    s.events.push_back(Degrade(0, -1.0, 1.0, 0.5));  // negative start
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    FaultEvent flap;
    flap.kind = FaultKind::kLinkFlap;
    flap.start_seconds = 0.0;
    flap.duration_seconds = std::numeric_limits<double>::infinity();
    s.events.push_back(flap);  // a flap must end
    EXPECT_FALSE(s.Validate().ok());
  }
  {
    FaultSchedule s;
    s.events.push_back(Degrade(5, 0.0, 1.0, 0.5));
    EXPECT_TRUE(s.Validate().ok());      // unbound: machine range unchecked
    EXPECT_FALSE(s.Validate(4).ok());    // bound to 4 machines: out of range
  }
  {
    FaultSchedule s;
    FaultEvent qp;
    qp.kind = FaultKind::kQpError;
    qp.count = 0;  // must fail at least one attempt
    s.events.push_back(qp);
    EXPECT_FALSE(s.Validate().ok());
  }
}

TEST(FaultSchedule, JsonRoundTripIsByteStable) {
  FaultSchedule s;
  s.events.push_back(Degrade(1, 0.125, 0.25, 0.5));
  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.machine = 0;
  flap.start_seconds = 0.001;
  flap.duration_seconds = 0.002;
  s.events.push_back(flap);
  FaultEvent qp;
  qp.kind = FaultKind::kQpError;
  qp.machine = 2;
  qp.ordinal = 11;
  qp.count = 2;
  qp.drop = true;
  s.events.push_back(qp);

  const std::string json = FaultScheduleToJson(s);
  auto parsed = FaultScheduleFromJson(json);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->events.size(), s.events.size());
  // Byte-stable: serializing the parsed schedule reproduces the document.
  EXPECT_EQ(FaultScheduleToJson(*parsed), json);
  // And the fields survived.
  EXPECT_EQ(parsed->events[2].kind, FaultKind::kQpError);
  EXPECT_EQ(parsed->events[2].ordinal, 11u);
  EXPECT_EQ(parsed->events[2].count, 2u);
  EXPECT_TRUE(parsed->events[2].drop);
  EXPECT_DOUBLE_EQ(parsed->events[0].factor, 0.5);
}

TEST(FaultSchedule, FromJsonRejectsMalformedDocuments) {
  EXPECT_FALSE(FaultScheduleFromJson("not json").ok());
  EXPECT_FALSE(FaultScheduleFromJson("{\"version\":1}").ok());
  EXPECT_FALSE(
      FaultScheduleFromJson("{\"version\":1,\"events\":[{\"kind\":\"nope\"}]}")
          .ok());
  // Integers their field cannot hold: the cast would be undefined behaviour.
  for (const char* bad : {
           "{\"events\":[{\"kind\":\"qp-error\",\"ordinal\":1e30,\"count\":1}]}",
           "{\"events\":[{\"kind\":\"qp-error\",\"ordinal\":1,\"count\":-1}]}",
           "{\"events\":[{\"kind\":\"qp-error\",\"machine\":4294967296}]}",
       }) {
    const auto parsed = FaultScheduleFromJson(bad);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.status().code(), StatusCode::kInvalidArgument) << bad;
  }
}

TEST(FaultSchedule, PresetsExistValidateAndNoneIsEmpty) {
  for (const std::string& name : FaultPresetNames()) {
    auto s = MakeFaultPreset(name, /*seed=*/7, /*num_machines=*/4);
    ASSERT_TRUE(s.ok()) << name << ": " << s.status().ToString();
    EXPECT_TRUE(s->Validate(4).ok()) << name;
    if (name == "none") {
      EXPECT_TRUE(s->empty());
    } else {
      EXPECT_FALSE(s->empty()) << name;
    }
  }
  EXPECT_FALSE(MakeFaultPreset("no-such-preset", 7, 4).ok());
}

TEST(FaultSchedule, ChaosScheduleIsDeterministicInSeed) {
  const FaultSchedule a = MakeChaosSchedule(123, 8);
  const FaultSchedule b = MakeChaosSchedule(123, 8);
  const FaultSchedule c = MakeChaosSchedule(124, 8);
  EXPECT_EQ(FaultScheduleToJson(a), FaultScheduleToJson(b));
  EXPECT_NE(FaultScheduleToJson(a), FaultScheduleToJson(c));
  EXPECT_TRUE(a.Validate(8).ok());
}

TEST(FaultSchedule, LoadResolvesPresetNameThenFile) {
  auto preset = LoadFaultSchedule("straggler", 42, 4);
  ASSERT_TRUE(preset.ok());
  EXPECT_FALSE(preset->empty());

  FaultSchedule s;
  s.events.push_back(Degrade(0, 0.0, 0.5, 0.25));
  const std::string path = TestTempPath("fault_schedule_test.json");
  {
    std::ofstream out(path, std::ios::binary);
    out << FaultScheduleToJson(s);
  }
  auto from_file = LoadFaultSchedule(path, 42, 4);
  ASSERT_TRUE(from_file.ok()) << from_file.status().ToString();
  EXPECT_EQ(FaultScheduleToJson(*from_file), FaultScheduleToJson(s));
  std::remove(path.c_str());

  EXPECT_FALSE(LoadFaultSchedule("definitely/not/a/file.json", 42, 4).ok());
}

TEST(FaultInjector, EmptyScheduleIsInactiveIdentity) {
  FaultInjector inj;
  EXPECT_FALSE(inj.active());
  EXPECT_EQ(inj.EgressScale(0, 0.5), 1.0);
  EXPECT_EQ(inj.IngressScale(3, 0.5), 1.0);
  EXPECT_TRUE(std::isinf(inj.NextTransitionAfter(0.0)));
  EXPECT_FALSE(inj.HasStraggler(0));
  EXPECT_FALSE(inj.HasCreditFaults());
  EXPECT_FALSE(inj.HasLinkFaults());
  EXPECT_FALSE(inj.HasSendFaults());
  EXPECT_EQ(inj.EffectiveCredits(0, 0.5, 4), 4u);
  EXPECT_EQ(inj.QuerySendFault(0, 0), FaultInjector::SendFault::kNone);
  EXPECT_DOUBLE_EQ(inj.ComputeFinishTime(0, 1.0, 0.5), 1.5);
}

TEST(FaultInjector, LinkWindowsAreHalfOpenAndMultiply) {
  // All window boundaries are dyadic so the start + duration sums are exact.
  FaultSchedule s;
  s.events.push_back(Degrade(1, 0.125, 0.25, 0.5));  // [0.125, 0.375)
  s.events.push_back(Degrade(1, 0.25, 0.25, 0.5));   // [0.25, 0.5)
  FaultEvent flap;
  flap.kind = FaultKind::kLinkFlap;
  flap.machine = 0;
  flap.start_seconds = 1.0;
  flap.duration_seconds = 0.5;
  s.events.push_back(flap);
  const FaultInjector inj(std::move(s));

  EXPECT_EQ(inj.EgressScale(1, 0.0625), 1.0);  // before the window
  EXPECT_EQ(inj.EgressScale(1, 0.125), 0.5);   // start is inclusive
  EXPECT_EQ(inj.EgressScale(1, 0.3), 0.25);    // overlap: scales multiply
  EXPECT_EQ(inj.EgressScale(1, 0.375), 0.5);   // first window's end excluded
  EXPECT_EQ(inj.EgressScale(1, 0.5), 1.0);     // end is exclusive
  EXPECT_EQ(inj.EgressScale(2, 0.3), 1.0);     // other machines untouched
  EXPECT_EQ(inj.EgressScale(0, 1.25), 0.0);    // flap: dead link
  // Transitions enumerate every start and end boundary.
  EXPECT_DOUBLE_EQ(inj.NextTransitionAfter(0.0), 0.125);
  EXPECT_DOUBLE_EQ(inj.NextTransitionAfter(0.125), 0.25);
  EXPECT_DOUBLE_EQ(inj.NextTransitionAfter(0.25), 0.375);
  EXPECT_DOUBLE_EQ(inj.NextTransitionAfter(0.375), 0.5);
  EXPECT_DOUBLE_EQ(inj.NextTransitionAfter(0.5), 1.0);
  EXPECT_DOUBLE_EQ(inj.NextTransitionAfter(1.0), 1.5);
  EXPECT_TRUE(std::isinf(inj.NextTransitionAfter(1.5)));
}

TEST(FaultInjector, StragglerIntegratesPiecewiseRate) {
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kStraggler;
  e.machine = 2;
  e.start_seconds = 1.0;
  e.duration_seconds = 1.0;
  e.factor = 0.5;
  s.events.push_back(e);
  const FaultInjector inj(std::move(s));

  EXPECT_TRUE(inj.HasStraggler(2));
  EXPECT_FALSE(inj.HasStraggler(1));
  // Entirely before the window: nominal speed.
  EXPECT_DOUBLE_EQ(inj.ComputeFinishTime(2, 0.0, 0.5), 0.5);
  // Entirely inside the window: half speed doubles the duration.
  EXPECT_DOUBLE_EQ(inj.ComputeFinishTime(2, 1.0, 0.25), 1.5);
  // Straddling the start: 0.5 s of work at full rate, the rest at half.
  EXPECT_DOUBLE_EQ(inj.ComputeFinishTime(2, 0.5, 1.0), 2.0);
  // Work that out-lives the window resumes nominal speed after it.
  EXPECT_DOUBLE_EQ(inj.ComputeFinishTime(2, 1.0, 1.0), 2.5);
  // Unaffected machine: identity.
  EXPECT_DOUBLE_EQ(inj.ComputeFinishTime(1, 1.0, 1.0), 2.0);
}

TEST(FaultInjector, CreditShrinkFloorsAtOne) {
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kCreditShrink;
  e.machine = FaultEvent::kAllMachines;
  e.start_seconds = 0.0;
  e.duration_seconds = 1.0;
  e.factor = 0.1;
  s.events.push_back(e);
  const FaultInjector inj(std::move(s));

  EXPECT_TRUE(inj.HasCreditFaults());
  EXPECT_EQ(inj.EffectiveCredits(0, 0.5, 8), 1u);   // floor(0.8) -> min 1
  EXPECT_EQ(inj.EffectiveCredits(3, 0.5, 40), 4u);  // floor(4.0)
  EXPECT_EQ(inj.EffectiveCredits(0, 2.0, 8), 8u);   // outside the window
}

TEST(FaultInjector, QpFaultsKeyByMachineAndOrdinalRange) {
  FaultSchedule s;
  FaultEvent e;
  e.kind = FaultKind::kQpError;
  e.machine = 1;
  e.ordinal = 5;
  e.count = 2;
  s.events.push_back(e);
  FaultEvent d;
  d.kind = FaultKind::kQpError;
  d.machine = FaultEvent::kAllMachines;
  d.ordinal = 100;
  d.count = 1;
  d.drop = true;
  s.events.push_back(d);
  const FaultInjector inj(std::move(s));

  EXPECT_TRUE(inj.HasSendFaults());
  EXPECT_EQ(inj.QuerySendFault(1, 4), FaultInjector::SendFault::kNone);
  EXPECT_EQ(inj.QuerySendFault(1, 5), FaultInjector::SendFault::kCompletionError);
  EXPECT_EQ(inj.QuerySendFault(1, 6), FaultInjector::SendFault::kCompletionError);
  EXPECT_EQ(inj.QuerySendFault(1, 7), FaultInjector::SendFault::kNone);
  EXPECT_EQ(inj.QuerySendFault(0, 5), FaultInjector::SendFault::kNone);
  // kAllMachines matches every issuer.
  EXPECT_EQ(inj.QuerySendFault(0, 100), FaultInjector::SendFault::kDrop);
  EXPECT_EQ(inj.QuerySendFault(3, 100), FaultInjector::SendFault::kDrop);
}

}  // namespace
}  // namespace rdmajoin
