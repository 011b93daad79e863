#ifndef RDMAJOIN_TESTS_FAULT_SCHEDULE_JSON_H_
#define RDMAJOIN_TESTS_FAULT_SCHEDULE_JSON_H_

#include <string>

#include "fault/schedule.h"
#include "util/json.h"

namespace rdmajoin {

/// Writes a fault schedule in the document FaultScheduleFromJson reads:
/// {"version":1,"events":[...]}, one object per event carrying only the
/// fields its kind uses. Numbers take JsonNumber's form, so a parsed
/// schedule serializes back to the same bytes. The library only reads
/// schedules; tests write them.
inline std::string FaultScheduleToJson(const FaultSchedule& schedule) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key("version").Uint(1).Key("events").BeginArray();
  for (const FaultEvent& e : schedule.events) {
    w.BeginObject().Key("kind").String(FaultKindName(e.kind));
    if (e.kind != FaultKind::kQpError) {  // the windowed kinds
      w.Key("start_seconds").Number(e.start_seconds)
          .Key("duration_seconds").Number(e.duration_seconds);
    }
    if (e.machine != FaultEvent::kAllMachines) w.Key("machine").Uint(e.machine);
    if (e.kind == FaultKind::kLinkDegrade || e.kind == FaultKind::kStraggler ||
        e.kind == FaultKind::kCreditShrink) {
      w.Key("factor").Number(e.factor);
    }
    if (e.kind == FaultKind::kQpError) {
      w.Key("ordinal").Uint(e.ordinal).Key("count").Uint(e.count);
      if (e.drop) w.Key("drop").Bool(true);
    }
    w.EndObject();
  }
  w.EndArray().EndObject();
  return out;
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_TESTS_FAULT_SCHEDULE_JSON_H_
