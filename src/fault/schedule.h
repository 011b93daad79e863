#ifndef RDMAJOIN_FAULT_SCHEDULE_H_
#define RDMAJOIN_FAULT_SCHEDULE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/statusor.h"

namespace rdmajoin {

/// Kinds of runtime faults the injector can schedule. Every fault is a timed
/// event on the discrete-event clock of the network partitioning pass, so a
/// given (schedule, seed) pair replays bit-identically.
enum class FaultKind : uint8_t {
  /// Scales one machine's egress and ingress port capacity by `factor`
  /// (0 < factor <= 1) for the window [start, start + duration). Models a
  /// link renegotiating to a lower rate or congestion outside the rack.
  kLinkDegrade = 0,
  /// Link flap: the machine's ports carry no traffic at all during the
  /// window (capacity scale 0). In-flight messages stall and resume when the
  /// window closes; nothing is lost. The window must be finite.
  kLinkFlap = 1,
  /// Straggler: the machine's partitioning threads compute at `factor` times
  /// their nominal rate during the window. Models a thermally throttled or
  /// co-scheduled node.
  kStraggler = 2,
  /// Queue-pair fault on the execution path: consecutive Ship attempts
  /// [ordinal, ordinal + count) issued by `machine` fail. With drop = false
  /// the send completes with an error work completion and the QP transitions
  /// to the error state (per verbs semantics); with drop = true the
  /// completion never arrives and the sender must time out.
  kQpError = 3,
  /// Buffer-pool pressure: the machine's per-slot send-credit supply is
  /// scaled by `factor` (floored, minimum one credit) during the window.
  kCreditShrink = 4,
};

/// Stable lower-case name ("link-degrade", "link-flap", "straggler",
/// "qp-error", "credit-shrink") used in JSON and on the command line.
std::string FaultKindName(FaultKind kind);
StatusOr<FaultKind> FaultKindFromName(const std::string& name);

/// One scheduled fault. Fields beyond `kind` are interpreted per kind; unused
/// fields keep their defaults and are omitted from JSON.
struct FaultEvent {
  /// Applies to every machine.
  static constexpr uint32_t kAllMachines = UINT32_MAX;

  FaultKind kind = FaultKind::kLinkDegrade;
  /// Window on the network-pass clock (seconds of virtual time from the
  /// phase barrier). Ignored by kQpError, which is keyed by ordinal instead.
  double start_seconds = 0;
  double duration_seconds = 0;
  /// Affected machine, or kAllMachines.
  uint32_t machine = kAllMachines;
  /// Capacity / compute-rate / credit scale in (0, 1]; forced to 0 for
  /// kLinkFlap.
  double factor = 1.0;
  /// kQpError: zero-based index of the first affected Ship attempt on the
  /// issuing machine's channel, and how many consecutive attempts fail.
  uint64_t ordinal = 0;
  uint32_t count = 1;
  /// kQpError: true drops the completion entirely (sender must time out);
  /// false delivers an error work completion immediately.
  bool drop = false;

  double end_seconds() const { return start_seconds + duration_seconds; }
};

/// A deterministic list of fault events. Order carries no meaning; windows
/// may overlap (scales multiply).
struct FaultSchedule {
  std::vector<FaultEvent> events;

  bool empty() const { return events.empty(); }

  /// Checks internal consistency: finite non-negative windows, factors in
  /// (0, 1] where a scale is meaningful, positive counts, and machine
  /// indices below `num_machines` (kAllMachines always passes). Pass 0 to
  /// skip the machine-range check (schedule not yet bound to a cluster).
  Status Validate(uint32_t num_machines = 0) const;
};

/// Reads a schedule document: {"version":1,"events":[...]} with one object
/// per event (docs/robustness.md lists the fields).
StatusOr<FaultSchedule> FaultScheduleFromJson(const std::string& text);

/// Named presets for the CLI and the chaos tool. `seed` parameterizes the
/// randomized ones ("chaos"); the rest are fixed. Names:
///   none, link-degrade, link-flap, straggler, qp-error, qp-drop,
///   credit-shrink, chaos
StatusOr<FaultSchedule> MakeFaultPreset(const std::string& name, uint64_t seed,
                                        uint32_t num_machines);
std::vector<std::string> FaultPresetNames();

/// A seeded multi-fault schedule mixing all kinds; deterministic in
/// (seed, num_machines).
FaultSchedule MakeChaosSchedule(uint64_t seed, uint32_t num_machines);

/// Loads a schedule from `spec`: a preset name first, else a path to a JSON
/// schedule file.
StatusOr<FaultSchedule> LoadFaultSchedule(const std::string& spec, uint64_t seed,
                                          uint32_t num_machines);

}  // namespace rdmajoin

#endif  // RDMAJOIN_FAULT_SCHEDULE_H_
