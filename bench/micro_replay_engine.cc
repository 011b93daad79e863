// Host-time (wall-clock) microbenchmarks of the replay's network engine:
// what LinkFabric's incremental rate reshare costs at replay-like flow
// counts, with and without span telemetry. Unlike every fig/abl harness
// (which reports *virtual* seconds and is byte-identical across machines),
// these rows measure the machine they run on; the committed baseline is
// gated in CI with a generous tolerance (see .github/workflows/ci.yml
// perf-smoke) so it catches order-of-magnitude engine regressions, not
// scheduler noise.
//
// lint: the wall-clock allowance for this file lives in
// tools/lint_config.json -- host-time measurement is this bench's purpose.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "sim/link_fabric.h"
#include "timing/span_trace.h"

namespace rdmajoin {
namespace {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Best of three runs: host-time benches fight scheduler noise, and the
/// minimum is the least contaminated estimate of the true cost.
template <typename Fn>
double BestOfThreeSeconds(const Fn& fn) {
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = NowSeconds();
    fn();
    const double dt = NowSeconds() - t0;
    if (rep == 0 || dt < best) best = dt;
  }
  return best;
}

// --- LinkFabric: reshare cost at replay-like flow counts -------------------

constexpr uint32_t kReshareHosts = 10;  // 90 ordered pairs >= 64 active links
constexpr int kReshareRounds = 40;
constexpr int kQueueDepthPerLink = 6;

FabricConfig EngineConfig() {
  FabricConfig f;
  f.num_hosts = kReshareHosts;
  f.egress_bytes_per_sec = 1000.0;
  f.ingress_bytes_per_sec = 1000.0;
  f.message_rate_per_host = 5.0;  // binding cap: head pops refresh rates
  f.base_latency_seconds = 1e-6;
  f.verify_reshare = false;  // measuring, not cross-checking
  return f;
}

struct LinkPumpStats {
  uint64_t messages = 0;
  uint64_t reshared_links = 0;
  size_t flows_at_peak = 0;
};

/// All-to-all link pump: every ordered pair keeps a deep queue of
/// distinct-size messages, so head pops dominate and desynchronize --
/// the replay hot path at network-partitioning peak. With `telemetry` the
/// fabric additionally labels and reports every rate segment through it,
/// which is exactly what a replay with span recording enabled pays.
LinkPumpStats PumpLinkFabric(FlowTelemetry* telemetry = nullptr) {
  LinkFabric fabric(EngineConfig());
  if (telemetry != nullptr) fabric.EnableFlowTelemetry(telemetry);
  LinkPumpStats stats;
  double t = 0.0;
  std::vector<LinkFabric::Completion> done;
  for (int round = 0; round < kReshareRounds; ++round) {
    uint32_t li = 0;
    for (uint32_t s = 0; s < kReshareHosts; ++s) {
      for (uint32_t d = 0; d < kReshareHosts; ++d) {
        if (s == d) continue;
        for (int k = 0; k < kQueueDepthPerLink; ++k) {
          fabric.Enqueue(s, d, 100.0 + 13.0 * li + 7.0 * k, t);
          ++stats.messages;
        }
        ++li;
      }
    }
    stats.flows_at_peak = std::max(stats.flows_at_peak, fabric.queued_messages());
    t += 1e6;
    done.clear();
    fabric.AdvanceTo(t, &done);
  }
  stats.reshared_links = fabric.reshared_links();
  return stats;
}

int Run(int argc, char** argv) {
  const bench::Options opt = bench::ParseOptions(argc, argv);
  bench::BenchReporter reporter("micro_replay_engine", opt);

  // LinkFabric reshare cost (the replay hot path).
  LinkPumpStats link_inc;
  const double link_inc_s = BestOfThreeSeconds([&] { link_inc = PumpLinkFabric(); });
  const bench::BenchReporter::Config link_cfg = {
      {"hosts", std::to_string(kReshareHosts)},
      {"messages", std::to_string(link_inc.messages)},
      {"flows_at_peak", std::to_string(link_inc.flows_at_peak)}};
  reporter.AddMeasurement("link_reshare_incremental", link_cfg, link_inc_s);
  reporter.AddMeasurement("link_pump_events_per_sec", link_cfg,
                          static_cast<double>(link_inc.messages) / link_inc_s,
                          "events_per_sec");
  reporter.AddMeasurement(
      "link_reshared_assignments_incremental", link_cfg,
      static_cast<double>(link_inc.reshared_links), "assignments");
  std::printf(
      "link fabric: %.3fs (%llu assignments), %zu flows at peak\n", link_inc_s,
      static_cast<unsigned long long>(link_inc.reshared_links),
      link_inc.flows_at_peak);

  // Telemetry overhead: the same link pump with a SpanRecorder
  // attached, so every reshare additionally classifies each flow's binding
  // constraint and pushes the labeled segment into the recorder's ring.
  // This is the marginal cost a replay pays for bottleneck forensics.
  LinkPumpStats link_tel;
  const double link_tel_s = BestOfThreeSeconds([&] {
    SpanRecorder recorder;
    link_tel = PumpLinkFabric(&recorder);
  });
  reporter.AddMeasurement("link_reshare_telemetry", link_cfg, link_tel_s);
  reporter.AddMeasurement("link_telemetry_overhead", link_cfg,
                          link_tel_s / link_inc_s, "x");
  std::printf(
      "link fabric telemetry: %.3fs with recorder (%.2fx of bare "
      "incremental)\n",
      link_tel_s, link_tel_s / link_inc_s);

  return reporter.Finish();
}

}  // namespace
}  // namespace rdmajoin

int main(int argc, char** argv) { return rdmajoin::Run(argc, argv); }
