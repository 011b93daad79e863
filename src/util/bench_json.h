#ifndef RDMAJOIN_UTIL_BENCH_JSON_H_
#define RDMAJOIN_UTIL_BENCH_JSON_H_

#include <cstdint>
#include <string>
#include <vector>

#include "util/json.h"
#include "util/statusor.h"

namespace rdmajoin {

/// The machine-readable bench result schema (`BENCH_<name>.json`) that every
/// fig/abl/ext harness emits through bench::BenchReporter, that
/// tools/rdmajoin_analyze renders, and that timing/run_diff compares.
/// Version history:
///   1 -- initial: bench/scale_up/seed header plus rows of
///        {label, config, measured/paper/model seconds, phases, attribution,
///         model residuals, protocol violations}.
inline constexpr int kBenchJsonSchemaVersion = 1;

/// One data point of a bench run (one table row / figure point).
struct BenchJsonRow {
  std::string label;
  bool ok = false;
  bool verified = false;
  std::string error;
  /// Total virtual seconds; NaN when the row did not produce a measurement.
  double measured_seconds = 0;
  bool has_measured = false;
  /// The paper's reference value for this point, when the figure states one.
  double paper_seconds = 0;
  bool has_paper = false;
  /// Closed-form model prediction and residual (fig09-style rows).
  double model_seconds = 0;
  bool has_model = false;
  double residual_seconds = 0;
  uint64_t protocol_violations = 0;
  /// The row's full JSON object, for consumers that want phases,
  /// attribution, or config details beyond the typed fields above.
  JsonValue raw;
};

/// A parsed BENCH_*.json document.
struct BenchJsonDocument {
  int schema_version = 0;
  std::string bench;
  double scale_up = 0;
  uint64_t seed = 0;
  std::vector<BenchJsonRow> rows;

  const BenchJsonRow* FindRow(const std::string& label) const;
};

/// Parses and structurally validates a bench JSON document. Rejects unknown
/// schema versions and rows without labels.
StatusOr<BenchJsonDocument> ParseBenchJson(const std::string& json);

/// Convenience: read + parse a file.
StatusOr<BenchJsonDocument> ReadBenchJsonFile(const std::string& path);

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_BENCH_JSON_H_
