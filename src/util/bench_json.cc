#include "util/bench_json.h"

namespace rdmajoin {

const BenchJsonRow* BenchJsonDocument::FindRow(const std::string& label) const {
  for (const BenchJsonRow& row : rows) {
    if (row.label == label) return &row;
  }
  return nullptr;
}

StatusOr<BenchJsonDocument> ParseBenchJson(const std::string& json) {
  RDMAJOIN_ASSIGN_OR_RETURN(JsonValue root, ParseJson(json));
  if (!root.is_object()) {
    return Status::InvalidArgument("bench JSON: top level is not an object");
  }
  BenchJsonDocument doc;
  RDMAJOIN_ASSIGN_OR_RETURN(doc.schema_version, root.IntegerOr<int>("schema_version", 0));
  if (doc.schema_version != kBenchJsonSchemaVersion) {
    return Status::InvalidArgument(
        "bench JSON: unsupported schema_version " +
        std::to_string(doc.schema_version) + " (expected " +
        std::to_string(kBenchJsonSchemaVersion) + ")");
  }
  doc.bench = root.StringOr("bench", "");
  if (doc.bench.empty()) {
    return Status::InvalidArgument("bench JSON: missing 'bench' name");
  }
  doc.scale_up = root.NumberOr("scale_up", 0);
  RDMAJOIN_ASSIGN_OR_RETURN(doc.seed, root.IntegerOr<uint64_t>("seed", 0));
  const JsonValue* rows = root.Find("rows");
  if (rows == nullptr || !rows->is_array()) {
    return Status::InvalidArgument("bench JSON: missing 'rows' array");
  }
  for (const JsonValue& item : rows->array_items) {
    if (!item.is_object()) {
      return Status::InvalidArgument("bench JSON: row is not an object");
    }
    BenchJsonRow row;
    row.label = item.StringOr("label", "");
    if (row.label.empty()) {
      return Status::InvalidArgument("bench JSON: row without a label");
    }
    row.ok = item.BoolOr("ok", false);
    row.verified = item.BoolOr("verified", false);
    row.error = item.StringOr("error", "");
    if (const JsonValue* v = item.Find("measured_seconds");
        v != nullptr && v->is_number()) {
      row.measured_seconds = v->number_value;
      row.has_measured = true;
    }
    if (const JsonValue* v = item.Find("paper_seconds");
        v != nullptr && v->is_number()) {
      row.paper_seconds = v->number_value;
      row.has_paper = true;
    }
    if (const JsonValue* model = item.Find("model"); model != nullptr) {
      if (const JsonValue* v = model->Find("total_seconds");
          v != nullptr && v->is_number()) {
        row.model_seconds = v->number_value;
        row.has_model = true;
        row.residual_seconds = model->NumberOr("residual_seconds", 0);
      }
    }
    RDMAJOIN_ASSIGN_OR_RETURN(
        row.protocol_violations,
        item.IntegerOr<uint64_t>("protocol_violations", 0));
    row.raw = item;
    doc.rows.push_back(std::move(row));
  }
  return doc;
}

StatusOr<BenchJsonDocument> ReadBenchJsonFile(const std::string& path) {
  std::string text;
  if (!ReadFileToString(path, &text)) {
    return Status::NotFound("cannot open " + path);
  }
  auto doc = ParseBenchJson(text);
  if (!doc.ok()) {
    return Status::InvalidArgument(path + ": " + doc.status().message());
  }
  return doc;
}

}  // namespace rdmajoin
