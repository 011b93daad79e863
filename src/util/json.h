#ifndef RDMAJOIN_UTIL_JSON_H_
#define RDMAJOIN_UTIL_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace rdmajoin {

/// A parsed JSON document node. Minimal by design: the repo's machine
/// interchange formats (bench JSON, trace JSON, metrics snapshots) only need
/// object/array/number/string/bool/null, and keeping the representation a
/// plain struct keeps consumers (tools/rdmajoin_analyze, tests) simple.
/// Object member order is preserved.
struct JsonValue {
  enum class Kind : uint8_t { kNull, kBool, kNumber, kString, kArray, kObject };

  Kind kind = Kind::kNull;
  bool bool_value = false;
  double number_value = 0;
  std::string string_value;
  std::vector<JsonValue> array_items;
  std::vector<std::pair<std::string, JsonValue>> object_members;

  bool is_null() const { return kind == Kind::kNull; }
  bool is_object() const { return kind == Kind::kObject; }
  bool is_array() const { return kind == Kind::kArray; }
  bool is_number() const { return kind == Kind::kNumber; }
  bool is_string() const { return kind == Kind::kString; }

  /// Object member lookup; null when absent or not an object.
  const JsonValue* Find(std::string_view key) const;

  /// Typed lookups with defaults, for tolerant schema readers.
  double NumberOr(std::string_view key, double fallback) const;
  std::string StringOr(std::string_view key, const std::string& fallback) const;
  bool BoolOr(std::string_view key, bool fallback) const;
};

/// Parses a complete JSON document (trailing whitespace allowed, trailing
/// garbage rejected). Returns InvalidArgument with an offset on malformed
/// input. Handles the full escape set including \uXXXX (decoded to UTF-8).
StatusOr<JsonValue> ParseJson(const std::string& text);

/// Escapes `s` for embedding inside a JSON string literal (no surrounding
/// quotes added).
std::string JsonEscape(const std::string& s);

/// Formats a double as a JSON number: the `%.*g` form with the smallest
/// precision P (1..16) that reads back as exactly `v`, else `%.17g`; the
/// non-finite values (which JSON cannot represent) as null. Every span,
/// bench and report JSON pins these bytes, so the format never changes.
std::string JsonNumber(double v);

/// Appends JsonNumber(v) to `*out` without building a temporary.
void AppendJsonNumber(std::string* out, double v);

/// Appends `v` exactly as printf("%.17g") formats it (non-finite values as
/// inf/nan): the fixed full-precision form of the trace, metrics and Chrome
/// trace exports.
void AppendDouble17(std::string* out, double v);

/// Reads the whole file at `path` into `*out`; false when it cannot be read.
bool ReadFileToString(const std::string& path, std::string* out);

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_JSON_H_
