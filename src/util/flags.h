#ifndef RDMAJOIN_UTIL_FLAGS_H_
#define RDMAJOIN_UTIL_FLAGS_H_

#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>

namespace rdmajoin {

/// Strict numeric parsing of command-line values: the whole token must be a
/// finite number. Protects against --scale=abc silently becoming scale 1 (a
/// 1024x slower run) or --tolerance=5% becoming 500 %.
inline bool ParseDoubleValue(const char* text, double* out) {
  if (text == nullptr || *text == '\0') return false;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == nullptr || *end != '\0') return false;
  if (!(v == v) || v > 1e300 || v < -1e300) return false;  // NaN / inf
  return *out = v, true;
}

/// Digits only: a sign, a fraction, an empty token or a value past 2^64 - 1
/// is rejected, so --cores=-1 cannot wrap to 4294967295.
inline bool ParseU64Value(const char* text, uint64_t* out) {
  if (text == nullptr || *text == '\0') return false;
  for (const char* p = text; *p != '\0'; ++p) {
    if (!std::isdigit(static_cast<unsigned char>(*p))) return false;
  }
  char* end = nullptr;
  errno = 0;
  *out = std::strtoull(text, &end, 10);
  return end != nullptr && *end == '\0' && errno != ERANGE;
}

/// A positive count that fits a uint32_t: machines, cores, list lengths.
inline bool ParseCountValue(const char* text, uint32_t* out) {
  uint64_t v = 0;
  if (!ParseU64Value(text, &v) || v == 0 ||
      v > std::numeric_limits<uint32_t>::max()) {
    return false;
  }
  return *out = static_cast<uint32_t>(v), true;
}

/// A finite number >= 0: tolerances, sizes.
inline bool ParseNonNegativeValue(const char* text, double* out) {
  double v = 0;
  if (!ParseDoubleValue(text, &v) || v < 0) return false;
  return *out = v, true;
}

/// A finite number > 0: scale factors, bucket widths.
inline bool ParsePositiveValue(const char* text, double* out) {
  double v = 0;
  if (!ParseDoubleValue(text, &v) || !(v > 0)) return false;
  return *out = v, true;
}

/// Reports the malformed, negative or out-of-range value of flag `arg` on
/// stderr and returns `result`, the caller's usage-error exit code (or
/// false): a bad value is a usage error, never a silent default.
template <typename T>
T InvalidFlagValue(const std::string& arg, T result) {
  std::fprintf(stderr, "invalid value: %s\n", arg.c_str());
  return result;
}

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_FLAGS_H_
