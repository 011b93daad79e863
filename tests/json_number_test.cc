// Differential tests of util/json's number formatting and parsing. The
// snprintf/strtod implementations that util/json used before it moved to
// std::to_chars/std::from_chars live on here as oracles: every JSON export
// pins its bytes, so the new code must match them exactly, not just round
// trip.

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "util/json.h"
#include "util/random.h"

namespace rdmajoin {
namespace {

/// Oracle: the original JsonNumber. Tries %.1g .. %.16g and keeps the first
/// form strtod reads back as exactly `v`, else %.17g; non-finite -> null.
std::string OracleJsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  for (int precision = 1; precision < 17; ++precision) {
    char shorter[64];
    std::snprintf(shorter, sizeof(shorter), "%.*g", precision, v);
    if (std::strtod(shorter, nullptr) == v) return shorter;
  }
  return buf;
}

/// Oracle: the private AppendDouble the trace, metrics and Chrome-trace
/// writers each carried.
std::string OracleDouble17(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// Oracle: the original parser's verdict on a token made only of number
/// characters -- strtod must consume all of it -- except that a token that
/// overflows to infinity is rejected (JSON cannot represent inf).
bool OracleParseNumber(const std::string& token, double* value) {
  if (token.empty()) return false;
  char* end = nullptr;
  *value = std::strtod(token.c_str(), &end);
  return end != nullptr && *end == '\0' && std::isfinite(*value);
}

/// The classes of doubles the formatter treats differently.
enum class ValueClass {
  kShortDecimals,    // 1 to 8 digits, scaled across the exponent range
  kUniform,          // uniform in [0, 10^k)
  kRawBits,          // random bit patterns, NaN and infinity included
  kIntegers,         // up to 2^53, half of them with trailing zeros
  kPowersOfTwo,      // every binary exponent, subnormal ones included
  kPowerNeighbours,  // the doubles next to a power of two
  kSubnormals,       // zero exponent field, random mantissa
  kVirtualTimes,     // a few seconds with every mantissa bit in play
  kDyadicTies,       // m / 2^q in [1, 16): short exact decimals ending in 5,
                     // halfway between two 15- to 17-digit decimals
};
constexpr ValueClass kAllClasses[] = {
    ValueClass::kShortDecimals, ValueClass::kUniform,
    ValueClass::kRawBits,       ValueClass::kIntegers,
    ValueClass::kPowersOfTwo,   ValueClass::kPowerNeighbours,
    ValueClass::kSubnormals,    ValueClass::kVirtualTimes,
    ValueClass::kDyadicTies};

// 9 classes x 150 K = 1.35 M seeded doubles, plus the edge values.
constexpr size_t kPerClass = 150000;

/// The fixed edge values: signed zeros, the %g exponent-form switch points,
/// 17-digit values, the extremes and the non-finite values.
std::vector<double> EdgeValues() {
  return {0.0,
          -0.0,
          1e5,
          1e-5,
          1e16,
          1e21,
          1e22,
          0.1,
          0.30000000000000004,
          123456.78901234567,
          DBL_MAX,
          -DBL_MAX,
          DBL_MIN,
          std::numeric_limits<double>::denorm_min(),
          std::nextafter(DBL_MIN, 0.0),
          9007199254740992.0,
          9007199254740993.0,
          8.0000152587890625,   // halfway between two 16-digit decimals
          1.00000762939453125,  // halfway between two 17-digit decimals
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::quiet_NaN(),
          -std::numeric_limits<double>::quiet_NaN()};
}

/// `n` seeded doubles of class `c` (each class has its own seed).
std::vector<double> SeededDoubles(ValueClass c, size_t n) {
  Random rng(20150531 + static_cast<uint64_t>(c));
  auto sign = [&rng](double v) { return (rng.Next() & 1) ? -v : v; };
  std::vector<double> out;
  out.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    switch (c) {
      case ValueClass::kShortDecimals: {
        const double digits = static_cast<double>(1 + rng.Uniform(99999999));
        const double decade = static_cast<double>(rng.Uniform(80)) - 48;
        out.push_back(sign(digits * std::pow(10.0, decade)));
        break;
      }
      case ValueClass::kUniform: {
        const double range = static_cast<double>(rng.Uniform(25)) - 12;
        out.push_back(sign(rng.NextDouble() * std::pow(10.0, range)));
        break;
      }
      case ValueClass::kRawBits:
        out.push_back(std::bit_cast<double>(rng.Next()));
        break;
      case ValueClass::kIntegers: {
        const uint64_t k = rng.Uniform(uint64_t{1} << (1 + rng.Uniform(53)));
        const double zeros =
            (i & 1) ? std::pow(10.0, static_cast<double>(rng.Uniform(6))) : 1;
        out.push_back(sign(static_cast<double>(k) * zeros));
        break;
      }
      case ValueClass::kPowersOfTwo:
      case ValueClass::kPowerNeighbours: {
        const double p2 =
            std::ldexp(1.0, static_cast<int>(rng.Uniform(2098)) - 1074);
        out.push_back(c == ValueClass::kPowersOfTwo
                          ? sign(p2)
                          : std::nextafter(p2, (i & 1) ? 0.0 : DBL_MAX));
        break;
      }
      case ValueClass::kSubnormals:
        out.push_back(
            std::bit_cast<double>(rng.Next() & 0x800FFFFFFFFFFFFFull));
        break;
      case ValueClass::kVirtualTimes:
        out.push_back(rng.NextDouble() * 30.0);
        break;
      case ValueClass::kDyadicTies: {
        const int q = 10 + static_cast<int>(rng.Uniform(13));
        const uint64_t m =
            (uint64_t{1} << q) + 2 * rng.Uniform(uint64_t{15} << (q - 1)) + 1;
        out.push_back(std::ldexp(static_cast<double>(m), -q));
        break;
      }
    }
  }
  return out;
}

/// One test per class, so ctest -j spreads the oracle's cost.
class JsonNumberOracleTest : public testing::TestWithParam<ValueClass> {};

TEST_P(JsonNumberOracleTest, MatchesSnprintfStrtodByteForByte) {
  std::vector<double> values = SeededDoubles(GetParam(), kPerClass);
  for (const double v : EdgeValues()) values.push_back(v);
  size_t mismatches = 0;
  for (const double v : values) {
    const std::string want = OracleJsonNumber(v);
    const std::string got = JsonNumber(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "bits 0x" << std::hex << std::bit_cast<uint64_t>(v)
                    << ": JsonNumber gave " << got << ", oracle " << want;
    }
    // JsonWriter::Number, which every exporter calls, writes the same bytes.
    std::string written;
    JsonWriter(&written).Number(v);
    if (written != want && ++mismatches <= 10) {
      ADD_FAILURE() << "JsonWriter::Number diverged on " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllClasses, JsonNumberOracleTest,
                         testing::ValuesIn(kAllClasses));

TEST(JsonNumber, NonFiniteValuesAreNull) {
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::infinity()), "null");
  EXPECT_EQ(JsonNumber(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(-std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(JsonNumber(1e5), "1e+05");
  EXPECT_EQ(JsonNumber(-0.0), "-0");
}

TEST(JsonNumber, Double17MatchesSnprintfByteForByte) {
  std::vector<double> values = EdgeValues();
  for (const ValueClass c : kAllClasses) {
    const std::vector<double> seeded = SeededDoubles(c, kPerClass);
    values.insert(values.end(), seeded.begin(), seeded.end());
  }
  size_t mismatches = 0;
  for (const double v : values) {
    std::string got = "x";
    AppendDouble17(&got, v);
    const std::string want = "x" + OracleDouble17(v);
    if (got != want && ++mismatches <= 10) {
      ADD_FAILURE() << "AppendDouble17 gave " << got << ", snprintf " << want;
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

/// Parses `token` as a whole document and, separately, as an array element;
/// both must give the oracle's verdict and a bit-identical value.
void ExpectParsesLikeOracle(const std::string& token) {
  double want = 0;
  const bool want_ok = OracleParseNumber(token, &want);
  auto doc = ParseJson(token);
  ASSERT_EQ(doc.ok(), want_ok) << "token \"" << token << "\"";
  auto array = ParseJson("[" + token + "]");
  ASSERT_EQ(array.ok(), want_ok) << "token \"" << token << "\" in an array";
  if (!want_ok) return;
  ASSERT_TRUE(doc->is_number());
  EXPECT_EQ(std::bit_cast<uint64_t>(doc->number_value),
            std::bit_cast<uint64_t>(want))
      << "token \"" << token << "\"";
  ASSERT_EQ(array->array_items.size(), 1u);
  EXPECT_EQ(std::bit_cast<uint64_t>(array->array_items[0].number_value),
            std::bit_cast<uint64_t>(want))
      << "token \"" << token << "\" in an array";
}

TEST(JsonParseNumber, TokenTableKeepsStrtodVerdictsAndValues) {
  struct Case {
    const char* token;
    bool accepted;
  };
  // The verdicts the strtod parser gave. Some are laxer than strict JSON
  // ("+5", ".5", "1.", "01"); they are kept so no document that parsed
  // before is rejected now. Tokens that overflow to infinity are the one
  // exception: JSON cannot represent inf, so they are rejected.
  const Case cases[] = {
      {"+5", true},
      {"1e999", false},  // overflows to infinity
      {"-1e999", false},
      {"-0", true},
      {".5", true},
      {"-.5", true},
      {"1.", true},
      {"01", true},
      {"1e", false},
      {"1e+", false},
      {"-", false},
      {"+", false},
      {".", false},
      {"--1", false},
      {"+-1", false},
      {"1-2", false},
      {"1e5.5", false},
      {"1e-400", true},  // underflows to zero
      {"-1e-400", true},
      {"5e-324", true},
      {"2.4703282292062328e-324", true},  // rounds up to the least subnormal
      {"2.4703282292062327e-324", true},  // rounds down to zero
      {"2.2250738585072011e-308", true},
      {"1.7976931348623157e308", true},
      {"1.7976931348623159e308", false},  // rounds to infinity
      {"1.6718226947205777", true},
      {"1.6715738234668946", true},
      {"0.30000000000000004", true},
      {"123456.78901234567", true},
      {"9007199254740993", true},
      {"1E5", true},
      {"1e+05", true},
      {"1.2e+02", true},
      {"0.100000000000000000000000000001", true},
      {"123456789012345678901234567890", true},
  };
  for (const Case& c : cases) {
    double oracle_value = 0;
    EXPECT_EQ(OracleParseNumber(c.token, &oracle_value), c.accepted)
        << "token \"" << c.token << "\"";
    ExpectParsesLikeOracle(c.token);
  }
}

TEST(JsonParseNumber, FormattedNumbersReadBackLikeStrtod) {
  std::vector<double> values = EdgeValues();
  for (const ValueClass c : kAllClasses) {
    const std::vector<double> seeded = SeededDoubles(c, kPerClass / 8);
    values.insert(values.end(), seeded.begin(), seeded.end());
  }
  std::string doc = "[";
  std::vector<std::string> tokens;
  for (const double v : values) {
    if (!std::isfinite(v)) continue;
    tokens.push_back(JsonNumber(v));
    tokens.push_back(OracleDouble17(v));
  }
  for (size_t i = 0; i < tokens.size(); ++i) {
    if (i > 0) doc += ',';
    doc += tokens[i];
  }
  doc += ']';
  auto parsed = ParseJson(doc);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  ASSERT_EQ(parsed->array_items.size(), tokens.size());
  size_t mismatches = 0;
  for (size_t i = 0; i < tokens.size(); ++i) {
    double want = 0;
    ASSERT_TRUE(OracleParseNumber(tokens[i], &want));
    if (std::bit_cast<uint64_t>(parsed->array_items[i].number_value) !=
            std::bit_cast<uint64_t>(want) &&
        ++mismatches <= 10) {
      ADD_FAILURE() << "token " << tokens[i] << " parsed differently";
    }
  }
  EXPECT_EQ(mismatches, 0u);
}

}  // namespace
}  // namespace rdmajoin
