#include "util/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <system_error>

namespace rdmajoin {

namespace {

// The C-locale isspace() set, without the locale lookup.
bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsNumberChar(char c) {
  return (c >= '0' && c <= '9') || c == '.' || c == 'e' || c == 'E' ||
         c == '+' || c == '-';
}

class Parser {
 public:
  explicit Parser(const std::string& text) : text_(text) {}

  StatusOr<JsonValue> ParseDocument() {
    JsonValue value;
    RDMAJOIN_RETURN_IF_ERROR(ParseValue(&value, /*depth=*/0));
    SkipSpace();
    if (pos_ < text_.size()) {
      return Error("trailing characters after JSON document");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  Status Error(const std::string& message) const {
    return Status::InvalidArgument("JSON: " + message + " at offset " +
                                   std::to_string(pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
  }

  bool ConsumeLiteral(const char* literal) {
    const size_t len = std::strlen(literal);
    if (text_.compare(pos_, len, literal) == 0) {
      pos_ += len;
      return true;
    }
    return false;
  }

  Status ParseValue(JsonValue* out, int depth) {
    if (depth > kMaxDepth) return Error("nesting too deep");
    SkipSpace();
    if (pos_ >= text_.size()) return Error("unexpected end of input");
    const char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out, depth);
      case '[':
        return ParseArray(out, depth);
      case '"':
        out->kind = JsonValue::Kind::kString;
        return ParseString(&out->string_value);
      case 't':
        if (ConsumeLiteral("true")) {
          out->kind = JsonValue::Kind::kBool;
          out->bool_value = true;
          return Status::OK();
        }
        return Error("invalid literal");
      case 'f':
        if (ConsumeLiteral("false")) {
          out->kind = JsonValue::Kind::kBool;
          out->bool_value = false;
          return Status::OK();
        }
        return Error("invalid literal");
      case 'n':
        if (ConsumeLiteral("null")) {
          out->kind = JsonValue::Kind::kNull;
          return Status::OK();
        }
        return Error("invalid literal");
      default:
        return ParseNumber(out);
    }
  }

  Status ParseObject(JsonValue* out, int depth) {
    ++pos_;  // '{'
    out->kind = JsonValue::Kind::kObject;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected object key");
      }
      // Parse straight into the member slot: no temporary key or value.
      auto& member = out->object_members.emplace_back();
      RDMAJOIN_RETURN_IF_ERROR(ParseString(&member.first));
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Error("expected ':'");
      ++pos_;
      RDMAJOIN_RETURN_IF_ERROR(ParseValue(&member.second, depth + 1));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or '}'");
    }
  }

  Status ParseArray(JsonValue* out, int depth) {
    ++pos_;  // '['
    out->kind = JsonValue::Kind::kArray;
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return Status::OK();
    }
    while (true) {
      RDMAJOIN_RETURN_IF_ERROR(
          ParseValue(&out->array_items.emplace_back(), depth + 1));
      SkipSpace();
      if (pos_ >= text_.size()) return Error("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        return Status::OK();
      }
      return Error("expected ',' or ']'");
    }
  }

  Status ParseString(std::string* out) {
    ++pos_;  // '"'
    while (pos_ < text_.size()) {
      // Copy the run of plain characters up to the next quote or escape.
      size_t run_end = pos_;
      while (run_end < text_.size() && text_[run_end] != '"' &&
             text_[run_end] != '\\') {
        ++run_end;
      }
      out->append(text_, pos_, run_end - pos_);
      pos_ = run_end;
      if (pos_ >= text_.size()) break;
      if (text_[pos_] == '"') {
        ++pos_;
        return Status::OK();
      }
      ++pos_;  // '\\'
      if (pos_ >= text_.size()) break;
      const char esc = text_[pos_++];
      switch (esc) {
        case '"': out->push_back('"'); break;
        case '\\': out->push_back('\\'); break;
        case '/': out->push_back('/'); break;
        case 'b': out->push_back('\b'); break;
        case 'f': out->push_back('\f'); break;
        case 'n': out->push_back('\n'); break;
        case 'r': out->push_back('\r'); break;
        case 't': out->push_back('\t'); break;
        case 'u': {
          RDMAJOIN_ASSIGN_OR_RETURN(uint32_t cp, ParseHex4());
          AppendUtf8(out, cp);
          break;
        }
        default:
          return Error("invalid escape");
      }
    }
    return Error("unterminated string");
  }

  StatusOr<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) return Error("truncated \\u escape");
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i) {
      const char c = text_[pos_ + i];
      value <<= 4;
      if (c >= '0' && c <= '9') {
        value |= static_cast<uint32_t>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        value |= static_cast<uint32_t>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        value |= static_cast<uint32_t>(c - 'A' + 10);
      } else {
        return Error("invalid \\u escape");
      }
    }
    pos_ += 4;
    return value;
  }

  static void AppendUtf8(std::string* out, uint32_t cp) {
    if (cp < 0x80) {
      out->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      out->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      out->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      out->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      out->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseNumber(JsonValue* out) {
    const size_t start = pos_;
    while (pos_ < text_.size() && IsNumberChar(text_[pos_])) ++pos_;
    if (pos_ == start) return Error("expected a value");
    // from_chars and strtod both round correctly, so wherever from_chars
    // reads the whole token they agree. Tokens it stops short on or reports
    // out of range ("+5", "1e999", "1e-400", "1e", ...) keep strtod's verdict.
    const char* first = text_.data() + start;
    const char* last = text_.data() + pos_;
    double value = 0;
    const auto [ptr, ec] = std::from_chars(first, last, value);
    if (ec != std::errc() || ptr != last) {
      char* end = nullptr;
      const std::string token(first, last);
      value = std::strtod(token.c_str(), &end);
      if (end == nullptr || *end != '\0') {
        pos_ = start;
        return Error("malformed number");
      }
    }
    // JSON cannot represent inf: an overflowing token ("1e999") is an error,
    // not a silently infinite value.
    if (!std::isfinite(value)) {
      pos_ = start;
      return Error("number out of range");
    }
    out->kind = JsonValue::Kind::kNumber;
    out->number_value = value;
    return Status::OK();
  }

  const std::string& text_;
  size_t pos_ = 0;
};

}  // namespace

const JsonValue* JsonValue::Find(std::string_view key) const {
  if (kind != Kind::kObject) return nullptr;
  for (const auto& [name, value] : object_members) {
    if (name == key) return &value;
  }
  return nullptr;
}

double JsonValue::NumberOr(std::string_view key, double fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_number()) ? v->number_value : fallback;
}

std::string JsonValue::StringOr(std::string_view key,
                                const std::string& fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->is_string()) ? v->string_value : fallback;
}

bool JsonValue::BoolOr(std::string_view key, bool fallback) const {
  const JsonValue* v = Find(key);
  return (v != nullptr && v->kind == Kind::kBool) ? v->bool_value : fallback;
}

StatusOr<JsonValue> ParseJson(const std::string& text) {
  return Parser(text).ParseDocument();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    switch (c) {
      case '"': out.append("\\\""); break;
      case '\\': out.append("\\\\"); break;
      case '\b': out.append("\\b"); break;
      case '\f': out.append("\\f"); break;
      case '\n': out.append("\\n"); break;
      case '\r': out.append("\\r"); break;
      case '\t': out.append("\\t"); break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out.append(buf);
        } else {
          out.push_back(c);
        }
    }
  }
  return out;
}

void AppendJsonNumber(std::string* out, double v) {
  if (!std::isfinite(v)) {
    out->append("null");
    return;
  }
  // Longest %.17g form ("-1.2345678901234567e-308") is 24 characters.
  char buf[32];
  char* const end = buf + sizeof(buf);
  // The shortest round-trip form "[-]d[.ddd]e<sign><exp>" has p0 significant
  // digits, so no %.*g precision below p0 reads back as v.
  const char* const sci =
      std::to_chars(buf, end, v, std::chars_format::scientific).ptr;
  const char* const e = std::find(static_cast<const char*>(buf), sci, 'e');
  char digits[17];
  int p0 = 0;
  for (const char* c = buf; c != e; ++c) {
    if (*c >= '0' && *c <= '9') digits[p0++] = *c;
  }
  // %.{p0}g prints N, the p0-digit decimal nearest to v, and is the answer
  // whenever N reads back as v. N's digits are then the shortest form's,
  // which picks the candidate nearest to v (exact ties to even, like printf).
  // With 10^k the spacing of p0-digit decimals near v, N reads back in every
  // case but one:
  //  - ulp(v) < 10^k (so for every normal v with p0 <= 15, as 2^-52 < 10^-15):
  //    the shortest digits lie within ulp/2 < 10^k/2 of v, so they are N.
  //  - ulp(v) > 10^k: N lies within 10^k/2 < ulp/2 of v, inside the rounding
  //    interval -- but below a power of two that interval is only ulp/4 deep.
  //    At p0 == 17 that still suffices (2^-54 v > 10^-16 v / 2); at p0 == 16
  //    it may not, so there %.16g must be checked.
  const bool power_of_two =
      (std::bit_cast<uint64_t>(v) & ((uint64_t{1} << 52) - 1)) == 0;
  if (p0 == 16 && power_of_two) {
    const char* last =
        std::to_chars(buf, end, v, std::chars_format::general, 16).ptr;
    double back = 0;
    const auto [ptr, ec] = std::from_chars(buf, last, back);
    if (ec == std::errc() && ptr == last && back == v) {
      out->append(buf, static_cast<size_t>(last - buf));
    } else {
      AppendDouble17(out, v);
    }
    return;
  }
  int exp10 = 0;
  for (const char* c = e + 2; c != sci; ++c) exp10 = exp10 * 10 + (*c - '0');
  if (e[1] == '-') exp10 = -exp10;
  if (exp10 < -4 || exp10 >= p0) {
    // %g's exponent form, which is the shortest form itself.
    out->append(buf, static_cast<size_t>(sci - buf));
    return;
  }
  if (std::signbit(v)) out->push_back('-');
  if (exp10 < 0) {
    out->append("0.");
    out->append(static_cast<size_t>(-exp10 - 1), '0');
    out->append(digits, static_cast<size_t>(p0));
    return;
  }
  const int int_digits = exp10 + 1;
  out->append(digits, static_cast<size_t>(int_digits));
  if (p0 > int_digits) {
    out->push_back('.');
    out->append(digits + int_digits, static_cast<size_t>(p0 - int_digits));
  }
}

std::string JsonNumber(double v) {
  std::string out;
  AppendJsonNumber(&out, v);
  return out;
}

void AppendDouble17(std::string* out, double v) {
  char buf[32];
  const char* last =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17)
          .ptr;
  out->append(buf, static_cast<size_t>(last - buf));
}

bool ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->clear();
  char chunk[1 << 16];
  while (in.read(chunk, sizeof(chunk)) || in.gcount() > 0) {
    out->append(chunk, static_cast<size_t>(in.gcount()));
  }
  return !in.bad();
}

}  // namespace rdmajoin
