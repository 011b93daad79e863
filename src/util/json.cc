#include "util/json.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
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

void AppendUtf8(std::string* out, uint32_t cp) {
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

/// Reads one value of any kind into `out`: the tree builder behind ParseJson.
Status ReadTree(JsonReader* r, JsonValue* out) {
  switch (r->Peek()) {
    case '{':
      out->kind = JsonValue::Kind::kObject;
      return r->ForEachMember([r, out](std::string_view key) {
        auto& member = out->object_members.emplace_back();
        member.first = key;
        return ReadTree(r, &member.second);
      });
    case '[':
      out->kind = JsonValue::Kind::kArray;
      return r->ReadArray(&out->array_items, ReadTree);
    case '"':
      out->kind = JsonValue::Kind::kString;
      return r->ReadString(&out->string_value);
    case 't':
    case 'f':
      out->kind = JsonValue::Kind::kBool;
      return r->ReadBool(&out->bool_value);
    case 'n':
      return r->ReadNull();
    default:
      out->kind = JsonValue::Kind::kNumber;
      return r->ReadNumber(&out->number_value);
  }
}

}  // namespace

Status JsonReader::Error(std::string_view message) const {
  return Status::InvalidArgument("JSON: " + std::string(message) + " at offset " +
                                 std::to_string(pos_));
}

void JsonReader::SkipSpace() {
  while (pos_ < text_.size() && IsSpace(text_[pos_])) ++pos_;
}

char JsonReader::Peek() {
  SkipSpace();
  return pos_ < text_.size() ? text_[pos_] : '\0';
}

bool JsonReader::Consume(char c) {
  if (Peek() != c || pos_ >= text_.size()) return false;
  ++pos_;
  return true;
}

Status JsonReader::Expect(char c) {
  if (Consume(c)) return Status::OK();
  if (pos_ >= text_.size()) return Error("unexpected end of input");
  return Error(std::string("expected '") + c + "'");
}

Status JsonReader::ExpectEnd() {
  SkipSpace();
  if (pos_ < text_.size()) return Error("trailing characters after JSON document");
  return Status::OK();
}

Status JsonReader::Open(char open, char close, bool* empty) {
  RDMAJOIN_RETURN_IF_ERROR(Expect(open));
  *empty = Consume(close);
  if (!*empty && ++depth_ > kMaxDepth) return Error("nesting too deep");
  return Status::OK();
}

Status JsonReader::Close(char close) {
  if (!Consume(close)) return Error(std::string("expected ',' or '") + close + "'");
  --depth_;
  return Status::OK();
}

Status JsonReader::ReadKey(std::string_view* key) {
  if (Peek() != '"') return Error("expected object key");
  // Fast path: a key without escapes is viewed in place.
  const size_t quote = text_.find_first_of("\"\\", pos_ + 1);
  if (quote != std::string_view::npos && text_[quote] == '"') {
    *key = text_.substr(pos_ + 1, quote - pos_ - 1);
    pos_ = quote + 1;
  } else {
    key_.clear();
    RDMAJOIN_RETURN_IF_ERROR(ReadString(&key_));
    *key = key_;
  }
  return Expect(':');
}

Status JsonReader::ReadString(std::string* out) {
  RDMAJOIN_RETURN_IF_ERROR(Expect('"'));
  while (pos_ < text_.size()) {
    // Copy the run of plain characters up to the next quote or escape.
    size_t run_end = text_.find_first_of("\"\\", pos_);
    if (run_end == std::string_view::npos) run_end = text_.size();
    out->append(text_.substr(pos_, run_end - pos_));
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
        uint32_t cp = 0;
        const char* hex = text_.data() + pos_;
        if (pos_ + 4 > text_.size() || std::from_chars(hex, hex + 4, cp, 16).ptr != hex + 4) {
          return Error("invalid \\u escape");
        }
        pos_ += 4;
        AppendUtf8(out, cp);
        break;
      }
      default:
        return Error("invalid escape");
    }
  }
  return Error("unterminated string");
}

Status JsonReader::ReadNumber(double* out) {
  SkipSpace();
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
  *out = value;
  return Status::OK();
}

bool JsonReader::ConsumeLiteral(std::string_view literal) {
  SkipSpace();
  if (text_.substr(pos_, literal.size()) != literal) return false;
  pos_ += literal.size();
  return true;
}

Status JsonReader::ReadBool(bool* out) {
  *out = ConsumeLiteral("true");
  return *out || ConsumeLiteral("false") ? Status::OK() : Error("expected true or false");
}

Status JsonReader::ReadNull() {
  return ConsumeLiteral("null") ? Status::OK() : Error("expected null");
}

Status JsonReader::SkipValue() {
  std::string text;
  bool flag = false;
  double number = 0;
  switch (Peek()) {
    case '{': return ForEachMember([this](std::string_view) { return SkipValue(); });
    case '[': return ForEachItem([this] { return SkipValue(); });
    case '"': return ReadString(&text);
    case 't': case 'f': return ReadBool(&flag);
    case 'n': return ReadNull();
    default: return ReadNumber(&number);
  }
}

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

StatusOr<JsonValue> ParseJson(std::string_view text) {
  JsonReader reader(text);
  JsonValue value;
  RDMAJOIN_RETURN_IF_ERROR(ReadTree(&reader, &value));
  RDMAJOIN_RETURN_IF_ERROR(reader.ExpectEnd());
  return value;
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
