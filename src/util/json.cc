#include "util/json.h"

#include <algorithm>
#include <bit>
#include <cassert>
#include <charconv>
#include <cmath>
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

namespace {

/// Room for the longest form either number writer produces
/// ("-1.2345678901234567e-308" is 24 characters).
constexpr size_t kMaxNumberChars = 32;

/// Writes the digits of `v` at `p` and returns the end.
template <typename T>
char* IntegerChars(char* p, T v) {
  return std::to_chars(p, p + kMaxNumberChars, v).ptr;
}

/// Writes `v` as printf("%.17g") does at `p` and returns the end.
char* Double17Chars(char* p, double v) {
  return std::to_chars(p, p + kMaxNumberChars, v, std::chars_format::general, 17)
      .ptr;
}

/// Writes JsonNumber(v) of a finite `v` at `p` and returns the end.
char* JsonNumberChars(char* p, double v) {
  char* const end = p + kMaxNumberChars;
  // An integer below 2^53 whose last digit is not 0 prints as its digits:
  // every shorter decimal is a multiple of 10 at least 1 > ulp/2 away, so all
  // d digits are significant and %.{d}g takes the fixed form.
  if (v == std::trunc(v) && std::fabs(v) < 0x1p53) {
    const int64_t n = static_cast<int64_t>(v);
    if (n % 10 != 0) return std::to_chars(p, end, n).ptr;
  }
  // The shortest round-trip form "[-]d[.ddd]e<sign><exp>" has p0 significant
  // digits, so no %.*g precision below p0 reads back as v.
  char* const sci = std::to_chars(p, end, v, std::chars_format::scientific).ptr;
  const char* const e = std::find(p, sci, 'e');
  char digits[17];
  int p0 = 0;
  for (const char* c = p; c != e; ++c) {
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
    char* const last = std::to_chars(p, end, v, std::chars_format::general, 16).ptr;
    double back = 0;
    const auto [ptr, ec] = std::from_chars(p, last, back);
    if (ec == std::errc() && ptr == last && back == v) return last;
    return Double17Chars(p, v);
  }
  int exp10 = 0;
  for (const char* c = e + 2; c != sci; ++c) exp10 = exp10 * 10 + (*c - '0');
  if (e[1] == '-') exp10 = -exp10;
  // %g's exponent form is the shortest form itself, already in place.
  if (exp10 < -4 || exp10 >= p0) return sci;
  // The fixed form, rewritten over it from the saved digits.
  if (std::signbit(v)) *p++ = '-';
  if (exp10 < 0) {
    *p++ = '0';
    *p++ = '.';
    p = std::fill_n(p, -exp10 - 1, '0');
    return std::copy(digits, digits + p0, p);
  }
  const int int_digits = exp10 + 1;
  p = std::copy(digits, digits + int_digits, p);
  if (p0 > int_digits) {
    *p++ = '.';
    p = std::copy(digits + int_digits, digits + p0, p);
  }
  return p;
}

}  // namespace

JsonWriter& JsonWriter::String(std::string_view s) {
  Separate();
  WriteQuoted(s);
  return *this;
}

template <typename T>
JsonWriter& JsonWriter::Formatted(T v, char* (*format)(char*, T)) {
  Separate();
  staged_ = static_cast<size_t>(format(Stage(kMaxNumberChars), v) - buf_);
  return *this;
}

JsonWriter& JsonWriter::Number(double v) {
  return std::isfinite(v) ? Formatted(v, JsonNumberChars) : Null();
}

JsonWriter& JsonWriter::Double17(double v) {
  return std::isfinite(v) ? Formatted(v, Double17Chars) : Null();
}

JsonWriter& JsonWriter::Uint(uint64_t v) { return Formatted(v, IntegerChars<uint64_t>); }

JsonWriter& JsonWriter::Int(int64_t v) { return Formatted(v, IntegerChars<int64_t>); }

JsonWriter& JsonWriter::Open(char bracket) {
  Separate();
  Put(bracket);
  assert(depth_ < kMaxDepth);
  ++depth_;
  has_item_ &= ~(uint64_t{1} << depth_);
  return *this;
}

JsonWriter& JsonWriter::Close(char bracket) {
  assert(depth_ > 0 && !after_key_);
  if (break_indent_ >= 0) WriteBreak();
  Put(bracket);
  if (--depth_ == 0) Flush();
  return *this;
}

void JsonWriter::Write(std::string_view text) {
  if (text.size() > kStageBytes) {
    Flush();
    out_->append(text);
    return;
  }
  std::copy(text.begin(), text.end(), Stage(text.size()));
  staged_ += text.size();
}

void JsonWriter::WriteBreak() {
  const size_t indent = static_cast<size_t>(break_indent_);
  break_indent_ = -1;
  Put('\n');
  Write(std::string(indent, ' '));
}

void JsonWriter::WriteQuoted(std::string_view s) {
  Put('"');
  size_t run = 0;  // start of the run of plain characters
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    Write(s.substr(run, i - run));
    run = i + 1;
    switch (c) {
      case '"': Write("\\\""); break;
      case '\\': Write("\\\\"); break;
      case '\b': Write("\\b"); break;
      case '\f': Write("\\f"); break;
      case '\n': Write("\\n"); break;
      case '\r': Write("\\r"); break;
      case '\t': Write("\\t"); break;
      default: {
        constexpr char kHex[] = "0123456789abcdef";
        const char u[] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
        Write(std::string_view(u, sizeof(u)));
      }
    }
  }
  Write(s.substr(run));
  Put('"');
}

std::string JsonNumber(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[kMaxNumberChars];
  return std::string(buf, JsonNumberChars(buf, v));
}

void AppendDouble17(std::string* out, double v) {
  char buf[kMaxNumberChars];
  out->append(buf, static_cast<size_t>(Double17Chars(buf, v) - buf));
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

Status WriteStringToFile(const std::string& path, std::string_view text) {
  std::ofstream out(path, std::ios::binary);
  if (!out) return Status::Internal("cannot open " + path + " for writing");
  out.write(text.data(), static_cast<std::streamsize>(text.size()));
  if (!out) return Status::Internal("short write to " + path);
  out.close();
  if (!out) return Status::Internal("cannot close " + path);
  return Status::OK();
}

}  // namespace rdmajoin
