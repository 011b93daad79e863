#ifndef RDMAJOIN_UTIL_JSON_H_
#define RDMAJOIN_UTIL_JSON_H_

#include <cstdint>
#include <cstring>
#include <limits>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "util/statusor.h"

namespace rdmajoin {

/// Formats a double as a JSON number: the `%.*g` form with the smallest
/// precision P (1..16) that reads back as exactly `v`, else `%.17g`; the
/// non-finite values (which JSON cannot represent) as null. Every span,
/// bench and report JSON pins these bytes, so the format never changes.
std::string JsonNumber(double v);

/// The one integer rule of every JSON reader: a number converts to integer
/// type T (truncating toward zero, like the cast) only when T can hold it.
/// Casting any other double -- `-1` to an unsigned type, `1e30` to any -- is
/// undefined behaviour, so it is an InvalidArgument naming `field`.
template <typename T>
Status JsonToInteger(double v, std::string_view field, T* out) {
  static_assert(std::is_integral_v<T>);
  constexpr double kLow =
      std::is_signed_v<T> ? static_cast<double>(std::numeric_limits<T>::min())
                          : 0.0;
  constexpr double kPastHigh =
      static_cast<double>(std::numeric_limits<T>::max()) + 1.0;
  if (!(v >= kLow && v < kPastHigh)) {
    return Status::InvalidArgument(std::string(field) + " out of range: " + JsonNumber(v));
  }
  *out = static_cast<T>(v);
  return Status::OK();
}

/// A pull reader over one JSON document: the repo's only JSON lexer. Bulk
/// formats (execution traces, span datasets) stream through it straight into
/// their structs; ParseJson builds a JsonValue tree with it for the small
/// documents. Every read skips leading whitespace; errors are InvalidArgument
/// with the byte offset. Number tokens keep strtod's verdicts (`+5`, `.5`,
/// `1e-400` are accepted) except that a token overflowing to infinity is
/// rejected. Containers nest at most 64 deep.
class JsonReader {
 public:
  explicit JsonReader(std::string_view text) : text_(text) {}

  /// The next non-whitespace character, or '\0' at the end of the input.
  char Peek();
  /// Consumes `c` if it is the next non-whitespace character.
  bool Consume(char c);
  /// Consumes `c` or fails.
  Status Expect(char c);

  /// Reads a string value, decoding the full escape set (\uXXXX as UTF-8).
  Status ReadString(std::string* out);
  /// Reads a number value.
  Status ReadNumber(double* out);
  /// Reads a number into integer field `field`, under JsonToInteger's rule.
  template <typename T>
  Status ReadInteger(std::string_view field, T* out) {
    double v = 0;
    RDMAJOIN_RETURN_IF_ERROR(ReadNumber(&v));
    return JsonToInteger(v, field, out);
  }
  Status ReadBool(bool* out);
  Status ReadNull();
  /// Reads and discards one value of any kind.
  Status SkipValue();
  /// Fails unless only whitespace remains.
  Status ExpectEnd();

  /// Reads an object, calling `on_member(std::string_view key)` -> Status
  /// with the reader positioned at each member's value, which the callback
  /// must consume. The key view is valid until the next key is read.
  template <typename F>
  Status ForEachMember(F&& on_member) {
    bool empty = false;
    RDMAJOIN_RETURN_IF_ERROR(Open('{', '}', &empty));
    if (empty) return Status::OK();
    do {
      std::string_view key;
      RDMAJOIN_RETURN_IF_ERROR(ReadKey(&key));
      RDMAJOIN_RETURN_IF_ERROR(on_member(key));
    } while (Consume(','));
    return Close('}');
  }

  /// Reads an array, calling `on_item()` -> Status with the reader
  /// positioned at each item, which the callback must consume.
  template <typename F>
  Status ForEachItem(F&& on_item) {
    bool empty = false;
    RDMAJOIN_RETURN_IF_ERROR(Open('[', ']', &empty));
    if (empty) return Status::OK();
    do {
      RDMAJOIN_RETURN_IF_ERROR(on_item());
    } while (Consume(','));
    return Close(']');
  }

  /// Reads an array into `*out`, replacing its contents: one
  /// `read(JsonReader*, T*)` per item, on a new element.
  template <typename T, typename F>
  Status ReadArray(std::vector<T>* out, F read) {
    out->clear();
    return ForEachItem([&] { return read(this, &out->emplace_back()); });
  }

  /// InvalidArgument("JSON: <message> at offset <pos>").
  Status Error(std::string_view message) const;

 private:
  static constexpr int kMaxDepth = 64;

  void SkipSpace();
  /// Consumes `open`, and `close` too when the container is empty
  /// (`*empty`); the items of a non-empty one must fit the depth limit.
  Status Open(char open, char close, bool* empty);
  /// Consumes the `close` that ends a non-empty container.
  Status Close(char close);
  Status ReadKey(std::string_view* key);
  bool ConsumeLiteral(std::string_view literal);

  std::string_view text_;
  size_t pos_ = 0;
  /// Open non-empty containers.
  int depth_ = 0;
  /// Decoded key, for keys that contain escapes.
  std::string key_;
};

/// A parsed JSON document node. Minimal by design: the small machine
/// interchange formats (bench JSON, schedules, fault schedules, metrics
/// snapshots) only need object/array/number/string/bool/null, and
/// keeping the representation a plain struct keeps consumers
/// (tools/rdmajoin_analyze, tests) simple. Object member order is preserved.
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
  /// NumberOr for integer fields: `fallback` when absent or not a number,
  /// InvalidArgument when T cannot hold the number (JsonToInteger).
  template <typename T>
  StatusOr<T> IntegerOr(std::string_view key, T fallback) const {
    const JsonValue* v = Find(key);
    if (v == nullptr || !v->is_number()) return fallback;
    T out = fallback;
    RDMAJOIN_RETURN_IF_ERROR(JsonToInteger(v->number_value, key, &out));
    return out;
  }
};

/// Parses a complete JSON document into a tree (trailing whitespace allowed,
/// trailing garbage rejected), reading it with JsonReader.
StatusOr<JsonValue> ParseJson(std::string_view text);

/// The repo's only JSON emitter: every on-disk format writes through it, so
/// commas, colons, quoting and escaping are decided here and nowhere else.
/// It appends to a caller-owned string (callers may reserve() it), placing
/// separators from a nesting stack (at most 63 containers deep). Each value
/// keeps the number form its format pins: Number (JsonNumber's shortest
/// round-trip form), Double17 (printf's %.17g), Uint/Int (exact digits).
/// Non-finite doubles are written as null in both forms, so every document
/// it writes parses.
///
/// Bytes are staged in a small buffer and appended to the string when the
/// buffer fills, when the outermost container closes and on destruction; the
/// string holds a document once it is complete.
///
///   std::string out;
///   JsonWriter w(&out);
///   w.BeginObject().Key("id").Uint(7).Key("t").Number(0.5).EndObject();
///   // out == {"id":7,"t":0.5}
class JsonWriter {
 public:
  /// Whitespace between tokens. Compact: none. Spaced: one space after each
  /// ':' and each ',' (a ',' that ends a line gets none).
  enum class Layout : uint8_t { kCompact, kSpaced };

  explicit JsonWriter(std::string* out, Layout layout = Layout::kCompact)
      : out_(out), spaced_(layout == Layout::kSpaced) {}
  ~JsonWriter() { Flush(); }
  JsonWriter(const JsonWriter&) = delete;
  JsonWriter& operator=(const JsonWriter&) = delete;

  JsonWriter& BeginObject() { return Open('{'); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open('['); }
  JsonWriter& EndArray() { return Close(']'); }

  /// An object member's key (escaped); the next call writes its value.
  JsonWriter& Key(std::string_view key) {
    Separate();
    after_key_ = true;
    if (key.size() > kStageBytes - 4 || HasEscape(key)) {
      WriteQuoted(key);
      Write(spaced_ ? ": " : ":");
      return *this;
    }
    // The hot path of every writer, staged in one step.
    char* p = Stage(key.size() + 4);
    *p++ = '"';
    std::memcpy(p, key.data(), key.size());
    p += key.size();
    *p++ = '"';
    *p++ = ':';
    if (spaced_) *p++ = ' ';
    staged_ = static_cast<size_t>(p - buf_);
    return *this;
  }
  /// A string value, escaped.
  JsonWriter& String(std::string_view s);
  /// JsonNumber's form: `100000` is `1e+05`.
  JsonWriter& Number(double v);
  /// printf's "%.17g" form: the trace, metrics and Chrome trace exports.
  JsonWriter& Double17(double v);
  JsonWriter& Uint(uint64_t v);
  JsonWriter& Int(int64_t v);
  JsonWriter& Bool(bool v) { return Raw(v ? "true" : "false"); }
  JsonWriter& Null() { return Raw("null"); }
  /// A token the caller holds as text and has checked to be one JSON value
  /// (bench config values that are numeric strings, bench rows written by
  /// an earlier JsonWriter), written verbatim.
  JsonWriter& Raw(std::string_view token) {
    Separate();
    Write(token);
    return *this;
  }

  /// Starts the next token -- key, value or closing bracket -- on a new line
  /// indented by `indent` spaces; a separating comma stays on this line.
  JsonWriter& LineBreak(int indent = 0) {
    break_indent_ = indent;
    return *this;
  }

 private:
  static constexpr int kMaxDepth = 63;
  static constexpr size_t kStageBytes = 4096;

  /// Whether `s` holds a character a JSON string must escape (< 0x20, '"' or
  /// '\\'), tested eight bytes at a time: (b - k) & ~b has its top bit set
  /// for a byte b < k, and b ^ c is zero for b == c. Written so that the test
  /// of a literal key folds away.
  static bool HasEscape(std::string_view s) {
    constexpr uint64_t kOnes = 0x0101010101010101;
    uint64_t flags = 0;
    for (size_t i = 0; i < s.size(); i += 8) {
      uint64_t x = kOnes * ' ';  // a short last word is padded with spaces
      if (i + 8 <= s.size()) {
        std::memcpy(&x, s.data() + i, 8);
      } else {
        for (size_t k = 0; i + k < s.size(); ++k) {
          x ^= (uint64_t{static_cast<unsigned char>(s[i + k])} ^ ' ') << (8 * k);
        }
      }
      const uint64_t quote = x ^ (kOnes * '"');
      const uint64_t slash = x ^ (kOnes * '\\');
      flags |= ((x - kOnes * 0x20) & ~x) | ((quote - kOnes) & ~quote) |
               ((slash - kOnes) & ~slash);
    }
    return (flags & (kOnes * 0x80)) != 0;
  }
  /// Appends the staged bytes to the string.
  void Flush() {
    out_->append(buf_, staged_);
    staged_ = 0;
  }
  /// Room for `n` (<= kStageBytes) more bytes at the end of the stage.
  char* Stage(size_t n) {
    if (kStageBytes - staged_ < n) Flush();
    return buf_ + staged_;
  }
  void Put(char c) {
    *Stage(1) = c;
    ++staged_;
  }
  void Write(std::string_view text);

  /// Writes what precedes a key or value: nothing after a key, else a comma
  /// unless it is the container's first item, then any pending line break.
  void Separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    const uint64_t bit = uint64_t{1} << depth_;
    if ((has_item_ & bit) != 0) {
      Put(',');
      if (spaced_ && break_indent_ < 0) Put(' ');
    }
    has_item_ |= bit;
    if (break_indent_ >= 0) WriteBreak();
  }
  JsonWriter& Open(char bracket);
  JsonWriter& Close(char bracket);
  /// Separate(), then the value that `format(p, v)` writes at p.
  template <typename T>
  JsonWriter& Formatted(T v, char* (*format)(char*, T));
  void WriteBreak();
  void WriteQuoted(std::string_view s);

  std::string* out_;
  bool spaced_;
  /// A key was written and its value is next.
  bool after_key_ = false;
  /// Open containers; 0 is the document level.
  int depth_ = 0;
  /// Bit d: the container at depth d already holds an item.
  uint64_t has_item_ = 0;
  /// Indent of the pending line break, or -1 for none.
  int break_indent_ = -1;
  size_t staged_ = 0;
  char buf_[kStageBytes];
};

/// Appends `v` exactly as printf("%.17g") formats it (non-finite values as
/// inf/nan): the fixed full-precision form of the trace, metrics and Chrome
/// trace exports.
void AppendDouble17(std::string* out, double v);

/// Reads the whole file at `path` into `*out`; false when it cannot be read.
bool ReadFileToString(const std::string& path, std::string* out);

/// Writes `text` to the file at `path`, replacing it: Internal when the file
/// cannot be opened, written or closed.
Status WriteStringToFile(const std::string& path, std::string_view text);

}  // namespace rdmajoin

#endif  // RDMAJOIN_UTIL_JSON_H_
