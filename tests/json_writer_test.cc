// Unit tests of JsonWriter, the one JSON emitter: separators at every depth,
// escaping, the number forms, non-finite values and both layouts. Every
// document written here must also read back through ParseJson to the values
// that were written.

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "util/json.h"

namespace rdmajoin {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

JsonValue Parse(const std::string& text) {
  StatusOr<JsonValue> doc = ParseJson(text);
  EXPECT_TRUE(doc.ok()) << doc.status().ToString() << "\n" << text;
  return doc.ok() ? *doc : JsonValue();
}

TEST(JsonWriter, PlacesCommasAtEveryDepth) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject()
      .Key("a").BeginArray()
      .Uint(1)
      .BeginArray().Uint(2).Uint(3).EndArray()
      .BeginObject().Key("b").BeginObject().EndObject().Key("c").Uint(4).EndObject()
      .EndArray()
      .Key("d").BeginArray().EndArray()
      .Key("e").Bool(false)
      .EndObject();
  EXPECT_EQ(out, R"({"a":[1,[2,3],{"b":{},"c":4}],"d":[],"e":false})");
  const JsonValue doc = Parse(out);
  const JsonValue* a = doc.Find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->array_items.size(), 3u);
  EXPECT_EQ(a->array_items[1].array_items[1].number_value, 3);
  EXPECT_EQ(a->array_items[2].NumberOr("c", 0), 4);
  EXPECT_TRUE(a->array_items[2].Find("b")->is_object());
  EXPECT_TRUE(doc.Find("d")->array_items.empty());
  EXPECT_FALSE(doc.BoolOr("e", true));
}

TEST(JsonWriter, WritesEmptyContainers) {
  for (const bool object : {true, false}) {
    std::string out;
    JsonWriter w(&out);
    if (object) {
      w.BeginObject().EndObject();
    } else {
      w.BeginArray().EndArray();
    }
    EXPECT_EQ(out, object ? "{}" : "[]");
    EXPECT_EQ(Parse(out).is_object(), object);
  }
}

TEST(JsonWriter, EscapesKeysAndStrings) {
  const std::string nasty = std::string("q\"b\\s/\b\f\n\r\t") + '\x01' + '\x1f' +
                            "\xc3\xa9\xe2\x82\xac" + '\x7f';
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key(nasty).String(nasty).EndObject();
  EXPECT_EQ(out,
            "{\"q\\\"b\\\\s/\\b\\f\\n\\r\\t\\u0001\\u001f\xc3\xa9\xe2\x82\xac\x7f\":"
            "\"q\\\"b\\\\s/\\b\\f\\n\\r\\t\\u0001\\u001f\xc3\xa9\xe2\x82\xac\x7f\"}");
  const JsonValue doc = Parse(out);
  ASSERT_EQ(doc.object_members.size(), 1u);
  EXPECT_EQ(doc.object_members[0].first, nasty);
  EXPECT_EQ(doc.object_members[0].second.string_value, nasty);
}

TEST(JsonWriter, EscapesAKeyCharacterAtEveryPosition) {
  // Keys take a word-at-a-time escape test: every position of keys spanning
  // one to three words, and every byte that needs no escape, including the
  // ones right above 0x20, '"' and '\\' and the UTF-8 range.
  std::string plain;
  for (int c = 0x20; c < 0x100; ++c) {
    if (c != '"' && c != '\\') plain.push_back(static_cast<char>(c));
  }
  for (const char bad : {'"', '\\', '\x00', '\x1f', '\n'}) {
    for (size_t len = 1; len <= 20; ++len) {
      for (size_t at = 0; at < len; ++at) {
        std::string key = plain.substr(len, len);
        key[at] = bad;
        std::string out;
        std::string quoted;
        JsonWriter(&quoted).String(key);
        JsonWriter w(&out);
        w.BeginObject().Key(key).Uint(1).EndObject();
        EXPECT_EQ(out, "{" + quoted + ":1}") << len << " " << at;
        const JsonValue doc = Parse(out);
        ASSERT_EQ(doc.object_members.size(), 1u);
        EXPECT_EQ(doc.object_members[0].first, key);
      }
    }
  }
  std::string out;
  JsonWriter w(&out);
  w.BeginObject().Key(plain).Uint(1).Key(plain.substr(0, 40)).Uint(2).EndObject();
  EXPECT_EQ(out, "{\"" + plain + "\":1,\"" + plain.substr(0, 40) + "\":2}");
  EXPECT_EQ(Parse(out).object_members[0].first, plain);
}

TEST(JsonWriter, WritesEachNumberForm) {
  std::string out;
  JsonWriter w(&out);
  w.BeginArray()
      .Number(100000)
      .Number(0.1)
      .Double17(0.1)
      .Double17(100000)
      .Uint(std::numeric_limits<uint64_t>::max())
      .Int(std::numeric_limits<int64_t>::min())
      .Int(-1)
      .Raw("2.50")
      .Null()
      .EndArray();
  EXPECT_EQ(out,
            "[1e+05,0.1,0.10000000000000001,100000,18446744073709551615,"
            "-9223372036854775808,-1,2.50,null]");
  const JsonValue doc = Parse(out);
  ASSERT_EQ(doc.array_items.size(), 9u);
  EXPECT_EQ(doc.array_items[0].number_value, 100000);
  EXPECT_EQ(doc.array_items[2].number_value, 0.1);
  EXPECT_EQ(doc.array_items[4].number_value, 18446744073709551615.0);
  EXPECT_EQ(doc.array_items[6].number_value, -1);
  EXPECT_EQ(doc.array_items[7].number_value, 2.5);
  EXPECT_TRUE(doc.array_items[8].is_null());
}

TEST(JsonWriter, WritesNonFiniteValuesAsNullInBothForms) {
  std::string out;
  JsonWriter w(&out);
  w.BeginObject();
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (const double v : {kInf, -kInf, nan}) w.Key("n").Number(v).Key("d").Double17(v);
  w.EndObject();
  EXPECT_EQ(out, R"({"n":null,"d":null,"n":null,"d":null,"n":null,"d":null})");
  const JsonValue doc = Parse(out);
  ASSERT_EQ(doc.object_members.size(), 6u);
  for (const auto& [key, value] : doc.object_members) EXPECT_TRUE(value.is_null()) << key;
}

TEST(JsonWriter, SpacedLayoutAndLineBreaks) {
  std::string spaced;
  JsonWriter s(&spaced, JsonWriter::Layout::kSpaced);
  s.BeginObject().Key("a").Uint(1);
  s.Key("b").BeginArray().Uint(1).Uint(2).EndArray().EndObject();
  EXPECT_EQ(spaced, R"({"a": 1, "b": [1, 2]})");

  // A line break keeps the separating comma on its line, adds no space after
  // it, and may precede a key, a value or a closing bracket.
  std::string broken;
  JsonWriter b(&broken, JsonWriter::Layout::kSpaced);
  b.BeginObject()
      .LineBreak(2).Key("a").Uint(1)
      .LineBreak(2).Key("b").BeginArray()
      .LineBreak(4).Uint(1)
      .LineBreak(4).BeginObject().Key("c").String("x").Key("d").Uint(2).EndObject()
      .LineBreak(2).EndArray()
      .LineBreak().EndObject();
  EXPECT_EQ(broken,
            "{\n  \"a\": 1,\n  \"b\": [\n    1,\n    {\"c\": \"x\", \"d\": 2}\n  ]\n}");

  std::string compact;
  JsonWriter c(&compact);
  c.BeginArray().LineBreak().Uint(1).LineBreak().Uint(2).EndArray();
  EXPECT_EQ(compact, "[\n1,\n2]");

  for (const std::string& text : {spaced, broken}) {
    const JsonValue doc = Parse(text);
    EXPECT_EQ(doc.NumberOr("a", 0), 1);
    ASSERT_NE(doc.Find("b"), nullptr);
    EXPECT_EQ(doc.Find("b")->array_items.size(), 2u);
  }
  EXPECT_EQ(Parse(compact).array_items.size(), 2u);
}

TEST(JsonWriter, AppendsToWhatTheCallerHolds) {
  std::string out = "prefix:";
  JsonWriter w(&out);
  w.BeginArray().String("x").EndArray();
  EXPECT_EQ(out, "prefix:[\"x\"]");
}

}  // namespace
}  // namespace rdmajoin
