// The canonical JSON layer's exact bytes and messages (src/util/json.h).
//
// Canonical bytes are identity: CanonicalHash, sweep ids, cache keys and the
// envelope checksums all hash what these emitters write, so every byte they
// produce is pinned here, together with each parser and ObjectReader error
// message that callers and other suites match on. The last cases bound the
// cost of an object with very many keys, which a request may carry from an
// untrusted client.

#include <chrono>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <string_view>

#include <gtest/gtest.h>

#include "src/util/json.h"

namespace longstore {
namespace {

std::string Int64(int64_t v) {
  std::string out = "prefix:";
  json::AppendInt64(out, v);
  return out;
}

std::string Hex(uint64_t v) {
  std::string out = "prefix:";
  json::AppendUint64Hex(out, v);
  return out;
}

std::string Escaped(std::string_view s) {
  std::string out = "prefix:";
  json::AppendEscaped(out, std::string(s));
  return out;
}

// The message Parse throws for `text`, or "" when it parses.
std::string ParseError(std::string_view text) {
  try {
    json::Parse(text, "ctx");
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

// The escape the canonical form uses for one byte: the five short escapes,
// \u00xx (lowercase) for every other control character, the byte itself
// otherwise (DEL and bytes >= 0x80 included).
std::string ExpectedEscape(unsigned char b) {
  switch (b) {
    case '"':
      return "\\\"";
    case '\\':
      return "\\\\";
    case '\n':
      return "\\n";
    case '\t':
      return "\\t";
    case '\r':
      return "\\r";
    default:
      break;
  }
  if (b < 0x20) {
    constexpr char kHex[] = "0123456789abcdef";
    return std::string("\\u00") + kHex[b >> 4] + kHex[b & 0xf];
  }
  return std::string(1, static_cast<char>(b));
}

// --- emitters ----------------------------------------------------------------

TEST(JsonEmitTest, AppendInt64Extremes) {
  EXPECT_EQ(Int64(0), "prefix:0");
  EXPECT_EQ(Int64(-1), "prefix:-1");
  EXPECT_EQ(Int64(7), "prefix:7");
  EXPECT_EQ(Int64(-1234567890123), "prefix:-1234567890123");
  EXPECT_EQ(Int64(std::numeric_limits<int64_t>::max()), "prefix:9223372036854775807");
  EXPECT_EQ(Int64(std::numeric_limits<int64_t>::min()), "prefix:-9223372036854775808");
}

TEST(JsonEmitTest, AppendUint64HexExtremes) {
  EXPECT_EQ(Hex(0), "prefix:\"0x0\"");
  EXPECT_EQ(Hex(1), "prefix:\"0x1\"");
  EXPECT_EQ(Hex(0xabcdef), "prefix:\"0xabcdef\"");
  EXPECT_EQ(Hex(0xcbf29ce484222325ULL), "prefix:\"0xcbf29ce484222325\"");
  EXPECT_EQ(Hex(std::numeric_limits<uint64_t>::max()), "prefix:\"0xffffffffffffffff\"");
}

TEST(JsonEmitTest, AppendEscapedEveryByte) {
  std::string all;
  std::string expected_all = "prefix:\"";
  for (int b = 0; b < 256; ++b) {
    const char c = static_cast<char>(b);
    const std::string expected = ExpectedEscape(static_cast<unsigned char>(b));
    EXPECT_EQ(Escaped(std::string_view(&c, 1)), "prefix:\"" + expected + "\"")
        << "byte " << b;
    all += c;
    expected_all += expected;
  }
  expected_all += '"';
  EXPECT_EQ(Escaped(all), expected_all);
  // The short escapes are exactly these five: backspace and form feed take
  // the \u form, which is what every canonical document carries.
  EXPECT_EQ(Escaped("\b\f"), "prefix:\"\\u0008\\u000c\"");
  EXPECT_EQ(Escaped(""), "prefix:\"\"");
}

TEST(JsonEmitTest, AppendEscapedLongRuns) {
  const std::string run(1000, 'a');
  EXPECT_EQ(Escaped(run), "prefix:\"" + run + "\"");
  const std::string mixed = "\"" + run + "\\" + std::string(777, 'z') + "\n" +
                            std::string(33, '\x01') + run + "\x7f\xff";
  std::string expected = "prefix:\"\\\"" + run + "\\\\" + std::string(777, 'z') + "\\n";
  for (int i = 0; i < 33; ++i) {
    expected += "\\u0001";
  }
  expected += run + "\x7f\xff\"";
  EXPECT_EQ(Escaped(mixed), expected);
}

TEST(JsonEmitTest, EscapedStringsRoundTrip) {
  std::string all;
  for (int b = 0; b < 256; ++b) {
    all += static_cast<char>(b);
  }
  for (const std::string& s : {all, std::string(4096, 'q') + all + std::string(9, '"')}) {
    std::string doc;
    json::AppendEscaped(doc, s);
    const json::Value v = json::Parse(doc, "ctx");
    ASSERT_EQ(v.kind, json::Value::Kind::kString);
    EXPECT_EQ(v.string, s);
  }
}

// --- parser messages ---------------------------------------------------------

TEST(JsonParseTest, NumberMessages) {
  EXPECT_EQ(ParseError("1.2.3"), "ctx: malformed number '1.2.3' (at byte 5)");
  EXPECT_EQ(ParseError("-"), "ctx: malformed number '-' (at byte 1)");
  EXPECT_EQ(ParseError("+"), "ctx: malformed number '+' (at byte 1)");
  EXPECT_EQ(ParseError("[1e5e5]"), "ctx: malformed number '1e5e5' (at byte 6)");
  EXPECT_EQ(ParseError("1e999"), "ctx: number '1e999' is out of double range (at byte 5)");
  EXPECT_EQ(ParseError("{\"k\": -1e999}"),
            "ctx: number '-1e999' is out of double range (at byte 12)");
  EXPECT_EQ(ParseError("[1,]"), "ctx: expected a value (at byte 3)");
  EXPECT_EQ(ParseError("tru"), "ctx: expected a value (at byte 0)");
}

TEST(JsonParseTest, NumbersParseInPlace) {
  EXPECT_EQ(json::Parse("+2.5", "ctx").number, 2.5);
  EXPECT_EQ(json::Parse(" -0.125 ", "ctx").number, -0.125);
  EXPECT_EQ(json::Parse("[1e-3]", "ctx").array.at(0).number, 1e-3);
  EXPECT_EQ(json::Parse("{\"a\":9007199254740993}", "ctx").object.at(0).second.number,
            9007199254740992.0);
}

TEST(JsonParseTest, StringMessages) {
  EXPECT_EQ(ParseError("\"abc"), "ctx: unterminated string (at byte 4)");
  EXPECT_EQ(ParseError("\"abc\\"), "ctx: unterminated escape (at byte 5)");
  EXPECT_EQ(ParseError("\"\\u12g4\""), "ctx: invalid \\u escape (at byte 6)");
  EXPECT_EQ(ParseError("\"\\u12"), "ctx: truncated \\u escape (at byte 3)");
  EXPECT_EQ(ParseError("\"\\q\""), "ctx: unknown escape (at byte 3)");
  EXPECT_EQ(json::Parse("\"a\\u00e9\\/\\b\\f\\u20ac\"", "ctx").string,
            "a\xc3\xa9/\b\f\xe2\x82\xac");
}

TEST(JsonParseTest, StructureMessages) {
  EXPECT_EQ(ParseError(""), "ctx: unexpected end of input (at byte 0)");
  EXPECT_EQ(ParseError("{} x"),
            "ctx: trailing characters after the top-level value (at byte 3)");
  EXPECT_EQ(ParseError("{\"a\" 1}"), "ctx: expected ':' (at byte 5)");
  EXPECT_EQ(ParseError("[1 2]"), "ctx: expected ',' (at byte 3)");
  EXPECT_EQ(ParseError("{\"a\":1,\"a\":2}"), "ctx: duplicate key \"a\" (at byte 10)");
  EXPECT_EQ(ParseError(std::string(64, '[') + std::string(64, ']')), "");
  EXPECT_EQ(ParseError(std::string(65, '[') + std::string(65, ']')),
            "ctx: nesting deeper than 64 levels (at byte 65)");
}

// --- ObjectReader messages ---------------------------------------------------

std::string ReaderError(std::string_view text,
                        void (*read)(json::ObjectReader& reader)) {
  const json::Value value = json::Parse(text, "ctx");
  try {
    json::ObjectReader reader(value, "thing", "ctx");
    read(reader);
    reader.Finish();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(JsonObjectReaderTest, Messages) {
  EXPECT_EQ(ReaderError("[]", [](json::ObjectReader&) {}),
            "ctx: thing must be an object");
  EXPECT_EQ(ReaderError("{\"a\":1}", [](json::ObjectReader& r) { r.GetNumber("b"); }),
            "ctx: thing is missing key \"b\"");
  EXPECT_EQ(ReaderError("{\"a\":1}", [](json::ObjectReader& r) { r.GetString("a"); }),
            "ctx: thing key \"a\" has the wrong type");
  EXPECT_EQ(ReaderError("{\"a\":\"x\"}", [](json::ObjectReader& r) { r.GetNumber("a"); }),
            "ctx: thing key \"a\" has a non-numeric string value");
  EXPECT_EQ(ReaderError("{\"a\":1.5}", [](json::ObjectReader& r) { r.GetInt("a"); }),
            "ctx: key \"a\" must be an integer");
  EXPECT_EQ(ReaderError("{\"a\":1e300}", [](json::ObjectReader& r) { r.GetInt64("a"); }),
            "ctx: key \"a\" is out of exactly-representable integer range");
  EXPECT_EQ(ReaderError("{\"a\":\"0xZ\"}",
                        [](json::ObjectReader& r) { r.GetUint64Hex("a"); }),
            "ctx: key \"a\" has a non-hex digit (lowercase hex only)");
  EXPECT_EQ(ReaderError("{\"a\":1,\"z\":2,\"y\":3}",
                        [](json::ObjectReader& r) { r.GetNumber("a"); }),
            "ctx: thing has unknown key \"z\"");
  EXPECT_EQ(ReaderError("{\"a\":1,\"z\":2}",
                        [](json::ObjectReader& r) {
                          r.GetNumber("z");
                          r.GetNumber("a");
                          r.GetNumber("z");
                        }),
            "");
}

TEST(JsonObjectReaderTest, ReadsEveryKind) {
  const json::Value value = json::Parse(
      "{\"n\":2.5,\"i\":-3,\"big\":9007199254740992,\"h\":\"0xff\",\"s\":\"str\","
      "\"b\":true,\"arr\":[1],\"obj\":{},\"inf\":\"-inf\"}",
      "ctx");
  json::ObjectReader reader(value, "thing", "ctx");
  EXPECT_EQ(reader.GetNumber("n"), 2.5);
  EXPECT_EQ(reader.GetInt("i"), -3);
  EXPECT_EQ(reader.GetInt64("big"), int64_t{1} << 53);
  EXPECT_EQ(reader.GetUint64Hex("h"), 0xffu);
  EXPECT_EQ(reader.GetString("s"), "str");
  EXPECT_TRUE(reader.GetBool("b"));
  EXPECT_EQ(reader.GetArray("arr").size(), 1u);
  EXPECT_EQ(reader.GetObject("obj").kind, json::Value::Kind::kObject);
  EXPECT_EQ(reader.GetNumber("inf"), -std::numeric_limits<double>::infinity());
  EXPECT_NO_THROW(reader.Finish());
  EXPECT_EQ(reader.where(), "thing");
  EXPECT_EQ(reader.context(), "ctx");
}

// --- objects with many keys -------------------------------------------------

// {"k0":0,"k1":1,...} with `n` keys; when `duplicate` names a key index, one
// more entry repeats that key at the end.
std::string ManyKeys(int n, int duplicate = -1) {
  std::string doc = "{";
  for (int i = 0; i < n; ++i) {
    doc += "\"k" + std::to_string(i) + "\":" + std::to_string(i) + ",";
  }
  if (duplicate >= 0) {
    doc += "\"k" + std::to_string(duplicate) + "\":0,";
  }
  doc.back() = '}';
  return doc;
}

TEST(JsonParseTest, DuplicateKeysAcrossTheLinearAndIndexedRange) {
  // Small objects compare a new key with each earlier one and larger ones
  // look it up in an index; both must report the same duplicate at the same
  // byte, wherever the first occurrence sits.
  for (int n = 1; n <= 80; ++n) {
    EXPECT_EQ(ParseError(ManyKeys(n)), "") << n << " keys";
    for (int dup : {0, n / 2, n - 1}) {
      const std::string doc = ManyKeys(n, dup);
      const std::string key = "k" + std::to_string(dup);
      const size_t at = doc.rfind("\"" + key + "\"") + key.size() + 2;
      EXPECT_EQ(ParseError(doc), "ctx: duplicate key \"" + key + "\" (at byte " +
                                     std::to_string(at) + ")")
          << n << " keys, duplicate of k" << dup;
    }
  }
  EXPECT_EQ(ParseError("{\"a\":{\"a\":1},\"b\":[{\"b\":2}]}"), "");
  EXPECT_EQ(ParseError("{\"\\u0061\":1,\"a\":2}"), "ctx: duplicate key \"a\" (at byte 15)");
}

// An object of n keys used to cost O(n^2) key comparisons: 40,000 keys
// took about 6 s and 200,000 would take minutes, long enough for one
// request to stall a daemon that serves one connection at a time. Each case
// is bounded far below that (it takes well under a second in an optimized
// build, and the bound leaves room for sanitizer and debug builds).
constexpr double kManyKeysBoundSeconds = 20.0;
constexpr int kManyKeys = 200000;

double SecondsSince(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

TEST(JsonParseTest, ObjectWithManyKeysParsesQuickly) {
  const std::string doc = ManyKeys(kManyKeys);
  const auto start = std::chrono::steady_clock::now();
  const json::Value value = json::Parse(doc, "ctx");
  EXPECT_LT(SecondsSince(start), kManyKeysBoundSeconds);
  ASSERT_EQ(value.object.size(), static_cast<size_t>(kManyKeys));
  EXPECT_EQ(value.object.back().first, "k199999");
  EXPECT_EQ(value.object.back().second.number, 199999.0);

  // A schema reader names the first key it did not ask for.
  json::ObjectReader reader(value, "thing", "ctx");
  EXPECT_EQ(reader.GetInt("k0"), 0);
  EXPECT_EQ(reader.GetInt("k199999"), 199999);
  try {
    reader.Finish();
    ADD_FAILURE() << "Finish accepted 199,998 unknown keys";
  } catch (const std::invalid_argument& e) {
    EXPECT_STREQ(e.what(), "ctx: thing has unknown key \"k1\"");
  }
}

TEST(JsonParseTest, ObjectWithManyKeysRejectsALastDuplicateQuickly) {
  const std::string doc = ManyKeys(kManyKeys, 0);
  const auto start = std::chrono::steady_clock::now();
  const std::string error = ParseError(doc);
  EXPECT_LT(SecondsSince(start), kManyKeysBoundSeconds);
  EXPECT_EQ(error, "ctx: duplicate key \"k0\" (at byte " + std::to_string(doc.size() - 3) + ")");
}

}  // namespace
}  // namespace longstore
