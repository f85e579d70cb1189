#include "src/util/json.h"

#include <cctype>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <system_error>

namespace longstore::json {

// --- canonical emission ----------------------------------------------------

void AppendEscaped(std::string& out, const std::string& s) {
  out += '"';
  for (const char c : s) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  out += '"';
}

void AppendDouble(std::string& out, double v) {
  if (std::isinf(v)) {
    out += v > 0 ? "\"inf\"" : "\"-inf\"";
    return;
  }
  if (std::isnan(v)) {
    out += "\"nan\"";
    return;
  }
  // std::to_chars, not snprintf: %g obeys LC_NUMERIC, so an embedder that
  // calls setlocale(LC_ALL, "") under a comma-decimal locale would silently
  // change every canonical byte — and with it CanonicalHash, sweep_id, and
  // the envelope checksums. to_chars is locale-independent and its
  // general/17 output is byte-identical to C-locale %.17g.
  char buf[40];
  const auto res =
      std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general, 17);
  out.append(buf, res.ptr);
}

void AppendInt64(std::string& out, int64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRId64, v);
  out += buf;
}

void AppendUint64Hex(std::string& out, uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "\"0x%" PRIx64 "\"", v);
  out += buf;
}

// --- checksummed documents -------------------------------------------------

uint64_t Fnv1a64(std::string_view bytes) {
  uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string WrapChecksummedBody(const std::string& version_key, int version,
                                std::string_view body) {
  std::string out;
  out.reserve(body.size() + 80);
  out += "{\"";
  out += version_key;
  out += "\":";
  AppendInt64(out, version);
  out += ",\"body_bytes\":";
  AppendInt64(out, static_cast<int64_t>(body.size()));
  out += ",\"body_fnv1a\":";
  AppendUint64Hex(out, Fnv1a64(body));
  out += ",\"body\":";
  out += body;
  out += '}';
  return out;
}

namespace {

std::string HexString(uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "0x%" PRIx64, v);
  return buf;
}

bool IsJsonWhitespace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r';
}

}  // namespace

ChecksummedDocument OpenChecksummedDocument(std::string_view text,
                                            const std::string& version_key,
                                            const std::string& context,
                                            const std::string& source) {
  const auto tagged = [&](const std::string& what) {
    return context + ": " + (source.empty() ? what : "[" + source + "] " + what);
  };
  const auto fail = [&](const std::string& what) { throw IntegrityError(tagged(what)); };
  const auto not_an_envelope = [&]() {
    throw std::invalid_argument(
        tagged("not a checksummed document (expected a {\"" + version_key +
               "\":N,\"body_bytes\":...} envelope)"));
  };
  // Trim surrounding whitespace so a trailing newline (every worker writes
  // one) never shifts the byte accounting.
  size_t begin = 0;
  size_t end = text.size();
  while (begin < end && IsJsonWhitespace(text[begin])) {
    ++begin;
  }
  while (end > begin && IsJsonWhitespace(text[end - 1])) {
    --end;
  }
  const std::string_view doc = text.substr(begin, end - begin);

  ChecksummedDocument out;
  const std::string head = "{\"" + version_key + "\":";
  if (doc.substr(0, head.size()) != head) {
    not_an_envelope();
  }
  size_t pos = head.size();
  const size_t digits_begin = pos;
  while (pos < doc.size() && doc[pos] >= '0' && doc[pos] <= '9') {
    ++pos;
  }
  constexpr std::string_view kBytesKey = ",\"body_bytes\":";
  if (pos == digits_begin || pos - digits_begin > 9 ||
      doc.substr(pos, kBytesKey.size()) != kBytesKey) {
    not_an_envelope();
  }
  for (size_t i = digits_begin; i < pos; ++i) {
    out.version = out.version * 10 + (doc[i] - '0');
  }
  pos += kBytesKey.size();

  const size_t bytes_begin = pos;
  uint64_t body_bytes = 0;
  while (pos < doc.size() && doc[pos] >= '0' && doc[pos] <= '9') {
    body_bytes = body_bytes * 10 + static_cast<uint64_t>(doc[pos] - '0');
    ++pos;
  }
  if (pos == bytes_begin || pos - bytes_begin > 15) {
    fail("malformed body_bytes in the checksum envelope");
  }
  constexpr std::string_view kFnvKey = ",\"body_fnv1a\":\"0x";
  if (doc.substr(pos, kFnvKey.size()) != kFnvKey) {
    fail("checksum envelope is missing body_fnv1a after body_bytes");
  }
  pos += kFnvKey.size();
  const size_t hex_begin = pos;
  uint64_t declared = 0;
  while (pos < doc.size() &&
         ((doc[pos] >= '0' && doc[pos] <= '9') || (doc[pos] >= 'a' && doc[pos] <= 'f'))) {
    declared = (declared << 4) |
               static_cast<uint64_t>(doc[pos] <= '9' ? doc[pos] - '0'
                                                     : doc[pos] - 'a' + 10);
    ++pos;
  }
  if (pos == hex_begin || pos - hex_begin > 16) {
    fail("malformed body_fnv1a in the checksum envelope (lowercase hex only)");
  }
  constexpr std::string_view kBodyKey = "\",\"body\":";
  if (doc.substr(pos, kBodyKey.size()) != kBodyKey) {
    fail("checksum envelope is missing the body after body_fnv1a");
  }
  pos += kBodyKey.size();
  if (doc.empty() || doc.back() != '}' || pos >= doc.size()) {
    fail("checksum envelope is not closed by '}'");
  }
  const std::string_view body = doc.substr(pos, doc.size() - 1 - pos);
  if (body.size() != body_bytes) {
    fail("body_bytes says " + std::to_string(body_bytes) +
         " bytes but the body holds " + std::to_string(body.size()) +
         " — the document was truncated or padded in transport");
  }
  const uint64_t actual = Fnv1a64(body);
  if (actual != declared) {
    fail("body_fnv1a mismatch: the envelope declares " + HexString(declared) +
         " but the body hashes to " + HexString(actual) +
         " — the document was corrupted in transport");
  }
  out.body = body;
  return out;
}

// --- parser ----------------------------------------------------------------

namespace {

class Parser {
 public:
  Parser(std::string_view text, const std::string& context)
      : text_(text), context_(context) {}

  Value Parse() {
    Value value = ParseValue();
    SkipWhitespace();
    if (pos_ != text_.size()) {
      ParseFail("trailing characters after the top-level value");
    }
    return value;
  }

 private:
  [[noreturn]] void ParseFail(const std::string& what) const {
    throw std::invalid_argument(context_ + ": " + what + " (at byte " +
                                std::to_string(pos_) + ")");
  }

  void SkipWhitespace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  char Peek() {
    SkipWhitespace();
    if (pos_ >= text_.size()) {
      ParseFail("unexpected end of input");
    }
    return text_[pos_];
  }

  void Expect(char c) {
    if (Peek() != c) {
      ParseFail(std::string("expected '") + c + "'");
    }
    ++pos_;
  }

  bool Consume(char c) {
    if (pos_ < text_.size() && Peek() == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool ConsumeWord(std::string_view word) {
    SkipWhitespace();
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value ParseValue() {
    const char c = Peek();
    switch (c) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"': {
        Value value;
        value.kind = Value::Kind::kString;
        value.string = ParseString();
        return value;
      }
      default:
        break;
    }
    Value value;
    if (ConsumeWord("true")) {
      value.kind = Value::Kind::kBool;
      value.boolean = true;
      return value;
    }
    if (ConsumeWord("false")) {
      value.kind = Value::Kind::kBool;
      value.boolean = false;
      return value;
    }
    if (ConsumeWord("null")) {
      value.kind = Value::Kind::kNull;
      return value;
    }
    return ParseNumber();
  }

  std::string ParseString() {
    Expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        ParseFail("unterminated string");
      }
      const char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (c != '\\') {
        out += c;
        continue;
      }
      if (pos_ >= text_.size()) {
        ParseFail("unterminated escape");
      }
      const char e = text_[pos_++];
      switch (e) {
        case '"':
          out += '"';
          break;
        case '\\':
          out += '\\';
          break;
        case '/':
          out += '/';
          break;
        case 'n':
          out += '\n';
          break;
        case 't':
          out += '\t';
          break;
        case 'r':
          out += '\r';
          break;
        case 'b':
          out += '\b';
          break;
        case 'f':
          out += '\f';
          break;
        case 'u': {
          if (pos_ + 4 > text_.size()) {
            ParseFail("truncated \\u escape");
          }
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4;
            if (h >= '0' && h <= '9') {
              code |= static_cast<unsigned>(h - '0');
            } else if (h >= 'a' && h <= 'f') {
              code |= static_cast<unsigned>(h - 'a' + 10);
            } else if (h >= 'A' && h <= 'F') {
              code |= static_cast<unsigned>(h - 'A' + 10);
            } else {
              ParseFail("invalid \\u escape");
            }
          }
          // The canonical emitters only escape control characters; decode
          // the BMP code point as UTF-8 for generality.
          if (code < 0x80) {
            out += static_cast<char>(code);
          } else if (code < 0x800) {
            out += static_cast<char>(0xc0 | (code >> 6));
            out += static_cast<char>(0x80 | (code & 0x3f));
          } else {
            out += static_cast<char>(0xe0 | (code >> 12));
            out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (code & 0x3f));
          }
          break;
        }
        default:
          ParseFail("unknown escape");
      }
    }
  }

  Value ParseNumber() {
    SkipWhitespace();
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      ParseFail("expected a value");
    }
    const std::string token(text_.substr(start, pos_ - start));
    // std::from_chars, not strtod: strtod obeys LC_NUMERIC, so under a
    // comma-decimal locale it would stop at the '.' of a canonical number
    // and reject (or worse, reinterpret) documents this library itself
    // emitted. from_chars always parses the C-locale spelling. It does not
    // accept a leading '+' (strtod did; the canonical emitters never write
    // one), so consume it explicitly to keep accepting that spelling.
    const char* first = token.c_str();
    const char* last = first + token.size();
    if (first != last && *first == '+') {
      ++first;
    }
    double value = 0.0;
    const auto res = std::from_chars(first, last, value);
    if (res.ec == std::errc::result_out_of_range) {
      ParseFail("number '" + token + "' is out of double range");
    }
    if (res.ec != std::errc() || res.ptr != last) {
      ParseFail("malformed number '" + token + "'");
    }
    Value out;
    out.kind = Value::Kind::kNumber;
    out.number = value;
    return out;
  }

  // Arrays and objects recurse through ParseValue; bounding the depth keeps
  // hostile input from exhausting the stack.
  void Descend() {
    if (++depth_ > kMaxNestingDepth) {
      ParseFail("nesting deeper than " + std::to_string(kMaxNestingDepth) + " levels");
    }
  }

  Value ParseArray() {
    Expect('[');
    Descend();
    Value out;
    out.kind = Value::Kind::kArray;
    if (!Consume(']')) {
      while (true) {
        out.array.push_back(ParseValue());
        if (Consume(']')) {
          break;
        }
        Expect(',');
      }
    }
    --depth_;
    return out;
  }

  Value ParseObject() {
    Expect('{');
    Descend();
    Value out;
    out.kind = Value::Kind::kObject;
    if (!Consume('}')) {
      while (true) {
        const std::string key = ParseString();
        if (out.Find(key) != nullptr) {
          ParseFail("duplicate key \"" + key + "\"");
        }
        Expect(':');
        out.object.emplace_back(key, ParseValue());
        if (Consume('}')) {
          break;
        }
        Expect(',');
      }
    }
    --depth_;
    return out;
  }

  std::string_view text_;
  const std::string& context_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

}  // namespace

Value Parse(std::string_view text, const std::string& context) {
  return Parser(text, context).Parse();
}

void Fail(const std::string& context, const std::string& what) {
  throw std::invalid_argument(context + ": " + what);
}

// --- schema mapping --------------------------------------------------------

int CheckedInt(double value, const std::string& what, const std::string& context) {
  constexpr double kIntMin = static_cast<double>(std::numeric_limits<int>::min());
  constexpr double kIntMax = static_cast<double>(std::numeric_limits<int>::max());
  if (!(value >= kIntMin && value <= kIntMax)) {
    Fail(context, what + " is out of integer range");
  }
  const int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    Fail(context, what + " must be an integer");
  }
  return as_int;
}

int64_t CheckedInt64(double value, const std::string& what, const std::string& context) {
  // Doubles hold integers exactly only up to 2^53; anything larger has
  // already been rounded by the emitter or the parser, so reject it.
  constexpr double kExactMax = 9007199254740992.0;  // 2^53
  if (!(value >= -kExactMax && value <= kExactMax)) {
    Fail(context, what + " is out of exactly-representable integer range");
  }
  const int64_t as_int = static_cast<int64_t>(value);
  if (static_cast<double>(as_int) != value) {
    Fail(context, what + " must be an integer");
  }
  return as_int;
}

uint64_t ParseUint64Hex(const std::string& text, const std::string& what,
                        const std::string& context) {
  if (text.size() < 3 || text.size() > 18 || text[0] != '0' || text[1] != 'x') {
    Fail(context, what + " must be a \"0x...\" hex string");
  }
  uint64_t value = 0;
  for (size_t i = 2; i < text.size(); ++i) {
    const char h = text[i];
    value <<= 4;
    if (h >= '0' && h <= '9') {
      value |= static_cast<uint64_t>(h - '0');
    } else if (h >= 'a' && h <= 'f') {
      value |= static_cast<uint64_t>(h - 'a' + 10);
    } else {
      Fail(context, what + " has a non-hex digit (lowercase hex only)");
    }
  }
  return value;
}

ObjectReader::ObjectReader(const Value& value, std::string where, std::string context)
    : value_(value), where_(std::move(where)), context_(std::move(context)) {
  if (value.kind != Value::Kind::kObject) {
    Fail(context_, where_ + " must be an object");
  }
}

const Value& ObjectReader::Get(const std::string& key, Value::Kind kind) {
  const Value* found = value_.Find(key);
  if (found == nullptr) {
    Fail(context_, where_ + " is missing key \"" + key + "\"");
  }
  consumed_.push_back(key);
  if (found->kind != kind &&
      !(kind == Value::Kind::kNumber && found->kind == Value::Kind::kString)) {
    Fail(context_, where_ + " key \"" + key + "\" has the wrong type");
  }
  return *found;
}

double ObjectReader::GetNumber(const std::string& key) {
  const Value& v = Get(key, Value::Kind::kNumber);
  if (v.kind == Value::Kind::kString) {
    // "inf" / "-inf" / "nan": the canonical spellings for non-finite
    // doubles (JSON has no literal for them).
    if (v.string == "inf") {
      return std::numeric_limits<double>::infinity();
    }
    if (v.string == "-inf") {
      return -std::numeric_limits<double>::infinity();
    }
    if (v.string == "nan") {
      return std::numeric_limits<double>::quiet_NaN();
    }
    Fail(context_, where_ + " key \"" + key + "\" has a non-numeric string value");
  }
  return v.number;
}

int ObjectReader::GetInt(const std::string& key) {
  return CheckedInt(GetNumber(key), "key \"" + key + "\"", context_);
}

int64_t ObjectReader::GetInt64(const std::string& key) {
  return CheckedInt64(GetNumber(key), "key \"" + key + "\"", context_);
}

uint64_t ObjectReader::GetUint64Hex(const std::string& key) {
  return ParseUint64Hex(Get(key, Value::Kind::kString).string, "key \"" + key + "\"",
                        context_);
}

std::string ObjectReader::GetString(const std::string& key) {
  return Get(key, Value::Kind::kString).string;
}

bool ObjectReader::GetBool(const std::string& key) {
  return Get(key, Value::Kind::kBool).boolean;
}

const std::vector<Value>& ObjectReader::GetArray(const std::string& key) {
  return Get(key, Value::Kind::kArray).array;
}

const Value& ObjectReader::GetObject(const std::string& key) {
  return Get(key, Value::Kind::kObject);
}

void ObjectReader::Finish() {
  for (const auto& [key, unused] : value_.object) {
    bool known = false;
    for (const std::string& c : consumed_) {
      if (c == key) {
        known = true;
        break;
      }
    }
    if (!known) {
      Fail(context_, where_ + " has unknown key \"" + key + "\"");
    }
  }
}

}  // namespace longstore::json
