#include "src/util/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <limits>
#include <set>
#include <stdexcept>
#include <system_error>

namespace longstore::json {

namespace {

constexpr char kHexDigits[] = "0123456789abcdef";

}  // namespace

// --- canonical emission ----------------------------------------------------

void AppendEscaped(std::string& out, std::string_view s) {
  out += '"';
  size_t run = 0;  // start of the bytes not yet copied
  for (size_t i = 0; i < s.size(); ++i) {
    const auto c = static_cast<unsigned char>(s[i]);
    if (c >= 0x20 && c != '"' && c != '\\') {
      continue;
    }
    out.append(s, run, i - run);
    run = i + 1;
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
      default: {
        const char escape[] = {'\\', 'u', '0', '0', kHexDigits[c >> 4], kHexDigits[c & 0xf]};
        out.append(escape, sizeof(escape));
      }
    }
  }
  out.append(s, run);
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
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out.append(buf, res.ptr);
}

void AppendUint64Hex(std::string& out, uint64_t v) {
  char buf[20] = {'"', '0', 'x'};  // + 16 digits + '"'
  const auto res = std::to_chars(buf + 3, buf + sizeof(buf) - 1, v, 16);
  *res.ptr = '"';
  out.append(buf, res.ptr + 1);
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
  char buf[18] = {'0', 'x'};
  const auto res = std::to_chars(buf + 2, buf + sizeof(buf), v, 16);
  return std::string(buf, res.ptr);
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

using Entries = std::vector<std::pair<std::string, Value>>;

// Objects up to this many keys check a new key against each earlier one
// (no object the library emits has more); larger ones, a sorted copy.
constexpr size_t kLinearKeyScan = 32;

// Whether `key` repeats one of `entries`' keys. Past kLinearKeyScan keys
// the check goes through `sorted`, a sorted copy of the keys that it fills
// on first use, so an object of n keys costs O(n log n) comparisons instead
// of O(n^2): a request from an untrusted client may carry hundreds of
// thousands. Sorted, not hashed: the keys are the client's bytes, and a
// fixed hash function has collisions that can be crafted.
bool RepeatsKey(const Entries& entries, const std::string& key,
                std::set<std::string>& sorted) {
  if (entries.size() < kLinearKeyScan) {
    return std::any_of(entries.begin(), entries.end(),
                       [&key](const auto& entry) { return entry.first == key; });
  }
  if (sorted.empty()) {
    for (const auto& entry : entries) {
      sorted.insert(entry.first);
    }
  }
  return !sorted.insert(key).second;
}

class Parser {
 public:
  Parser(std::string_view text, std::string_view context)
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
  [[noreturn]] void ParseFail(std::string_view what) const {
    std::string message(context_);
    message += ": ";
    message += what;
    message += " (at byte ";
    message += std::to_string(pos_);
    message += ')';
    throw std::invalid_argument(message);
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
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    return false;
  }

  Value ParseValue() {
    Value value;
    switch (Peek()) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case '"':
        value.kind = Value::Kind::kString;
        ParseString(value.string);
        return value;
      case 't':
        if (ConsumeWord("true")) {
          value.kind = Value::Kind::kBool;
          value.boolean = true;
          return value;
        }
        break;
      case 'f':
        if (ConsumeWord("false")) {
          value.kind = Value::Kind::kBool;
          return value;
        }
        break;
      case 'n':
        if (ConsumeWord("null")) {
          return value;
        }
        break;
      default:
        break;
    }
    return ParseNumber();
  }

  // Appends the decoded string at pos_ to `out`; the bytes between escapes
  // are copied a run at a time.
  void ParseString(std::string& out) {
    Expect('"');
    while (true) {
      const size_t run = pos_;
      while (pos_ < text_.size() && text_[pos_] != '"' && text_[pos_] != '\\') {
        ++pos_;
      }
      out.append(text_, run, pos_ - run);
      if (pos_ >= text_.size()) {
        ParseFail("unterminated string");
      }
      if (text_[pos_++] == '"') {
        return;
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

  // Converts the number token in place; only an error message copies it.
  Value ParseNumber() {
    SkipWhitespace();
    const size_t start = pos_;
    if (pos_ < text_.size() && (text_[pos_] == '-' || text_[pos_] == '+')) {
      ++pos_;
    }
    while (pos_ < text_.size() &&
           ((text_[pos_] >= '0' && text_[pos_] <= '9') || text_[pos_] == '.' ||
            text_[pos_] == 'e' || text_[pos_] == 'E' || text_[pos_] == '+' ||
            text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) {
      ParseFail("expected a value");
    }
    const std::string_view token = text_.substr(start, pos_ - start);
    // std::from_chars, not strtod: strtod obeys LC_NUMERIC, so under a
    // comma-decimal locale it would stop at the '.' of a canonical number
    // and reject (or worse, reinterpret) documents this library itself
    // emitted. from_chars always parses the C-locale spelling. It does not
    // accept a leading '+' (strtod did; the canonical emitters never write
    // one), so consume it explicitly to keep accepting that spelling.
    const char* first = token.data();
    const char* last = first + token.size();
    if (*first == '+') {
      ++first;
    }
    Value out;
    const auto res = std::from_chars(first, last, out.number);
    if (res.ec == std::errc::result_out_of_range) {
      ParseFail("number '" + std::string(token) + "' is out of double range");
    }
    if (res.ec != std::errc() || res.ptr != last) {
      ParseFail("malformed number '" + std::string(token) + "'");
    }
    out.kind = Value::Kind::kNumber;
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
      std::set<std::string> sorted_keys;
      while (true) {
        std::string key;
        ParseString(key);
        if (RepeatsKey(out.object, key, sorted_keys)) {
          ParseFail("duplicate key \"" + key + "\"");
        }
        Expect(':');
        out.object.emplace_back(std::move(key), ParseValue());
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
  std::string_view context_;
  size_t pos_ = 0;
  int depth_ = 0;  // arrays/objects currently open
};

// The checked conversions below name their field only when they throw, so
// a reader's successful Get builds no message. `what` is a callable that
// returns the field's name.
template <typename What>
int ToInt(double value, const What& what, std::string_view context) {
  constexpr double kIntMin = static_cast<double>(std::numeric_limits<int>::min());
  constexpr double kIntMax = static_cast<double>(std::numeric_limits<int>::max());
  if (!(value >= kIntMin && value <= kIntMax)) {
    Fail(context, what() + " is out of integer range");
  }
  const int as_int = static_cast<int>(value);
  if (static_cast<double>(as_int) != value) {
    Fail(context, what() + " must be an integer");
  }
  return as_int;
}

template <typename What>
int64_t ToInt64(double value, const What& what, std::string_view context) {
  // Doubles hold integers exactly only up to 2^53; anything larger has
  // already been rounded by the emitter or the parser, so reject it.
  constexpr double kExactMax = 9007199254740992.0;  // 2^53
  if (!(value >= -kExactMax && value <= kExactMax)) {
    Fail(context, what() + " is out of exactly-representable integer range");
  }
  const int64_t as_int = static_cast<int64_t>(value);
  if (static_cast<double>(as_int) != value) {
    Fail(context, what() + " must be an integer");
  }
  return as_int;
}

template <typename What>
uint64_t HexToUint64(std::string_view text, const What& what, std::string_view context) {
  if (text.size() < 3 || text.size() > 18 || text[0] != '0' || text[1] != 'x') {
    Fail(context, what() + " must be a \"0x...\" hex string");
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
      Fail(context, what() + " has a non-hex digit (lowercase hex only)");
    }
  }
  return value;
}

// The field name ObjectReader's messages use for `key`.
auto KeyName(std::string_view key) {
  return [key] { return "key \"" + std::string(key) + "\""; };
}

}  // namespace

Value Parse(std::string_view text, std::string_view context) {
  return Parser(text, context).Parse();
}

void Fail(std::string_view context, std::string_view what) {
  std::string message(context);
  message += ": ";
  message += what;
  throw std::invalid_argument(message);
}

// --- schema mapping --------------------------------------------------------

int CheckedInt(double value, std::string_view what, std::string_view context) {
  return ToInt(value, [what] { return std::string(what); }, context);
}

int64_t CheckedInt64(double value, std::string_view what, std::string_view context) {
  return ToInt64(value, [what] { return std::string(what); }, context);
}

uint64_t ParseUint64Hex(std::string_view text, std::string_view what,
                        std::string_view context) {
  return HexToUint64(text, [what] { return std::string(what); }, context);
}

ObjectReader::ObjectReader(const Value& value, std::string_view where,
                           std::string_view context)
    : value_(value), where_(where), context_(context) {
  if (value.kind != Value::Kind::kObject) {
    Fail(context_, std::string(where_) + " must be an object");
  }
  consumed_.resize(value.object.size());
}

const Value& ObjectReader::Get(std::string_view key, Value::Kind kind) {
  const auto& entries = value_.object;
  size_t at = 0;
  while (at < entries.size() && entries[at].first != key) {
    ++at;
  }
  if (at == entries.size()) {
    Fail(context_, std::string(where_) + " is missing key \"" + std::string(key) + "\"");
  }
  consumed_[at] = true;
  const Value& found = entries[at].second;
  if (found.kind != kind &&
      !(kind == Value::Kind::kNumber && found.kind == Value::Kind::kString)) {
    Fail(context_, std::string(where_) + " key \"" + std::string(key) +
                       "\" has the wrong type");
  }
  return found;
}

double ObjectReader::GetNumber(std::string_view key) {
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
    Fail(context_, std::string(where_) + " key \"" + std::string(key) +
                       "\" has a non-numeric string value");
  }
  return v.number;
}

int ObjectReader::GetInt(std::string_view key) {
  return ToInt(GetNumber(key), KeyName(key), context_);
}

int64_t ObjectReader::GetInt64(std::string_view key) {
  return ToInt64(GetNumber(key), KeyName(key), context_);
}

uint64_t ObjectReader::GetUint64Hex(std::string_view key) {
  return HexToUint64(Get(key, Value::Kind::kString).string, KeyName(key), context_);
}

std::string ObjectReader::GetString(std::string_view key) {
  return Get(key, Value::Kind::kString).string;
}

bool ObjectReader::GetBool(std::string_view key) {
  return Get(key, Value::Kind::kBool).boolean;
}

const std::vector<Value>& ObjectReader::GetArray(std::string_view key) {
  return Get(key, Value::Kind::kArray).array;
}

const Value& ObjectReader::GetObject(std::string_view key) {
  return Get(key, Value::Kind::kObject);
}

void ObjectReader::Finish() {
  for (size_t i = 0; i < consumed_.size(); ++i) {
    if (!consumed_[i]) {
      Fail(context_, std::string(where_) + " has unknown key \"" +
                         value_.object[i].first + "\"");
    }
  }
}

}  // namespace longstore::json
