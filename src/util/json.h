// Minimal JSON infrastructure shared by every serialized protocol in the
// library: the Scenario canonical form (src/scenario/scenario_json.cc) and
// the sweep shard protocol (src/shard/).
//
// Emission side: append-style helpers that produce *canonical* JSON — no
// insignificant whitespace, round-trip-exact doubles (the C-locale %.17g
// form, emitted via std::to_chars so the bytes cannot vary with LC_NUMERIC;
// "inf"/"-inf"/"nan" as strings, since JSON has no literal for them).
// Canonical strings double as identity (FNV-1a hashes over them are stable
// across processes, platforms and locales), so emitters must never change
// byte output gratuitously. Parsing is equally locale-independent
// (std::from_chars): an embedder calling setlocale(LC_ALL, "") under a
// comma-decimal locale changes neither emitted bytes nor parsed values.
//
// Parsing side: a strict value-tree parser plus ObjectReader, a schema view
// that rejects duplicate, unknown and missing keys and type mismatches with
// a precise, context-prefixed error. Everything that ingests cross-process
// input goes through these, so malformed input always fails cleanly
// (std::invalid_argument) instead of reaching undefined behavior.

#ifndef LONGSTORE_SRC_UTIL_JSON_H_
#define LONGSTORE_SRC_UTIL_JSON_H_

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace longstore::json {

// --- canonical emission ----------------------------------------------------

// Appends `s` as a quoted JSON string, escaping quotes, backslashes and
// control characters.
void AppendEscaped(std::string& out, const std::string& s);

// Appends a round-trip-exact double: shortest %.17g form re-parses to the
// same bits; infinities and NaN are emitted as the strings "inf" / "-inf" /
// "nan".
void AppendDouble(std::string& out, double v);

// Appends a 64-bit integer exactly (decimal digits, no double round trip).
void AppendInt64(std::string& out, int64_t v);

// Appends a 64-bit unsigned value as a hex string ("0x1b3...") — the only
// representation that survives JSON's double-typed numbers above 2^53
// losslessly. Used for seeds and hashes.
void AppendUint64Hex(std::string& out, uint64_t v);

// --- checksummed documents -------------------------------------------------
//
// End-to-end integrity for documents that cross a process or transport
// boundary: the canonical body is wrapped in an envelope carrying its exact
// byte length and FNV-1a hash,
//
//   {"<version_key>":V,"body_bytes":N,"body_fnv1a":"0x...","body":{...}}
//
// and the reader verifies both against the raw received bytes *before* any
// JSON parsing. A transport that corrupts silently (the worker wrote the
// bytes and exited 0, but the merger read something else) therefore becomes
// a precise, retryable IntegrityError instead of a wrong figure. The length
// check catches truncation and padding outright; the hash catches flipped
// bytes the length cannot.

// FNV-1a over `bytes` (offset 0xcbf29ce484222325, prime 0x100000001b3) —
// the same hash Scenario::CanonicalHash uses, kept in one place.
uint64_t Fnv1a64(std::string_view bytes);

// A std::invalid_argument subclass for envelope length/hash mismatches, so
// callers (shard fleet drivers) can tell transport corruption — retryable —
// from schema errors, which re-running the same worker cannot fix.
class IntegrityError : public std::invalid_argument {
 public:
  using std::invalid_argument::invalid_argument;
};

// Wraps a canonical JSON object `body` in the checksummed envelope above.
std::string WrapChecksummedBody(const std::string& version_key, int version,
                                std::string_view body);

// The opened view of a verified envelope.
struct ChecksummedDocument {
  int version = 0;  // the envelope's "<version_key>" value
  // The verified body bytes: a view into the caller's `text`, valid only
  // while that buffer lives.
  std::string_view body;
};

// Verifies the envelope on raw bytes and returns the body view. Input that
// does not start '{"<version_key>":N,"body_bytes":' is not an envelope and
// is rejected with std::invalid_argument — no document enters unverified.
// A malformed envelope or a length/FNV-1a mismatch throws IntegrityError.
// `source` (a file name, may be empty) is named in every message.
ChecksummedDocument OpenChecksummedDocument(std::string_view text,
                                            const std::string& version_key,
                                            const std::string& context,
                                            const std::string& source = "");

// --- value tree ------------------------------------------------------------

// A parsed JSON value. Object keys keep insertion order but are looked up by
// name; the parser rejects duplicate keys (a duplicate would make canonical
// forms ambiguous).
struct Value {
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  Kind kind = Kind::kNull;
  bool boolean = false;
  double number = 0.0;
  std::string string;
  std::vector<Value> array;
  std::vector<std::pair<std::string, Value>> object;

  const Value* Find(const std::string& key) const {
    for (const auto& [k, v] : object) {
      if (k == key) {
        return &v;
      }
    }
    return nullptr;
  }
};

// The deepest array/object nesting Parse accepts. Every document this
// library emits nests at most 8 levels; the bound keeps the recursive parser
// (and the tree it returns) far from the stack limit on hostile input.
inline constexpr int kMaxNestingDepth = 64;

// Parses `text` as one JSON value (trailing characters are an error).
// `context` prefixes every error message, e.g. "Scenario::FromJson";
// throws std::invalid_argument with a byte position on malformed input,
// including nesting deeper than kMaxNestingDepth.
Value Parse(std::string_view text, const std::string& context);

// Throws std::invalid_argument("<context>: <what>"). The shared spelling
// for schema-level failures.
[[noreturn]] void Fail(const std::string& context, const std::string& what);

// --- schema mapping --------------------------------------------------------

// Checked double -> int conversion: rejects NaN/inf/out-of-range/fractional
// values (casting those is UB, and these functions ingest cross-process
// input that must fail cleanly). `what` names the field in the error.
int CheckedInt(double value, const std::string& what, const std::string& context);
// Same for int64. Doubles represent integers exactly only up to 2^53;
// larger magnitudes are rejected rather than silently rounded.
int64_t CheckedInt64(double value, const std::string& what, const std::string& context);

// Parses the AppendUint64Hex form ("0x..." hex string) back to a uint64.
uint64_t ParseUint64Hex(const std::string& text, const std::string& what,
                        const std::string& context);

// A strict view over one object: every Get marks its key as consumed, and
// Finish() rejects unknown keys, so schema drift fails loudly instead of
// silently dropping a field (which would break identity contracts).
class ObjectReader {
 public:
  // `where` names the object in errors ("scenario", "replica", ...);
  // `context` is the operation prefix ("Scenario::FromJson", ...).
  ObjectReader(const Value& value, std::string where, std::string context);

  // Returns the value at `key` after checking its kind; a kNumber request
  // also accepts kString (the "inf"/"-inf"/"nan" spellings — GetNumber
  // decodes them, other callers must handle the string themselves).
  const Value& Get(const std::string& key, Value::Kind kind);

  double GetNumber(const std::string& key);
  int GetInt(const std::string& key);
  int64_t GetInt64(const std::string& key);
  uint64_t GetUint64Hex(const std::string& key);
  std::string GetString(const std::string& key);
  bool GetBool(const std::string& key);
  const std::vector<Value>& GetArray(const std::string& key);
  const Value& GetObject(const std::string& key);

  // Rejects any key not consumed by a Get call.
  void Finish();

  const std::string& context() const { return context_; }
  const std::string& where() const { return where_; }

 private:
  const Value& value_;
  std::string where_;
  std::string context_;
  std::vector<std::string> consumed_;
};

}  // namespace longstore::json

#endif  // LONGSTORE_SRC_UTIL_JSON_H_
