// Command-line flag parsing shared by the sweep tools: the "--name=value"
// matcher and strict numeric values. A numeric value must parse whole and
// lie in range: "abc", "", "3x", a negative count and a NaN are usage
// errors — never a silent 0, a truncated number, or a disabled safeguard.

#ifndef LONGSTORE_TOOLS_NUMERIC_FLAGS_H_
#define LONGSTORE_TOOLS_NUMERIC_FLAGS_H_

#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>

namespace longstore {

// True when `arg` is `name` followed by '=', with *value pointing at the
// text after the '=' ("--socket=/tmp/s" matches "--socket", value
// "/tmp/s").
inline bool MatchValueFlag(const char* arg, const char* name, const char** value) {
  const size_t len = std::strlen(name);
  if (std::strncmp(arg, name, len) == 0 && arg[len] == '=') {
    *value = arg + len + 1;
    return true;
  }
  return false;
}

// A base-10 integer in [min, max(Int)].
template <typename Int>
bool ParseIntFlag(const char* text, Int min, Int* out) {
  errno = 0;
  char* end = nullptr;
  const long long value = std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min ||
      value > std::numeric_limits<Int>::max()) {
    return false;
  }
  *out = static_cast<Int>(value);
  return true;
}

// ParseDoubleFlag's `min` for a value that must be > 0.
inline constexpr double kPositiveDouble =
    std::numeric_limits<double>::denorm_min();

// A finite number >= min.
inline bool ParseDoubleFlag(const char* text, double min, double* out) {
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno == ERANGE || !std::isfinite(value) ||
      value < min) {
    return false;
  }
  *out = value;
  return true;
}

// An unsigned 64-bit value in decimal, 0x-hex or 0-octal (a seed).
inline bool ParseUint64Flag(const char* text, uint64_t* out) {
  if (std::strchr(text, '-') != nullptr) {
    return false;  // strtoull would wrap a negative around
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 0);
  if (end == text || *end != '\0' || errno == ERANGE) {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

}  // namespace longstore

#endif  // LONGSTORE_TOOLS_NUMERIC_FLAGS_H_
