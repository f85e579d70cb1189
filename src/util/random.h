// Deterministic pseudo-random number generation for the simulator.
//
// We implement our own generators (xoshiro256** and a Philox-style
// counter-based mixer) and samplers rather than using <random>'s distributions
// because the standard leaves distribution algorithms implementation-defined:
// identical seeds would give different fault histories on different standard
// libraries, breaking reproducibility of every printed figure.
// SplitMix64 is used to expand user seeds and to derive independent per-trial
// streams, which makes Monte Carlo results independent of thread scheduling.
//
// Stream versioning contract: the bit-exact output of every generator and
// sampler in this header is frozen. Changing any stream requires a new
// SeedMode (see src/sweep/sweep.h) rather than an in-place edit, so that
// previously published figures stay reproducible. See src/util/README.md.

#ifndef LONGSTORE_SRC_UTIL_RANDOM_H_
#define LONGSTORE_SRC_UTIL_RANDOM_H_

#include <array>
#include <cstdint>

#include "src/util/units.h"

namespace longstore {

// SplitMix64 step: advances `state` and returns the next 64-bit output.
// Used for seed expansion and derivation, not as the main generator.
uint64_t SplitMix64Next(uint64_t& state);

// Derives a well-mixed 64-bit seed for substream `index` of a root `seed`.
// Distinct (seed, index) pairs yield (statistically) independent streams.
uint64_t DeriveSeed(uint64_t seed, uint64_t index);

// Counter-based generator (Philox2x64-10 style): a pure function of
// (key, stream, counter) with no hidden state, so any draw of any trial is
// addressable in O(1). `key` identifies the experiment (e.g. a scenario
// content hash mixed with the root seed), `stream` the trial, and `counter`
// the draw index within the trial. This is what makes SoA batch kernels
// deterministic: a kernel can read draw #k of trial #t without replaying
// draws 0..k-1. (Trial-range sharding needs only per-trial seeding, which
// every seed mode has.)
//
// The output stream is frozen under SeedMode::kCounterV1; see
// src/util/README.md for the versioning contract.
uint64_t CounterMix(uint64_t key, uint64_t stream, uint64_t counter);

// Pseudo-random generator behind all samplers. Runs in one of two modes:
//  - xoshiro256** 1.0 (Blackman & Vigna; fast, 256-bit state, passes
//    BigCrush) after Reseed() — the historical default, bit-compatible with
//    every stream this repo has ever published.
//  - counter mode after ReseedCounter() — each Next() returns
//    CounterMix(key, stream, n) for n = 0, 1, 2, ... so the stream position
//    is an explicit, seekable integer.
// Satisfies std::uniform_random_bit_generator in both modes.
class Rng {
 public:
  using result_type = uint64_t;

  explicit Rng(uint64_t seed);

  // Re-initializes the generator exactly as construction from `seed` would:
  // a reseeded Rng produces the same stream as a fresh one. Lets the Monte
  // Carlo harness reuse one generator across trials. Always selects xoshiro
  // mode, even if the Rng was previously in counter mode.
  void Reseed(uint64_t seed);

  // Switches to counter mode: subsequent Next() calls return
  // CounterMix(key, stream, 0), CounterMix(key, stream, 1), ...
  // Reseeding with the same (key, stream) reproduces the same stream.
  void ReseedCounter(uint64_t key, uint64_t stream);

  static constexpr uint64_t min() { return 0; }
  static constexpr uint64_t max() { return ~uint64_t{0}; }

  uint64_t operator()() { return Next(); }
  uint64_t Next();

  // Uniform double in [0, 1) with 53 bits of precision.
  double NextDouble();

  // Uniform double in (0, 1]: never returns 0, so it is safe to take its log.
  double NextDoubleOpen();

  // Uniform integer in [0, bound). bound must be > 0. Uses rejection sampling
  // (Lemire) so results are exactly uniform.
  uint64_t NextBounded(uint64_t bound);

  // True with probability p (p clamped to [0,1]).
  bool NextBernoulli(double p);

  // Exponentially distributed duration with the given mean. A zero rate /
  // infinite mean yields Duration::Infinite() ("the event never happens")
  // without consuming a draw (historical behavior, frozen). A negative or
  // NaN mean is a caller bug: debug builds assert; release builds clamp to
  // a zero mean (the event fires immediately) so the result is at least a
  // defined, finite duration — the draw is still consumed in that case.
  Duration NextExponential(Duration mean);
  Duration NextExponential(Rate rate);

  // Uniform duration in [lo, hi). Degenerate ranges are defined rather than
  // garbage: if hi <= lo, or the width (hi - lo) is infinite or NaN, the
  // result is exactly `lo` (previously an infinite hi could yield NaN via
  // inf * 0, and hi < lo was silently accepted). One uniform is consumed
  // either way, so the stream position never depends on the arguments.
  Duration NextUniform(Duration lo, Duration hi);

 private:
  enum class Mode : uint8_t { kXoshiro, kCounter };

  std::array<uint64_t, 4> s_;
  Mode mode_ = Mode::kXoshiro;
  uint64_t key_ = 0;
  uint64_t stream_ = 0;
  uint64_t counter_ = 0;
};

}  // namespace longstore

#endif  // LONGSTORE_SRC_UTIL_RANDOM_H_
