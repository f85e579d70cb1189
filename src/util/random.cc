#include "src/util/random.h"

#include <cassert>
#include <cmath>

namespace longstore {
namespace {

inline uint64_t Rotl(uint64_t x, int k) { return (x << k) | (x >> (64 - k)); }

// Philox round constants (Salmon et al., "Parallel random numbers: as easy
// as 1, 2, 3"): a multiplier with good avalanche under 128-bit widening
// multiplication, and the golden-ratio Weyl increment for the key schedule.
constexpr uint64_t kPhiloxM = 0xd2b74407b1ce6e93ULL;
constexpr uint64_t kPhiloxW = 0x9e3779b97f4a7c15ULL;

}  // namespace

uint64_t SplitMix64Next(uint64_t& state) {
  state += 0x9e3779b97f4a7c15ULL;
  uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

uint64_t DeriveSeed(uint64_t seed, uint64_t index) {
  // Two SplitMix64 passes over a mixed (seed, index) pair. The golden-ratio
  // increment decorrelates consecutive indices.
  uint64_t state = seed ^ (index * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL);
  (void)SplitMix64Next(state);
  return SplitMix64Next(state);
}

uint64_t CounterMix(uint64_t key, uint64_t stream, uint64_t counter) {
  // Philox2x64-10: ten rounds of a 128-bit-product Feistel step over the
  // (stream, counter) pair, with a Weyl key schedule. Frozen under
  // SeedMode::kCounterV1 — do not change in place; add a new version.
  uint64_t hi = stream;
  uint64_t lo = counter;
  uint64_t k = key;
  for (int round = 0; round < 10; ++round) {
    const __uint128_t product = static_cast<__uint128_t>(kPhiloxM) * lo;
    const uint64_t new_lo = static_cast<uint64_t>(product >> 64) ^ k ^ hi;
    hi = static_cast<uint64_t>(product);
    lo = new_lo;
    k += kPhiloxW;
  }
  return lo ^ hi;
}

Rng::Rng(uint64_t seed) { Reseed(seed); }

void Rng::Reseed(uint64_t seed) {
  mode_ = Mode::kXoshiro;
  uint64_t sm = seed;
  for (auto& word : s_) {
    word = SplitMix64Next(sm);
  }
  // xoshiro must not be seeded with all-zero state; SplitMix64 cannot produce
  // four zero outputs in a row, but guard anyway for safety.
  if (s_[0] == 0 && s_[1] == 0 && s_[2] == 0 && s_[3] == 0) {
    s_[0] = 0x1ULL;
  }
}

void Rng::ReseedCounter(uint64_t key, uint64_t stream) {
  mode_ = Mode::kCounter;
  key_ = key;
  stream_ = stream;
  counter_ = 0;
}

uint64_t Rng::Next() {
  if (mode_ == Mode::kCounter) {
    return CounterMix(key_, stream_, counter_++);
  }
  const uint64_t result = Rotl(s_[1] * 5, 7) * 9;
  const uint64_t t = s_[1] << 17;
  s_[2] ^= s_[0];
  s_[3] ^= s_[1];
  s_[1] ^= s_[2];
  s_[0] ^= s_[3];
  s_[2] ^= t;
  s_[3] = Rotl(s_[3], 45);
  return result;
}

double Rng::NextDouble() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }

double Rng::NextDoubleOpen() {
  // (value + 1) / 2^53 lies in (0, 1]; log() of the result is always finite.
  return (static_cast<double>(Next() >> 11) + 1.0) * 0x1.0p-53;
}

uint64_t Rng::NextBounded(uint64_t bound) {
  // Lemire's multiply-shift rejection method.
  uint64_t x = Next();
  __uint128_t m = static_cast<__uint128_t>(x) * bound;
  uint64_t low = static_cast<uint64_t>(m);
  if (low < bound) {
    const uint64_t threshold = -bound % bound;
    while (low < threshold) {
      x = Next();
      m = static_cast<__uint128_t>(x) * bound;
      low = static_cast<uint64_t>(m);
    }
  }
  return static_cast<uint64_t>(m >> 64);
}

bool Rng::NextBernoulli(double p) { return NextDouble() < ClampProbability(p); }

Duration Rng::NextExponential(Duration mean) {
  if (mean.is_infinite()) {
    return Duration::Infinite();
  }
  assert(mean.hours() >= 0.0 && "NextExponential: mean must be non-negative");
  double mean_hours = mean.hours();
  if (!(mean_hours >= 0.0)) {  // negative or NaN
    mean_hours = 0.0;
  }
  return Duration::Hours(-std::log(NextDoubleOpen()) * mean_hours);
}

Duration Rng::NextExponential(Rate rate) { return NextExponential(rate.MeanInterval()); }

Duration Rng::NextUniform(Duration lo, Duration hi) {
  const double width = (hi - lo).hours();
  const double u = NextDouble();  // consumed even for degenerate ranges
  if (!(width > 0.0) || std::isinf(width)) {
    return lo;
  }
  return lo + Duration::Hours(width * u);
}

}  // namespace longstore
