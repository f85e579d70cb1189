// Golden-stream suite: pins the exact output of every Rng sampler, in both
// seed modes, against the frozen stream contract in src/util/README.md.
//
// SeedMode::kCounterV1 and the default xoshiro streams are *versioned
// artifacts*: results published from fixed seeds must stay reproducible, so
// any change to SplitMix64, DeriveSeed, CounterMix, xoshiro256**, or a
// sampler's draw order is a contract break and must ship as a new SeedMode
// instead. These pins make such a break loud.
//
// Integer-path pins (raw Next(), NextDouble bit patterns, NextBounded,
// NextBernoulli, NextUniform) are pure 64-bit arithmetic and hold on every
// conforming toolchain. NextExponential routes through libm (log) and can
// legitimately move when the host math library changes, so its pin honors
// LONGSTORE_SKIP_EXACT_GOLDENS like the paper-figure goldens do.

#include "src/util/random.h"

#include <cstdint>
#include <cstdlib>
#include <cstring>

#include <gtest/gtest.h>

namespace longstore {
namespace {

bool SkipExactGoldens() {
  const char* flag = std::getenv("LONGSTORE_SKIP_EXACT_GOLDENS");
  return flag != nullptr && flag[0] != '\0' && flag[0] != '0';
}

uint64_t Bits(double d) {
  uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

// FNV-1a over the 64-bit representation of each draw: one pinned checksum
// stands in for 64 pinned values per sampler without losing sensitivity —
// any single changed bit in any draw moves the hash.
class StreamHash {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

constexpr int kDraws = 64;
constexpr uint64_t kSeed = 12345;
constexpr uint64_t kStream = 6;

// One fresh generator per sampler, per mode, so each pin covers that
// sampler's own draw pattern from the start of the stream.
Rng Fresh(bool counter_mode) {
  Rng rng(kSeed);
  if (counter_mode) {
    rng.ReseedCounter(kSeed, kStream);
  }
  return rng;
}

template <typename Draw>
uint64_t HashStream(bool counter_mode, Draw draw) {
  Rng rng = Fresh(counter_mode);
  StreamHash hash;
  for (int i = 0; i < kDraws; ++i) {
    hash.Add(draw(rng));
  }
  return hash.value();
}

TEST(RngStreamGoldenTest, CounterMixPinnedValues) {
  // Philox2x64-10 single-point pins (the kCounterV1 substrate).
  EXPECT_EQ(CounterMix(0, 0, 0), 0xacc2e26751eb9284ULL);
  EXPECT_EQ(CounterMix(0, 0, 1), 0x8d3813084f2fd39bULL);
  EXPECT_EQ(CounterMix(1, 0, 0), 0xf5f7421dd54ba609ULL);
  EXPECT_EQ(CounterMix(0, 1, 0), 0xd3fe906d17049b52ULL);
  EXPECT_EQ(CounterMix(0xdeadbeefULL, 42, 7), 0xb63ad83b60c51338ULL);
}

TEST(RngStreamGoldenTest, RawStreamFirstOutputs) {
  Rng xo = Fresh(false);
  const uint64_t xo_expected[8] = {
      0xbe6a36374160d49bULL, 0x214aaa0637a688c6ULL, 0xf69d16de9954d388ULL,
      0x0c60048c4e96e033ULL, 0x8e2076aeed51c648ULL, 0x02bbcc1c1fc50f84ULL,
      0x28e72a4fec84f699ULL, 0x4bb9d7cbb8dddebeULL};
  for (uint64_t expected : xo_expected) {
    EXPECT_EQ(xo.Next(), expected);
  }

  Rng ctr = Fresh(true);
  const uint64_t ctr_expected[8] = {
      0x1ba5e90d074032d8ULL, 0x264be63c71a2d97fULL, 0x903f77d830089448ULL,
      0x6b379a31dab57955ULL, 0xfcf5373e648d7418ULL, 0x7960111cdb6447afULL,
      0xa4db3535728e5c06ULL, 0x8625dde4176cf6f3ULL};
  for (size_t n = 0; n < 8; ++n) {
    EXPECT_EQ(ctr.Next(), ctr_expected[n]);
    EXPECT_EQ(CounterMix(kSeed, kStream, n), ctr_expected[n]);
  }
}

struct SamplerPins {
  uint64_t next;
  uint64_t next_double;
  uint64_t next_double_open;
  uint64_t bounded;
  uint64_t bernoulli;
  uint64_t uniform;
  uint64_t exponential;  // libm-gated
};

void CheckMode(bool counter_mode, const SamplerPins& pins) {
  EXPECT_EQ(HashStream(counter_mode, [](Rng& r) { return r.Next(); }), pins.next);
  EXPECT_EQ(HashStream(counter_mode, [](Rng& r) { return Bits(r.NextDouble()); }),
            pins.next_double);
  EXPECT_EQ(HashStream(counter_mode, [](Rng& r) { return Bits(r.NextDoubleOpen()); }),
            pins.next_double_open);
  EXPECT_EQ(HashStream(counter_mode, [](Rng& r) { return r.NextBounded(1000003); }),
            pins.bounded);
  EXPECT_EQ(HashStream(counter_mode,
                       [](Rng& r) { return uint64_t{r.NextBernoulli(0.37)}; }),
            pins.bernoulli);
  EXPECT_EQ(HashStream(counter_mode,
                       [](Rng& r) {
                         return Bits(r.NextUniform(Duration::Hours(10.0),
                                                   Duration::Hours(250.0))
                                         .hours());
                       }),
            pins.uniform);
  if (SkipExactGoldens()) {
    GTEST_SKIP() << "LONGSTORE_SKIP_EXACT_GOLDENS set (uncontrolled toolchain); "
                    "integer-path pins above still checked";
  }
  EXPECT_EQ(HashStream(counter_mode,
                       [](Rng& r) {
                         return Bits(r.NextExponential(Duration::Hours(1000.0)).hours());
                       }),
            pins.exponential);
}

TEST(RngStreamGoldenTest, XoshiroSamplerStreams) {
  CheckMode(false, SamplerPins{
                       .next = 0x7e1a61f89642408aULL,
                       .next_double = 0x61b797f03b5466abULL,
                       .next_double_open = 0x9f6edf69ef9f5232ULL,
                       .bounded = 0x8e69d6ffff7eaa63ULL,
                       .bernoulli = 0xda97aa8456c898c5ULL,
                       .uniform = 0x1b11dd4846d42106ULL,
                       .exponential = 0x524fe673418654d7ULL,
                   });
}

TEST(RngStreamGoldenTest, CounterSamplerStreams) {
  CheckMode(true, SamplerPins{
                      .next = 0x92748ceefbfb13f0ULL,
                      .next_double = 0x1b83f85cfab6111aULL,
                      .next_double_open = 0x711573558ae21449ULL,
                      .bounded = 0x6d3fb1cb7846f298ULL,
                      .bernoulli = 0xe35dbb874871ad85ULL,
                      .uniform = 0x0efdb33fc3635f5aULL,
                      .exponential = 0x8d24c1237a8a4fe8ULL,
                  });
}

TEST(RngStreamGoldenTest, DeriveSeedPinnedValues) {
  // DeriveSeed feeds every per-cell and per-trial stream assignment; a moved
  // value here silently reshuffles all published sweep results.
  uint64_t state = 42;
  EXPECT_EQ(SplitMix64Next(state), 0xbdd732262feb6e95ULL);
  EXPECT_EQ(DeriveSeed(kSeed, 0), 0x520fc640dcb50523ULL);
  EXPECT_EQ(DeriveSeed(kSeed, 1), 0x7c3e4f6f8a7cc30dULL);
  StreamHash hash;
  for (uint64_t i = 0; i < 64; ++i) {
    hash.Add(DeriveSeed(kSeed, i));
  }
  EXPECT_EQ(hash.value(), 0x0622c2dde75bdcc2ULL);
}

}  // namespace
}  // namespace longstore
