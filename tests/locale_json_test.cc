// Locale-independence regression for the canonical JSON layer.
//
// Canonical JSON bytes are identity: CanonicalHash, kScenarioDerived trial
// seeds, sweep_id, and the envelope checksums all hash them. Before this
// test existed, AppendDouble went through snprintf("%.17g") and ParseNumber
// through strtod — both of which obey LC_NUMERIC — so any embedder calling
// setlocale(LC_ALL, "") under e.g. de_DE.UTF-8 (comma decimal separator)
// silently changed every canonical byte and broke round-trips of documents
// the library itself had emitted. The fix routes both through
// std::to_chars/std::from_chars; this test pins the property by capturing
// canonical bytes and hashes in the C locale, switching the process to a
// comma-decimal locale, and asserting nothing moves.
//
// Finding a comma-decimal locale: the test tries the usual installed names
// first, then (glibc) compiles de_DE.UTF-8 into a temp directory with
// localedef and points LOCPATH at it; the directory is removed when the
// program ends. If no comma-decimal locale can be arranged, the
// locale-dependent assertions are skipped — unless
// LONGSTORE_REQUIRE_COMMA_LOCALE is set (the CI locale job sets it, so CI
// can never silently skip the regression).
//
// The C++ global locale is a second, independent source: iostreams follow
// it, printf does not. SweepResultJsonIgnoresTheGlobalCppLocale installs a
// digit-grouping std::numpunct built in code, so it runs on every machine.

#include <clocale>
#include <cstdio>
#include <cstring>
#include <cstdlib>
#include <filesystem>
#include <locale>
#include <sstream>
#include <string>
#include <system_error>
#include <vector>

#include <gtest/gtest.h>

#include "src/drives/drive_specs.h"
#include "src/frontier/frontier.h"
#include "src/scenario/scenario.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"

namespace longstore {
namespace {

// Restores the C and C++ locales after every test so a comma or grouping
// locale can never leak into other assertions (or other test binaries'
// expectations).
class LocaleJsonTest : public ::testing::Test {
 protected:
  void TearDown() override {
    std::locale::global(std::locale::classic());
    std::setlocale(LC_ALL, "C");
  }
};

// A numpunct that groups integer digits in threes with '.', as many
// European locales do. Built in, so it needs no installed system locale.
class DotGroupingNumpunct : public std::numpunct<char> {
 protected:
  char do_thousands_sep() const override { return '.'; }
  std::string do_grouping() const override { return "\3"; }
};

// Owns the scratch directory that the glibc fallback below compiles
// de_DE.UTF-8 into. It is made once per process (LOCPATH then keeps the
// compiled locale loadable by name) and removed when the test program ends,
// after the "C" locale is restored and LOCPATH is unset.
class CompiledLocaleDir : public ::testing::Environment {
 public:
  // Makes the directory on first use; "" if that fails.
  const std::string& Path() {
    if (path_.empty()) {
      char dir_template[] = "/tmp/longstore_locale.XXXXXX";
      if (::mkdtemp(dir_template) != nullptr) {
        path_ = dir_template;
      }
    }
    return path_;
  }

  void TearDown() override {
    if (path_.empty()) {
      return;
    }
    std::setlocale(LC_ALL, "C");
    ::unsetenv("LOCPATH");
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
    path_.clear();
  }

 private:
  std::string path_;
};

CompiledLocaleDir* const compiled_locale_dir = static_cast<CompiledLocaleDir*>(
    ::testing::AddGlobalTestEnvironment(new CompiledLocaleDir));

// Tries to switch the process to a locale whose decimal separator is ','.
// Returns the locale name that took effect, or "" if none could be arranged.
std::string ActivateCommaDecimalLocale() {
  const char* candidates[] = {"de_DE.UTF-8", "de_DE.utf8", "fr_FR.UTF-8",
                              "fr_FR.utf8",  "es_ES.UTF-8", "it_IT.UTF-8"};
  const auto comma_active = [] {
    const struct lconv* conv = std::localeconv();
    return conv != nullptr && conv->decimal_point != nullptr &&
           conv->decimal_point[0] == ',';
  };
  for (const char* name : candidates) {
    if (std::setlocale(LC_ALL, name) != nullptr && comma_active()) {
      return name;
    }
  }
  // glibc fallback: compile de_DE.UTF-8 into a scratch directory and load it
  // via LOCPATH. localedef only writes under the -o path, so this leaves the
  // system's locale archive untouched.
  const std::string dir = compiled_locale_dir->Path();
  if (dir.empty()) {
    return "";
  }
  const std::string command =
      "localedef -i de_DE -f UTF-8 '" + dir + "/de_DE.UTF-8' >/dev/null 2>&1";
  if (std::system(command.c_str()) != 0) {
    return "";
  }
  ::setenv("LOCPATH", dir.c_str(), 1);
  if (std::setlocale(LC_ALL, "de_DE.UTF-8") != nullptr && comma_active()) {
    return "de_DE.UTF-8 (LOCPATH " + dir + ")";
  }
  return "";
}

// Skips (or fails, under LONGSTORE_REQUIRE_COMMA_LOCALE) when the machine
// cannot produce a comma-decimal locale.
#define REQUIRE_COMMA_LOCALE()                                               \
  const std::string active_locale = ActivateCommaDecimalLocale();            \
  if (active_locale.empty()) {                                               \
    if (std::getenv("LONGSTORE_REQUIRE_COMMA_LOCALE") != nullptr) {          \
      FAIL() << "LONGSTORE_REQUIRE_COMMA_LOCALE is set but no comma-decimal" \
                " locale could be activated";                                \
    }                                                                        \
    GTEST_SKIP() << "no comma-decimal locale available on this machine";     \
  }                                                                          \
  SCOPED_TRACE("active locale: " + active_locale)

// Doubles that exercise every formatting shape: fractions, exponents both
// ways, exact integers, subnormals, negative zero, and the non-finite
// string spellings.
const double kProbes[] = {0.1,    1.5,       -2.75,     1460.0, 3.0,
                          1e300,  1e-300,    2.5e-7,    1e5,    100000.0,
                          0.0,    -0.0,      1.0 / 3.0, 5e-324, 1.7976931348623157e308,
                          123456789.123456789};

Scenario CheetahLikeScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .Media("disk")
                       .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
                       .RepairTimes(Duration::Hours(8.0), Duration::Hours(8.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(1460.0))))
      .Correlation(0.1)
      .Build();
}

TEST_F(LocaleJsonTest, AppendDoubleBytesAreLocaleIndependent) {
  std::setlocale(LC_ALL, "C");
  std::vector<std::string> c_locale_bytes;
  for (const double v : kProbes) {
    std::string out;
    json::AppendDouble(out, v);
    c_locale_bytes.push_back(out);
    // The canonical form must never contain a comma in any locale; a comma
    // would also collide with JSON's own separator.
    EXPECT_EQ(out.find(','), std::string::npos) << out;
  }

  REQUIRE_COMMA_LOCALE();
  // Prove the locale actually changed printf's behavior — otherwise this
  // test could silently pass against a broken locale setup.
  char printf_probe[32];
  std::snprintf(printf_probe, sizeof(printf_probe), "%.1f", 1.5);
  ASSERT_STREQ(printf_probe, "1,5") << "locale did not take effect";

  for (size_t i = 0; i < std::size(kProbes); ++i) {
    std::string out;
    json::AppendDouble(out, kProbes[i]);
    EXPECT_EQ(out, c_locale_bytes[i])
        << "AppendDouble changed bytes under a comma-decimal locale";
  }
}

TEST_F(LocaleJsonTest, ParseNumberIsLocaleIndependent) {
  std::setlocale(LC_ALL, "C");
  // Canonical spellings emitted in the C locale...
  std::vector<std::string> spellings;
  for (const double v : kProbes) {
    std::string out;
    json::AppendDouble(out, v);
    spellings.push_back(out);
  }

  REQUIRE_COMMA_LOCALE();
  // ...must parse to the same bits under the comma locale (strtod would
  // stop at the '.' and reject the tail).
  for (size_t i = 0; i < std::size(kProbes); ++i) {
    const json::Value value =
        json::Parse(spellings[i], "LocaleJsonTest");
    ASSERT_EQ(value.kind, json::Value::Kind::kNumber) << spellings[i];
    const double parsed = value.number;
    EXPECT_EQ(std::memcmp(&parsed, &kProbes[i], sizeof(double)), 0)
        << spellings[i] << " reparsed to different bits";
  }
  // A comma is never a valid number byte, in any locale.
  EXPECT_THROW(json::Parse("1,5", "LocaleJsonTest"), std::invalid_argument);
}

TEST_F(LocaleJsonTest, ScenarioHashAndRoundTripSurviveCommaLocale) {
  std::setlocale(LC_ALL, "C");
  const Scenario scenario = CheetahLikeScenario();
  const std::string c_json = scenario.ToJson();
  const uint64_t c_hash = scenario.CanonicalHash();

  REQUIRE_COMMA_LOCALE();
  EXPECT_EQ(scenario.ToJson(), c_json)
      << "canonical scenario JSON changed under a comma-decimal locale";
  EXPECT_EQ(scenario.CanonicalHash(), c_hash);
  // Round-trip documents emitted in either locale, parsed in this one.
  const Scenario reparsed = Scenario::FromJson(c_json);
  EXPECT_EQ(reparsed.CanonicalHash(), c_hash);
  EXPECT_EQ(reparsed.ToJson(), c_json);
}

TEST_F(LocaleJsonTest, SweepIdAndShardDocumentsSurviveCommaLocale) {
  std::setlocale(LC_ALL, "C");
  SweepSpec spec{CheetahLikeScenario()};
  SweepOptions options;
  options.mc.trials = 8;
  options.mc.seed = 33;
  options.seed_mode = SweepOptions::SeedMode::kScenarioDerived;
  const std::vector<SweepSpec::Cell> cells = spec.BuildCells();
  const uint64_t c_sweep_id = ComputeSweepId(spec.AxisNames(), options, cells);
  const ShardPlan c_plan(spec, options, 1);
  const std::string c_shard_json = c_plan.shards()[0].ToJson();

  REQUIRE_COMMA_LOCALE();
  EXPECT_EQ(ComputeSweepId(spec.AxisNames(), options, spec.BuildCells()),
            c_sweep_id)
      << "sweep_id changed under a comma-decimal locale";
  const ShardPlan plan(spec, options, 1);
  EXPECT_EQ(plan.shards()[0].ToJson(), c_shard_json);
  // The checksummed envelope must verify and the document must parse under
  // the comma locale — this is exactly the resident-service serving path.
  const ShardSpec reparsed = ShardSpec::FromJson(c_shard_json);
  EXPECT_EQ(reparsed.ToJson(), c_shard_json);
}

TEST_F(LocaleJsonTest, SweepResultJsonIgnoresTheGlobalCppLocale) {
  // A cell of 4,000 trials: streams that honor a grouping locale print
  // "trials":4.000, which json::Parse reads back as 4.
  SweepSpec spec{CheetahLikeScenario()};
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(1.0);
  options.mc.trials = 4000;
  options.mc.seed = 33;
  WorkerPool pool(1);
  const SweepResult result = SweepRunner(&pool).Run(spec, options);
  ASSERT_EQ(result.cells.size(), 1u);
  ASSERT_EQ(result.cells[0].trials, 4000);
  const std::string classic_json = result.ToJson();
  EXPECT_NE(classic_json.find("\"trials\":4000,"), std::string::npos) << classic_json;

  std::locale::global(std::locale(std::locale::classic(), new DotGroupingNumpunct));
  std::ostringstream probe;
  probe << int64_t{4000};
  ASSERT_EQ(probe.str(), "4.000") << "grouping locale did not take effect";

  EXPECT_EQ(result.ToJson(), classic_json)
      << "SweepResult::ToJson changed bytes under a digit-grouping locale";
}

TEST_F(LocaleJsonTest, FrontierDescriptionSurvivesCommaLocale) {
  std::setlocale(LC_ALL, "C");
  // A 12.5-year tape phase migrating to etched disc, audited 0.5 times a
  // year: both numbers reach the description field through %g-style
  // formatting.
  FrontierPoint point;
  point.candidate.phases = {
      {12.5, {Lto3TapeCartridge(), Lto3TapeCartridge()}, 0.5},
      {37.5, {GigayearEtchedDisc(), GigayearEtchedDisc()}, 0.5},
  };
  FrontierResult result;
  result.points.push_back(point);
  const std::string c_json = result.ToJson();
  const std::string description = point.candidate.Describe();
  EXPECT_NE(description.find("12.5 y: "), std::string::npos) << description;
  EXPECT_NE(description.find(", 0.5 audits/y, "), std::string::npos) << description;

  REQUIRE_COMMA_LOCALE();
  EXPECT_EQ(result.ToJson(), c_json)
      << "FrontierResult::ToJson changed bytes under a comma-decimal locale";
}

TEST(JsonParseTest, NestingDepthIsBoundedNotACrash) {
  // 200 KB of '[' once recursed a stack frame per byte and overflowed the
  // stack; the parser now stops at kMaxNestingDepth with a positioned error.
  const std::string deep(200 * 1024, '[');
  try {
    json::Parse(deep, "test");
    FAIL() << "accepted unbounded nesting";
  } catch (const std::invalid_argument& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("nesting deeper than"), std::string::npos) << message;
    EXPECT_NE(message.find("(at byte "), std::string::npos) << message;
  }
  // Objects count toward the same budget as arrays.
  std::string objects;
  for (int i = 0; i < 1000; ++i) {
    objects += "{\"k\":";
  }
  EXPECT_THROW(json::Parse(objects, "test"), std::invalid_argument);

  // The limit itself still parses; one level more does not.
  const int depth = json::kMaxNestingDepth;
  const std::string at_limit = std::string(depth, '[') + std::string(depth, ']');
  EXPECT_NO_THROW(json::Parse(at_limit, "test"));
  EXPECT_THROW(json::Parse("[" + at_limit + "]", "test"), std::invalid_argument);
}

}  // namespace
}  // namespace longstore
