// Shard protocol totality: every way a shard document can be wrong —
// malformed bytes, truncation, corruption (checksum), version mismatch,
// schema drift, duplicate or missing cells, nonsense numerics — is rejected
// with a precise std::invalid_argument, never undefined behavior. The whole
// suite also runs under the ASan/UBSan preset in CI, so "never UB" is
// enforced, not asserted.

#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"
#include "tools/figure_sweeps.h"

namespace longstore {
namespace {

Scenario SmallScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(400.0), Duration::Hours(200.0))
                       .RepairTimes(Duration::Hours(10.0), Duration::Hours(10.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(40.0))))
      .Build();
}

// A valid two-cell plan to mutate from.
ShardPlan ValidPlan(int shard_count = 1) {
  SweepSpec spec(SmallScenario());
  spec.AddAxis("mv_hours");
  for (const double hours : {400.0, 800.0}) {
    spec.AddPoint(std::to_string(static_cast<int>(hours)), hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.mv = Duration::Hours(hours);
                    }
                  });
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 64;
  options.mc.seed = 99;
  return ShardPlan(spec, options, shard_count);
}

std::string ValidSpecJson() { return ValidPlan().shards()[0].ToJson(); }

std::string ValidResultJson() { return RunShard(ValidPlan().shards()[0]).ToJson(); }

// Replaces the first occurrence of `from` (which must exist) with `to`.
std::string Replaced(const std::string& text, const std::string& from,
                     const std::string& to) {
  const size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << "pattern not in document: " << from;
  std::string out = text;
  out.replace(at, from.size(), to);
  return out;
}

// Since protocol version 2 every document travels in a checksummed envelope,
// so probing body-schema errors takes envelope surgery: unwrap the verified
// body, mutate it textually, and re-wrap with a freshly computed (valid)
// envelope — otherwise every mutation would just trip the checksum.
std::string Body(const std::string& document) {
  return std::string(
      json::OpenChecksummedDocument(document, "shard_version", "test").body);
}

std::string Rewrapped(const std::string& body) {
  return json::WrapChecksummedBody("shard_version", kShardProtocolVersion, body);
}

std::string Doctored(const std::string& document, const std::string& from,
                     const std::string& to) {
  return Rewrapped(Replaced(Body(document), from, to));
}

// A faithful version-1 document: flat (no envelope), shard_version inside
// the body, no sweep_id — what a worker before the envelope wrote.
std::string AsUnchecksummedV1(const std::string& document) {
  std::string body = Body(document);
  const size_t at = body.find(",\"sweep_id\":\"");
  EXPECT_NE(at, std::string::npos);
  const size_t value_end = body.find('"', at + 13);
  EXPECT_NE(value_end, std::string::npos);
  body.erase(at, value_end - at + 1);
  return Replaced(body, "{", "{\"shard_version\":1,");
}

// Asserts that parsing throws std::invalid_argument whose message contains
// `needle` — the "precise errors" half of the protocol contract.
template <typename Parse>
void ExpectRejects(const Parse& parse, const std::string& document,
                   const std::string& needle) {
  try {
    parse(document);
    FAIL() << "accepted a document that should be rejected (wanted: " << needle
           << ")";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(needle), std::string::npos)
        << "actual message: " << e.what();
  }
}

const auto kParseSpec = [](const std::string& text) { ShardSpec::FromJson(text); };
const auto kParseResult = [](const std::string& text) {
  ShardResult::FromJson(text);
};

TEST(ShardProtocolTest, SpecRejectsMalformedAndTruncatedInput) {
  const std::string valid = ValidSpecJson();
  // Anything that is not a checksummed envelope is refused before parsing.
  ExpectRejects(kParseSpec, "", "not a checksummed document");
  ExpectRejects(kParseSpec, "not json at all", "not a checksummed document");
  ExpectRejects(kParseSpec, "\x01\x02\x03", "not a checksummed document");
  ExpectRejects(kParseSpec, "[1,2,3]", "not a checksummed document");
  ExpectRejects(kParseSpec, valid + "x", "not closed by '}'");
  // A verified envelope around a bad body still fails the body parse.
  ExpectRejects(kParseSpec, Rewrapped(""), "unexpected end of input");
  ExpectRejects(kParseSpec, Rewrapped("not json at all"), "expected a value");
  ExpectRejects(kParseSpec, Rewrapped("[1,2,3]"), "must be an object");
  // Truncation at any prefix must throw, not crash; probe a spread of cuts.
  for (const size_t fraction : {1u, 2u, 3u, 5u, 7u}) {
    const std::string truncated = valid.substr(0, valid.size() * fraction / 8);
    EXPECT_THROW(ShardSpec::FromJson(truncated), std::invalid_argument)
        << "cut at " << fraction << "/8";
  }
}

TEST(ShardProtocolTest, SpecRejectsProtocolVersionMismatch) {
  const std::string valid = ValidSpecJson();
  // A foreign envelope version.
  ExpectRejects(kParseSpec, Replaced(valid, "\"shard_version\":3", "\"shard_version\":4"),
                "unsupported shard_version 4 in a checksummed envelope");
  // A document outside the envelope is unverifiable and refused whatever
  // version it claims — otherwise the integrity layer would be optional
  // exactly when it matters.
  for (const int version : {1, 2, 3, 7}) {
    ExpectRejects(kParseSpec,
                  Replaced(Body(valid), "{",
                           "{\"shard_version\":" + std::to_string(version) + ","),
                  "not a checksummed document");
  }
}

TEST(ShardProtocolTest, EnvelopeDetectsCorruptionTruncationAndPadding) {
  const std::string valid = ValidResultJson();
  // One flipped byte deep in the body: the length is right, only the hash
  // can know — and the error is the retryable IntegrityError subclass,
  // naming the source document and both hashes.
  std::string flipped = valid;
  flipped[valid.size() * 2 / 3] ^= 0x20;
  try {
    ShardResult::FromJson(flipped, "unit3.result.json");
    FAIL() << "accepted a corrupted document";
  } catch (const json::IntegrityError& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("body_fnv1a mismatch"), std::string::npos) << message;
    EXPECT_NE(message.find("[unit3.result.json]"), std::string::npos) << message;
  }
  // A body_bytes that disagrees with the payload: truncation/padding tier.
  const std::string body = Body(valid);
  const std::string padded =
      Replaced(valid, "\"body_bytes\":" + std::to_string(body.size()),
               "\"body_bytes\":" + std::to_string(body.size() + 1));
  try {
    ShardResult::FromJson(padded);
    FAIL() << "accepted a length-mismatched document";
  } catch (const json::IntegrityError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated or padded"), std::string::npos)
        << e.what();
  }
  // Specs are protected the same way.
  std::string spec_flipped = ValidSpecJson();
  spec_flipped[spec_flipped.size() * 2 / 3] ^= 0x20;
  EXPECT_THROW(ShardSpec::FromJson(spec_flipped), json::IntegrityError);
  // And surgery with a recomputed envelope still parses: the checksum
  // protects transport, it is not a signature.
  EXPECT_NO_THROW(ShardResult::FromJson(Rewrapped(body)));
}

TEST(ShardProtocolTest, RejectsUnchecksummedV1Documents) {
  // A version-1 document (flat, no envelope, no sweep_id) would enter
  // unverified; specs and results alike are refused.
  ExpectRejects(kParseSpec, AsUnchecksummedV1(ValidSpecJson()),
                "not a checksummed document");
  ExpectRejects(kParseResult, AsUnchecksummedV1(ValidResultJson()),
                "not a checksummed document");
}

TEST(ShardProtocolTest, DeeplyNestedVerifiedBodyIsAnErrorNotACrash) {
  // FNV-1a is an integrity check, not authentication: a hostile sender can
  // checksum anything, so a verified body must still parse within bounds.
  const std::string deep = Rewrapped(std::string(200 * 1024, '['));
  ExpectRejects(kParseSpec, deep, "nesting deeper than");
  ExpectRejects(kParseResult, deep, "nesting deeper than");
}

TEST(ShardProtocolTest, SpecRejectsSchemaDrift) {
  const std::string valid = ValidSpecJson();
  // Missing key: drop the estimand entirely.
  ExpectRejects(kParseSpec, Doctored(valid, "\"estimand\":\"mttdl\",", ""),
                "missing key \"estimand\"");
  // Unknown key.
  ExpectRejects(kParseSpec,
                Doctored(valid, "{\"shard_index\"", "{\"zzz\":0,\"shard_index\""),
                "unknown key \"zzz\"");
  // Wrong type.
  ExpectRejects(kParseSpec, Doctored(valid, "\"adaptive\":false", "\"adaptive\":0"),
                "has the wrong type");
  // Unknown enum values.
  ExpectRejects(kParseSpec, Doctored(valid, "\"estimand\":\"mttdl\"",
                                     "\"estimand\":\"median\""),
                "unknown estimand");
  ExpectRejects(kParseSpec,
                Doctored(valid, "\"seed_mode\":\"per_cell_derived\"",
                         "\"seed_mode\":\"vibes\""),
                "unknown seed_mode");
  // Seeds must be exact hex strings (doubles cannot carry 64 bits).
  ExpectRejects(kParseSpec, Doctored(valid, "\"seed\":\"0x63\"", "\"seed\":\"63\""),
                "hex string");
  ExpectRejects(kParseSpec, Doctored(valid, "\"seed\":\"0x63\"", "\"seed\":99"),
                "wrong type");
  // Fractional trial counts.
  ExpectRejects(kParseSpec, Doctored(valid, "\"trials\":64", "\"trials\":64.5"),
                "must be an integer");
  // An invalid scenario subtree fails with the Scenario parser's error.
  ExpectRejects(kParseSpec, Doctored(valid, "\"convention\":\"physical\"",
                                     "\"convention\":\"quantum\""),
                "unknown convention");
  // Duplicate keys are ambiguous and rejected at the parse layer.
  ExpectRejects(kParseSpec,
                Doctored(valid, "\"adaptive\":false",
                         "\"adaptive\":false,\"adaptive\":false"),
                "duplicate key");
}

TEST(ShardProtocolTest, SpecRejectsBadCellGeometry) {
  const std::string valid = ValidSpecJson();
  // Duplicate cell index within one document.
  ExpectRejects(kParseSpec, Doctored(valid, "\"index\":1", "\"index\":0"),
                "duplicate cell index 0");
  // Cell index outside the grid.
  ExpectRejects(kParseSpec, Doctored(valid, "\"index\":1", "\"index\":7"),
                "outside [0, total_cells)");
  ExpectRejects(kParseSpec, Doctored(valid, "\"index\":1", "\"index\":-1"),
                "outside [0, total_cells)");
  // total_cells / shard geometry nonsense.
  ExpectRejects(kParseSpec, Doctored(valid, "\"total_cells\":2", "\"total_cells\":0"),
                "total_cells must be >= 1");
  ExpectRejects(kParseSpec, Doctored(valid, "\"shard_index\":0", "\"shard_index\":5"),
                "outside [0, shard_count)");
  ExpectRejects(kParseSpec, Doctored(valid, "\"shard_count\":1", "\"shard_count\":0"),
                "shard_count must be >= 1");
  // Coordinates that do not mirror the axis list.
  ExpectRejects(kParseSpec, Doctored(valid, "\"axis\":\"mv_hours\"", "\"axis\":\"other\""),
                "names axis \"other\"");
  ExpectRejects(kParseSpec, Doctored(valid, "\"axes\":[\"mv_hours\"]", "\"axes\":[]"),
                "coordinates for 0 axes");
}

TEST(ShardProtocolTest, ResultRejectsMalformedDocuments) {
  const std::string valid = ValidResultJson();
  ExpectRejects(kParseResult, "", "not a checksummed document");
  ExpectRejects(kParseResult, Rewrapped(""), "unexpected end of input");
  ExpectRejects(kParseResult, valid.substr(0, valid.size() / 2), "");
  ExpectRejects(kParseResult,
                Replaced(valid, "\"shard_version\":3", "\"shard_version\":4"),
                "unsupported shard_version 4");
  ExpectRejects(kParseResult, Doctored(valid, "\"index\":1", "\"index\":0"),
                "duplicate cell index 0");
  ExpectRejects(kParseResult, Doctored(valid, "\"trials\":64", "\"trials\":-4"),
                "negative trial count");
  // Accumulator state is validated too: negative sample counts can't arise
  // from any real run and would poison downstream Welford merges.
  ExpectRejects(kParseResult, Doctored(valid, "\"censored\":", "\"censored\":-1,\"x\":"),
                "unknown key \"x\"");
  ExpectRejects(
      kParseResult,
      Doctored(valid, "\"loss_years\":{\"count\":64", "\"loss_years\":{\"count\":-64"),
      "negative sample count");
}

TEST(ShardProtocolTest, ResultAcceptsNonFiniteHalfWidths) {
  // An unconverged adaptive cell can report an infinite CI half-width; the
  // emitter writes non-finite doubles as strings, and the parser must take
  // them back (emit/parse asymmetry here once made a worker produce output
  // its own protocol rejected).
  const std::string doctored =
      Doctored(ValidResultJson(), "\"half_width_history\":[]",
               "\"half_width_history\":[\"inf\",0.5,\"nan\"]");
  const ShardResult result = ShardResult::FromJson(doctored);
  ASSERT_EQ(result.cells[0].half_width_history.size(), 3u);
  EXPECT_TRUE(std::isinf(result.cells[0].half_width_history[0]));
  EXPECT_EQ(result.cells[0].half_width_history[1], 0.5);
  EXPECT_TRUE(std::isnan(result.cells[0].half_width_history[2]));
  // Round trip: re-emitting reproduces the same spellings.
  EXPECT_NE(result.ToJson().find("\"half_width_history\":[\"inf\",0.5,\"nan\"]"),
            std::string::npos);
}

TEST(ShardProtocolTest, MergerRejectsInconsistentAndIncompleteMerges) {
  // Two single-shard plans over the same sweep; doctor their headers.
  const ShardPlan plan = ValidPlan(2);
  ShardResult first = RunShard(plan.shards()[0]);
  ShardResult second = RunShard(plan.shards()[1]);

  {
    // Duplicate cell across shards: resend the first shard.
    ShardMerger merger;
    merger.Add(first);
    EXPECT_THROW(merger.Add(first), std::invalid_argument);
  }
  {
    // Estimand mismatch.
    ShardMerger merger;
    merger.Add(first);
    ShardResult wrong = second;
    wrong.estimand = SweepOptions::Estimand::kLossProbability;
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Confidence mismatch.
    ShardMerger merger;
    merger.Add(first);
    ShardResult wrong = second;
    wrong.confidence = 0.99;
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Grid-size mismatch.
    ShardMerger merger;
    merger.Add(first);
    ShardResult wrong = second;
    wrong.total_cells = 3;
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Axis-list mismatch.
    ShardMerger merger;
    merger.Add(first);
    ShardResult wrong = second;
    wrong.axis_names = {"renamed"};
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Missing cell at Finish, with the missing indices named.
    ShardMerger merger;
    merger.Add(first);
    EXPECT_FALSE(merger.complete());
    EXPECT_EQ(merger.MissingCells(), std::vector<size_t>{1});
    try {
      merger.Finish();
      FAIL() << "finished an incomplete merge";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("missing cells 1"), std::string::npos)
          << e.what();
    }
  }
  {
    // Finishing an empty merger.
    ShardMerger merger;
    EXPECT_THROW(merger.Finish(), std::invalid_argument);
  }
  {
    // The happy path still works after all that doctoring.
    ShardMerger merger;
    merger.Add(second);
    merger.Add(first);
    EXPECT_TRUE(merger.complete());
    EXPECT_EQ(merger.Finish().cells.size(), 2u);
  }
}

TEST(ShardProtocolTest, MergerNamesShardAndSourceInEveryFailure) {
  // Retry-log actionability: a supervisor reading a merge error must learn
  // *which file* from *which shard* is at fault, without a debugger.
  const ShardPlan plan = ValidPlan(2);
  const ShardResult first = RunShard(plan.shards()[0]);
  const ShardResult second = RunShard(plan.shards()[1]);
  {
    // A duplicated cell names both deliverers.
    ShardMerger merger;
    merger.Add(first, "a.result.json");
    try {
      merger.Add(first, "b.result.json");
      FAIL() << "accepted a duplicate cell";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("arrived twice"), std::string::npos) << message;
      EXPECT_NE(message.find("a.result.json"), std::string::npos) << message;
      EXPECT_NE(message.find("b.result.json"), std::string::npos) << message;
    }
  }
  {
    // Header mismatches name the offender and the first shard's source.
    ShardMerger merger;
    merger.Add(first, "a.result.json");
    ShardResult wrong = second;
    wrong.estimand = SweepOptions::Estimand::kLossProbability;
    try {
      merger.Add(wrong, "b.result.json");
      FAIL() << "accepted an estimand mismatch";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("shard 1 (b.result.json)"), std::string::npos)
          << message;
      EXPECT_NE(message.find("shard 0 (a.result.json)"), std::string::npos)
          << message;
    }
  }
  {
    // AddJson threads the source through parse errors too.
    ShardMerger merger;
    try {
      merger.AddJson("{broken", "c.result.json");
      FAIL() << "parsed garbage";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("c.result.json"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardProtocolTest, MergerUsesSweepIdentityNotShardCount) {
  const ShardPlan plan = ValidPlan(2);
  const ShardResult first = RunShard(plan.shards()[0]);
  const ShardResult second = RunShard(plan.shards()[1]);
  ASSERT_NE(first.sweep_id, 0u);
  {
    // Version-2 documents from *re-partitioned* runs (a fleet driver split
    // a failed shard) carry differing shard_counts but the same sweep_id —
    // and they merge.
    ShardMerger merger;
    merger.Add(first);
    ShardResult repartitioned = second;
    repartitioned.shard_count = 7;
    repartitioned.shard_index = 6;
    merger.Add(repartitioned);
    EXPECT_TRUE(merger.complete());
  }
  {
    // A result from a *different* sweep is refused no matter how plausible
    // its geometry looks.
    ShardMerger merger;
    merger.Add(first);
    ShardResult foreign = second;
    foreign.sweep_id ^= 1;
    try {
      merger.Add(foreign, "f.result.json");
      FAIL() << "merged a foreign sweep";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("different sweep"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ShardProtocolTest, FinishPartialKeepsTrueIndicesAndExactBytes) {
  const ShardPlan plan = ValidPlan(2);
  // Round-robin partition: shard 1 owns grid cell 1.
  ShardMerger partial;
  partial.Add(RunShard(plan.shards()[1]));
  EXPECT_FALSE(partial.complete());
  const SweepResult survivors = partial.FinishPartial();
  ASSERT_EQ(survivors.cells.size(), 1u);
  EXPECT_EQ(survivors.cells[0].index, 1u);  // the true grid index, not 0

  // Each surviving cell finalizes to exactly the bytes it has in the
  // complete merge — partiality never changes a number.
  ShardMerger complete;
  complete.Add(RunShard(plan.shards()[0]));
  complete.Add(RunShard(plan.shards()[1]));
  const SweepResult full = complete.Finish();
  ASSERT_EQ(full.cells.size(), 2u);
  EXPECT_EQ(survivors.cells[0].label, full.cells[1].label);
  EXPECT_EQ(survivors.cells[0].mttdl->mean_years(), full.cells[1].mttdl->mean_years());

  // An empty merger cannot finalize, even partially.
  ShardMerger empty;
  EXPECT_THROW(empty.FinishPartial(), std::invalid_argument);
}

TEST(ShardProtocolTest, RunShardValidatesSemanticsLikeTheRunner) {
  // Structural parsing and semantic validation are separate layers: a
  // well-formed document with an unrunnable scenario parses, then RunShard
  // rejects it with the runner's message.
  ShardSpec shard = ValidPlan().shards()[0];
  shard.cells[0].scenario.alpha = 0.0;
  const ShardSpec parsed = ShardSpec::FromJson(shard.ToJson());
  try {
    RunShard(parsed);
    FAIL() << "ran a shard with an invalid scenario";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("alpha"), std::string::npos) << e.what();
  }

  ShardSpec bad_options = ValidPlan().shards()[0];
  bad_options.options.mc.trials = 0;
  EXPECT_THROW(RunShard(bad_options), std::invalid_argument);
}

TEST(ShardProtocolTest, GoldenSweepIdentitiesArePinned) {
  // Every byte-identity check elsewhere compares two paths that would move
  // together; these pins are absolute. The identities are FNV-1a over
  // canonical JSON built with integer and IEEE arithmetic only (no libm),
  // so they hold on any conforming toolchain and are enforced everywhere.
  SweepSpec cheetah;
  SweepOptions options;
  BuildCheetahSweep(&cheetah, &options);
  const std::vector<SweepSpec::Cell> cells = cheetah.BuildCells();
  EXPECT_EQ(ComputeSweepId(cheetah.AxisNames(), options, cells),
            0xa44d68e3d2357f54ull);
  ASSERT_EQ(cells.size(), 3u);
  EXPECT_EQ(cells[0].scenario.CanonicalHash(), 0xa8010c130c4224e9ull);
  EXPECT_EQ(cells[1].scenario.CanonicalHash(), 0xe431aa7291273e0dull);
  EXPECT_EQ(cells[2].scenario.CanonicalHash(), 0x16661abd7deab6ccull);

  // A default spec has one valid cell: two default replicas.
  const std::vector<SweepSpec::Cell> defaults = SweepSpec().BuildCells();
  ASSERT_EQ(defaults.size(), 1u);
  EXPECT_EQ(defaults[0].scenario.CanonicalHash(), 0x8196feeaab4bde6bull);
  EXPECT_FALSE(defaults[0].scenario.Validate().has_value());
}

}  // namespace
}  // namespace longstore
