// Shard protocol totality: every way a shard document can be wrong —
// malformed bytes, truncation, corruption (checksum), version mismatch,
// schema drift, duplicate or missing cells, nonsense numerics — is rejected
// with a precise std::invalid_argument, never undefined behavior. The whole
// suite also runs under the ASan/UBSan preset in CI, so "never UB" is
// enforced, not asserted.

#include <cmath>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/shard/shard.h"
#include "src/sweep/accumulator.h"
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
  // A foreign envelope version, including the retired versions 2 and 3
  // (whole cells and fragments beside each other).
  for (const int version : {2, 3, 5}) {
    ExpectRejects(kParseSpec,
                  Replaced(valid, "\"shard_version\":4",
                           "\"shard_version\":" + std::to_string(version)),
                  "unsupported shard_version " + std::to_string(version) +
                      " in a checksummed envelope");
  }
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

// total_cells is the sender's claim: it bounds the indices a document may
// use but sizes no memory. A document claiming 2^53 + 1 cells parses at the
// cost of the cells it holds, and an index at or past the claim is refused.
TEST(ShardProtocolTest, ClaimedCellCountBoundsIndicesButSizesNoMemory) {
  const std::string huge = "\"total_cells\":9007199254740993";
  const std::string spec_json = Doctored(ValidSpecJson(), "\"total_cells\":2", huge);
  const std::string result_json =
      Doctored(ValidResultJson(), "\"total_cells\":2", huge);
  EXPECT_EQ(ShardSpec::FromJson(spec_json).cells.size(), 2u);
  EXPECT_EQ(ShardResult::FromJson(result_json).cells.size(), 2u);

  const std::string past_claim = "\"index\":9007199254740992";
  ExpectRejects(kParseSpec, Doctored(spec_json, "\"index\":1", past_claim),
                "outside [0, total_cells)");
  ExpectRejects(kParseResult, Doctored(result_json, "\"index\":1", past_claim),
                "outside [0, total_cells)");
  ExpectRejects(kParseSpec, Doctored(ValidSpecJson(), "\"index\":1", "\"index\":2"),
                "outside [0, total_cells)");
  ExpectRejects(kParseResult, Doctored(ValidResultJson(), "\"index\":1", "\"index\":2"),
                "outside [0, total_cells)");
}

// The overloads that take a caller's scenario hashes or JSON give the
// computing overloads' identity and bytes. They refuse a length mismatch in
// every build, and a wrong hash or JSON fails an assertion in builds
// without NDEBUG.
TEST(ShardProtocolTest, SuppliedScenarioHashesAndJsonGiveTheSameDocument) {
  const ShardPlan plan = ValidPlan();
  const ShardSpec& shard = plan.shards()[0];
  ASSERT_EQ(shard.cells.size(), 2u);
  std::vector<uint64_t> hashes;
  std::vector<std::string> json;
  for (const SweepSpec::Cell& cell : shard.cells) {
    hashes.push_back(cell.scenario.CanonicalHash());
    json.push_back(cell.scenario.ToJson());
  }
  EXPECT_EQ(ComputeSweepId(shard.axis_names, shard.options, shard.cells, hashes),
            shard.sweep_id);
  EXPECT_EQ(shard.ToJson(json), shard.ToJson());
  std::vector<SweepSpec::Cell> cells = shard.cells;
  EXPECT_EQ(ShardPlan(shard.axis_names, shard.options, std::move(cells), 1, hashes)
                .shards()[0]
                .ToJson(),
            shard.ToJson());

  EXPECT_THROW(ComputeSweepId(shard.axis_names, shard.options, shard.cells,
                              std::span(hashes).first(1)),
               std::invalid_argument);
  EXPECT_THROW(shard.ToJson(std::span(json).first(1)), std::invalid_argument);
  std::swap(hashes[0], hashes[1]);
  std::swap(json[0], json[1]);
  EXPECT_DEBUG_DEATH(
      ComputeSweepId(shard.axis_names, shard.options, shard.cells, hashes),
      "CanonicalHash");
  EXPECT_DEBUG_DEATH(shard.ToJson(json), "ToJson");
}

TEST(ShardProtocolTest, ResultRejectsMalformedDocuments) {
  const std::string valid = ValidResultJson();
  ExpectRejects(kParseResult, "", "not a checksummed document");
  ExpectRejects(kParseResult, Rewrapped(""), "unexpected end of input");
  ExpectRejects(kParseResult, valid.substr(0, valid.size() / 2), "");
  for (const int version : {2, 3, 5}) {
    ExpectRejects(kParseResult,
                  Replaced(valid, "\"shard_version\":4",
                           "\"shard_version\":" + std::to_string(version)),
                  "unsupported shard_version " + std::to_string(version));
  }
  ExpectRejects(kParseResult, Doctored(valid, "\"index\":1", "\"index\":0"),
                "duplicate cell index 0");
  ExpectRejects(kParseResult,
                Doctored(valid, "\"trial_begin\":0", "\"trial_begin\":-4"),
                "piece [-4, 64) is empty or negative");
  ExpectRejects(kParseResult,
                Doctored(valid, "\"trial_end\":64", "\"trial_end\":0"),
                "piece [0, 0) is empty or negative");
  // Accumulator state is validated too: negative sample counts can't arise
  // from any real run and would poison downstream Welford merges.
  ExpectRejects(kParseResult, Doctored(valid, "\"censored\":", "\"censored\":-1,\"x\":"),
                "unknown key \"x\"");
  ExpectRejects(
      kParseResult,
      Doctored(valid, "\"loss_years\":{\"count\":64", "\"loss_years\":{\"count\":-64"),
      "negative sample count");
}

TEST(ShardProtocolTest, SpecRejectsBadTrialRangesAtParseTime) {
  // Hostile ranges fail in the parser with the cell named, before any
  // worker could run them.
  const std::string valid = ValidSpecJson();
  ExpectRejects(kParseSpec, Doctored(valid, "\"end\":64", "\"end\":65"),
                "cell 0 trial range [0, 65) extends past mc.trials = 64");
  ExpectRejects(kParseSpec, Doctored(valid, "\"begin\":0", "\"begin\":64"),
                "cell 0 trial range [64, 64) is empty or negative");
  ExpectRejects(kParseSpec, Doctored(valid, "\"begin\":0", "\"begin\":-1"),
                "cell 0 trial range [-1, 64) is empty or negative");
  // Every cell carries its range; there is no whole-cell default.
  ExpectRejects(kParseSpec,
                Doctored(valid, "\"range\":{\"begin\":0,\"end\":64},", ""),
                "missing key \"range\"");
}

// A one-cell kMttdl shard over trials [begin, end) of a 1000-trial sweep.
ShardSpec RangeShard(int64_t begin, int64_t end) {
  SweepSpec spec(SmallScenario());
  SweepOptions options;
  options.mc.trials = 1000;
  options.mc.seed = 99;
  ShardSpec shard = ShardPlan(spec, options, 1).shards()[0];
  shard.ranges[0] = ShardCellRange{begin, end};
  return shard;
}

TEST(ShardProtocolTest, ResultRejectsPiecesThatBreakThePrefixRule) {
  // A piece starting at trial 0 must carry exactly one (pre-folded)
  // accumulator.
  ShardResult prefix = RunShard(RangeShard(0, 512));
  ASSERT_EQ(prefix.cells[0].blocks.size(), 1u);
  prefix.cells[0].blocks.push_back(prefix.cells[0].blocks[0]);
  ExpectRejects(kParseResult, prefix.ToJson(),
                "cell 0 piece [0, 512) carries 2 accumulators; a piece starting "
                "at trial 0 carries exactly 1");
  // Any other piece carries one accumulator per aligned block.
  ShardResult tail = RunShard(RangeShard(256, 1000));
  ASSERT_EQ(tail.cells[0].blocks.size(), 3u);
  tail.cells[0].blocks.pop_back();
  ExpectRejects(kParseResult, tail.ToJson(),
                "cell 0 piece [256, 1000) carries 2 accumulators; the aligned "
                "block partition of its range has 3");
}

TEST(ShardProtocolTest, PrefixPiecesCarryOneAccumulatorAndStaySmall) {
  // A piece from trial 0 ships its blocks pre-folded, in trial order:
  // exactly one accumulator, equal to the in-process runner's fold of the
  // same trials (four blocks here, so the fold order matters).
  for (const int64_t end : {1000, 512}) {
    const ShardSpec shard = RangeShard(0, end);
    const ShardResult result = RunShard(shard);
    ASSERT_EQ(result.cells.size(), 1u);
    ASSERT_EQ(result.cells[0].blocks.size(), 1u);
    SweepOptions options = shard.options;
    options.mc.trials = end;
    const std::vector<SweepCellExecution> single =
        RunSweepCells(SweepRunner().pool(), shard.cells, options);
    std::string piece_json;
    std::string single_json;
    AppendTrialAccumulatorJson(piece_json, result.cells[0].blocks[0]);
    AppendTrialAccumulatorJson(single_json, single[0].acc);
    EXPECT_EQ(piece_json, single_json) << "[0, " << end << ")";
  }

  // So a unit of whole cells costs one accumulator per cell on the wire,
  // not one per 256-trial block: a unit of the archival loss grid (two
  // 25,000-trial cells of a 2-shard plan) stays under 4 KB.
  SweepSpec archive(ScenarioBuilder()
                        .Replicas(2, ReplicaSpec()
                                         .FaultTimes(Duration::Hours(5e7),
                                                     Duration::Hours(2e7))
                                         .RepairTimes(Duration::Hours(10.0),
                                                      Duration::Hours(10.0)))
                        .Build());
  archive.AddAxis("replicas");
  for (const int replicas : {2, 3}) {
    archive.AddPoint(std::to_string(replicas), replicas,
                     [replicas](Scenario& scenario) {
                       scenario.replicas.resize(replicas, scenario.replicas[0]);
                     });
  }
  archive.AddAxis("scrub_mean_hours");
  for (const double hours : {1e6, 2e6}) {
    archive.AddPoint(hours == 1e6 ? "1e6" : "2e6", hours, [hours](Scenario& scenario) {
      for (ReplicaSpec& replica : scenario.replicas) {
        replica.scrub = ScrubPolicy::Exponential(Duration::Hours(hours));
      }
    });
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(5.0);
  options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  options.mc.trials = 25000;
  options.mc.seed = 1;
  const ShardPlan archive_plan(archive, options, 2);
  for (const ShardSpec& unit : archive_plan.shards()) {
    ASSERT_EQ(unit.cells.size(), 2u);
    const std::string document = RunShard(unit).ToJson();
    EXPECT_LT(document.size(), 4096u) << document;
  }
}

TEST(ShardProtocolTest, MergerRejectsInconsistentAndIncompleteMerges) {
  // A two-shard plan, one cell per shard; doctor the second's header.
  const ShardPlan plan = ValidPlan(2);
  ShardResult first = RunShard(plan.shards()[0]);
  ShardResult second = RunShard(plan.shards()[1]);

  {
    // Duplicate cell across shards: resend the first shard.
    ShardMerger merger(plan.shards());
    merger.Add(first);
    EXPECT_THROW(merger.Add(first), std::invalid_argument);
  }
  {
    // Estimand mismatch.
    ShardMerger merger(plan.shards());
    merger.Add(first);
    ShardResult wrong = second;
    wrong.estimand = SweepOptions::Estimand::kLossProbability;
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Confidence mismatch.
    ShardMerger merger(plan.shards());
    merger.Add(first);
    ShardResult wrong = second;
    wrong.confidence = 0.99;
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Grid-size mismatch.
    ShardMerger merger(plan.shards());
    merger.Add(first);
    ShardResult wrong = second;
    wrong.total_cells = 3;
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Axis-list mismatch.
    ShardMerger merger(plan.shards());
    merger.Add(first);
    ShardResult wrong = second;
    wrong.axis_names = {"renamed"};
    EXPECT_THROW(merger.Add(wrong), std::invalid_argument);
  }
  {
    // Missing cell at Finish, with the missing indices named.
    ShardMerger merger(plan.shards());
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
    // Finishing a merger that received nothing.
    ShardMerger merger(plan.shards());
    EXPECT_THROW(merger.Finish(), std::invalid_argument);
  }
  {
    // The happy path still works after all that doctoring.
    ShardMerger merger(plan.shards());
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
    ShardMerger merger(plan.shards());
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
    // Header mismatches name the offender; the expected header is the
    // plan's, so a wrong result is refused even when it arrives first.
    ShardMerger merger(plan.shards());
    ShardResult wrong = second;
    wrong.estimand = SweepOptions::Estimand::kLossProbability;
    try {
      merger.Add(wrong, "b.result.json");
      FAIL() << "accepted an estimand mismatch";
    } catch (const std::invalid_argument& e) {
      const std::string message = e.what();
      EXPECT_NE(message.find("shard 1 (b.result.json)"), std::string::npos)
          << message;
      EXPECT_NE(message.find("different estimand"), std::string::npos)
          << message;
    }
  }
  {
    // AddJson threads the source through parse errors too.
    ShardMerger merger(plan.shards());
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
    // Documents from *re-partitioned* runs (a fleet driver split a failed
    // shard) carry differing shard_counts but the same sweep_id — and they
    // merge.
    ShardMerger merger(plan.shards());
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
    ShardMerger merger(plan.shards());
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
