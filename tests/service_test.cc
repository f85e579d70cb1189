// The resident sweep service's answer contract (src/service/):
//
//   * an exact cache hit returns the cold run's bytes without simulating;
//   * a near hit (same sweep, tighter precision) resumes from the stored
//     accumulators and still matches the cold run byte for byte, with fewer
//     newly simulated trials;
//   * the cache key notices *every* field — seed, trials, scenario content,
//     precision — so no request is ever answered with another sweep's bytes;
//   * corruption and schema violations become structured error responses
//     (retryable vs permanent), never exceptions or wrong figures.

#include <cmath>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/service/service_protocol.h"
#include "src/service/sweep_service.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/json.h"

namespace longstore {
namespace {

ReplicaSpec FastReplica() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(1000.0), Duration::Hours(500.0))
      .RepairTimes(Duration::Hours(50.0), Duration::Hours(50.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(100.0)));
}

Scenario FastScenario() { return ScenarioBuilder().Replicas(2, FastReplica()).Build(); }

SweepOptions FixedOptions(int64_t trials = 200, uint64_t seed = 5) {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = trials;
  options.mc.seed = seed;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  return options;
}

SweepOptions AdaptiveOptions(double precision) {
  SweepOptions options = FixedOptions(/*trials=*/100, /*seed=*/21);
  options.adaptive = true;
  options.relative_precision = precision;
  options.max_trials = 100000;
  return options;
}

// The whole-sweep (1-shard) document a client would send.
std::string Document(const SweepSpec& spec, const SweepOptions& options) {
  return ShardPlan(spec, options, /*shard_count=*/1).shards()[0].ToJson();
}

ServiceResponse Query(SweepService& service, const std::string& document) {
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = document;
  return service.Handle(request);
}

// Flips one character inside the envelope's body so the byte length still
// matches but the FNV-1a checksum cannot.
std::string CorruptBody(std::string document, const std::string& needle) {
  const size_t pos = document.find(needle);
  EXPECT_NE(pos, std::string::npos) << needle;
  document[pos + 1] = document[pos + 1] == 'x' ? 'y' : 'x';
  return document;
}

TEST(SweepServiceTest, ExactHitServesIdenticalBytesWithoutSimulation) {
  const SweepSpec spec(FastScenario());
  const SweepOptions options = FixedOptions();
  const std::string document = Document(spec, options);
  const std::string golden = SweepRunner().Run(spec, options).ToJson();

  SweepService service{ServiceOptions{}};
  const ServiceResponse cold = Query(service, document);
  ASSERT_TRUE(cold.ok) << cold.message;
  EXPECT_EQ(cold.source, "computed");
  EXPECT_EQ(cold.new_trials, options.mc.trials);
  EXPECT_EQ(cold.result_json, golden);

  const ServiceResponse warm = Query(service, document);
  ASSERT_TRUE(warm.ok) << warm.message;
  EXPECT_EQ(warm.source, "cache");
  EXPECT_EQ(warm.new_trials, 0);
  EXPECT_EQ(warm.result_json, golden);
  EXPECT_EQ(warm.sweep_id, cold.sweep_id);

  EXPECT_EQ(service.cache_stats().misses, 1);
  EXPECT_EQ(service.cache_stats().exact_hits, 1);
  EXPECT_EQ(service.cache_stats().insertions, 1);
}

TEST(SweepServiceTest, NearHitResumesByteIdenticallyWithFewerNewTrials) {
  const SweepSpec spec(FastScenario());
  const SweepOptions loose = AdaptiveOptions(/*precision=*/0.2);
  const SweepOptions tight = AdaptiveOptions(/*precision=*/0.03);
  const SweepResult tight_cold = SweepRunner().Run(spec, tight);
  const std::string tight_golden = tight_cold.ToJson();
  const int64_t tight_cold_trials = tight_cold.cells.front().trials;

  SweepService service{ServiceOptions{}};
  const ServiceResponse first = Query(service, Document(spec, loose));
  ASSERT_TRUE(first.ok) << first.message;
  EXPECT_EQ(first.source, "computed");

  const ServiceResponse resumed = Query(service, Document(spec, tight));
  ASSERT_TRUE(resumed.ok) << resumed.message;
  EXPECT_EQ(resumed.source, "resumed");
  // Byte-identical to the cold tighter run — the determinism contract.
  EXPECT_EQ(resumed.result_json, tight_golden);
  // ...while simulating only the trials past the stored run: strictly fewer
  // than the cold run, and together with the stored run exactly as many.
  EXPECT_GT(resumed.new_trials, 0);
  EXPECT_LT(resumed.new_trials, tight_cold_trials);
  EXPECT_EQ(first.new_trials + resumed.new_trials, tight_cold_trials);

  // The resumed answer was cached under its own identity: asking again is
  // an exact hit now.
  const ServiceResponse again = Query(service, Document(spec, tight));
  EXPECT_EQ(again.source, "cache");
  EXPECT_EQ(again.result_json, tight_golden);
  EXPECT_EQ(service.cache_stats().resume_hits, 1);
}

TEST(SweepServiceTest, TighterStoredRunNeverServesALooserRequest) {
  // A cold run at loose precision stops at an earlier round than the stored
  // tight run passed through — serving or resuming from the tighter entry
  // would change the loose request's bytes. It must be computed cold.
  const SweepSpec spec(FastScenario());
  SweepService service{ServiceOptions{}};
  const ServiceResponse tight =
      Query(service, Document(spec, AdaptiveOptions(0.03)));
  ASSERT_TRUE(tight.ok) << tight.message;

  const SweepOptions loose = AdaptiveOptions(0.2);
  const ServiceResponse response = Query(service, Document(spec, loose));
  ASSERT_TRUE(response.ok) << response.message;
  EXPECT_EQ(response.source, "computed");
  EXPECT_EQ(response.result_json, SweepRunner().Run(spec, loose).ToJson());
}

TEST(SweepServiceTest, CacheKeyNoticesEveryFieldOfTheRequest) {
  const SweepSpec spec(FastScenario());
  SweepService service{ServiceOptions{}};
  const ServiceResponse base = Query(service, Document(spec, FixedOptions()));
  ASSERT_TRUE(base.ok) << base.message;

  // Different seed: different trial streams, must be computed.
  const ServiceResponse seed =
      Query(service, Document(spec, FixedOptions(/*trials=*/200, /*seed=*/6)));
  EXPECT_EQ(seed.source, "computed");
  EXPECT_NE(seed.sweep_id, base.sweep_id);

  // Different trial count.
  const ServiceResponse trials =
      Query(service, Document(spec, FixedOptions(/*trials=*/201)));
  EXPECT_EQ(trials.source, "computed");
  EXPECT_NE(trials.sweep_id, base.sweep_id);

  // Different scenario content (one field of one replica's config).
  const Scenario nudged =
      ScenarioBuilder()
          .Replicas(2, FastReplica().FaultTimes(Duration::Hours(1001.0),
                                                Duration::Hours(500.0)))
          .Build();
  const ServiceResponse scenario =
      Query(service, Document(SweepSpec(nudged), FixedOptions()));
  EXPECT_EQ(scenario.source, "computed");
  EXPECT_NE(scenario.sweep_id, base.sweep_id);

  // The original is still served from cache — the variants did not alias it.
  EXPECT_EQ(Query(service, Document(spec, FixedOptions())).source, "cache");
}

TEST(SweepServiceTest, CorruptedRequestEnvelopeIsARetryableError) {
  const std::string document = Document(SweepSpec(FastScenario()), FixedOptions());
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = document;

  SweepService service{ServiceOptions{}};
  const std::string corrupted = CorruptBody(request.ToJson(), "\"request\"");
  const ServiceResponse response =
      ServiceResponse::FromJson(service.HandleRequestBytes(corrupted));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.retryable) << response.message;
  EXPECT_EQ(service.cache_stats().insertions, 0);
}

TEST(SweepServiceTest, CorruptedEmbeddedSweepDocumentIsARetryableError) {
  // The outer frame verifies, but the embedded shard document was corrupted
  // before the client enveloped it: the service must surface the inner
  // integrity failure as retryable, not execute a half-trusted sweep.
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document =
      CorruptBody(Document(SweepSpec(FastScenario()), FixedOptions()), "mission");

  SweepService service{ServiceOptions{}};
  const ServiceResponse response =
      ServiceResponse::FromJson(service.HandleRequestBytes(request.ToJson()));
  EXPECT_FALSE(response.ok);
  EXPECT_TRUE(response.retryable) << response.message;
}

TEST(SweepServiceTest, GarbageAndSchemaViolationsArePermanentErrors) {
  SweepService service{ServiceOptions{}};
  const ServiceResponse garbage =
      ServiceResponse::FromJson(service.HandleRequestBytes("not json at all"));
  EXPECT_FALSE(garbage.ok);
  EXPECT_FALSE(garbage.retryable);

  // A structurally valid request whose document is a partial shard: the
  // service answers whole sweeps only.
  const SweepSpec spec(FastScenario());
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document =
      ShardPlan(spec, FixedOptions(), /*shard_count=*/2).shards()[0].ToJson();
  const ServiceResponse partial = service.Handle(request);
  EXPECT_FALSE(partial.ok);
  EXPECT_FALSE(partial.retryable);
  EXPECT_NE(partial.message.find("shard"), std::string::npos);
}

TEST(SweepServiceTest, RequestsWhoseCellsAreNotWholeAreRejected) {
  // A sweep request runs every cell over [0, mc.trials): a trial range
  // would compute — and cache under the whole sweep's identity — a
  // different answer.
  SweepService service{ServiceOptions{}};
  for (const ShardCellRange range : {ShardCellRange{0, 100}, ShardCellRange{100, 200}}) {
    ShardSpec spec = ShardSpec::FromJson(
        Document(SweepSpec(FastScenario()), FixedOptions()));
    spec.ranges[0] = range;
    const ServiceResponse response = Query(service, spec.ToJson());
    EXPECT_FALSE(response.ok);
    EXPECT_FALSE(response.retryable);
    EXPECT_NE(response.message.find("runs every cell whole"), std::string::npos)
        << response.message;
  }
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(SweepServiceTest, DeeplyNestedFramesAreErrorsNotCrashes) {
  SweepService service{ServiceOptions{}};
  const std::string deep(200 * 1024, '[');
  // A correctly checksummed request frame whose body nests without bound.
  const ServiceResponse frame = ServiceResponse::FromJson(service.HandleRequestBytes(
      json::WrapChecksummedBody(kServiceVersionKey, kServiceProtocolVersion, deep)));
  EXPECT_FALSE(frame.ok);
  EXPECT_FALSE(frame.retryable);
  EXPECT_NE(frame.message.find("nesting deeper than"), std::string::npos)
      << frame.message;

  // A valid request carrying a checksummed sweep document that does.
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document =
      json::WrapChecksummedBody("shard_version", kShardProtocolVersion, deep);
  const ServiceResponse embedded =
      ServiceResponse::FromJson(service.HandleRequestBytes(request.ToJson()));
  EXPECT_FALSE(embedded.ok);
  EXPECT_FALSE(embedded.retryable);
  EXPECT_NE(embedded.message.find("nesting deeper than"), std::string::npos)
      << embedded.message;
}

TEST(SweepServiceTest, BadMonteCarloOptionsAreRejectedBeforeAnyTrial) {
  // A document can carry any max_trial_time and confidence; each bad value
  // is a permanent error that names the field, and nothing is computed.
  SweepService service{ServiceOptions{}};
  const auto reject = [&](const std::function<void(SweepOptions&)>& mutate,
                          const std::string& field) {
    ShardSpec spec = ShardSpec::FromJson(
        Document(SweepSpec(FastScenario()), FixedOptions()));
    mutate(spec.options);
    ServiceRequest request;
    request.kind = ServiceRequest::Kind::kSweep;
    request.sweep_document = spec.ToJson();
    const ServiceResponse response =
        ServiceResponse::FromJson(service.HandleRequestBytes(request.ToJson()));
    EXPECT_FALSE(response.ok) << field;
    EXPECT_FALSE(response.retryable) << response.message;
    EXPECT_NE(response.message.find(field), std::string::npos) << response.message;
  };
  reject([](SweepOptions& o) { o.mc.max_trial_time = Duration::Infinite(); },
         "max_trial_time must be positive finite");
  reject([](SweepOptions& o) { o.mc.max_trial_time = Duration::Hours(-1.0); },
         "max_trial_time must be positive finite");
  reject([](SweepOptions& o) { o.mc.confidence = std::nan(""); },
         "confidence must lie in (0, 1)");
  EXPECT_EQ(service.cache_stats().insertions, 0);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(SweepServiceTest, NanCommonModeProbabilitiesAreRejected) {
  // A scenario whose common-mode probability is NaN is a permanent error
  // that names the field, and nothing is computed or cached.
  const Scenario scenario = ScenarioBuilder()
                                .Replicas(2, FastReplica())
                                .CommonModeAll("site", Rate::PerYear(1.0))
                                .Build();
  SweepService service{ServiceOptions{}};
  const auto reject = [&](const std::function<void(CommonModeSource&)>& mutate,
                          const std::string& field) {
    ShardSpec spec =
        ShardSpec::FromJson(Document(SweepSpec(scenario), FixedOptions()));
    mutate(spec.cells[0].scenario.common_mode[0]);
    ServiceRequest request;
    request.kind = ServiceRequest::Kind::kSweep;
    request.sweep_document = spec.ToJson();
    const ServiceResponse response =
        ServiceResponse::FromJson(service.HandleRequestBytes(request.ToJson()));
    EXPECT_FALSE(response.ok) << field;
    EXPECT_FALSE(response.retryable) << response.message;
    EXPECT_NE(response.message.find(field), std::string::npos) << response.message;
  };
  reject([](CommonModeSource& s) { s.hit_probability = std::nan(""); },
         "'site' hit_probability must lie in [0, 1]");
  reject([](CommonModeSource& s) { s.visible_fraction = std::nan(""); },
         "'site' visible_fraction must lie in [0, 1]");
  EXPECT_EQ(service.cache_stats().insertions, 0);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(SweepServiceTest, PaperConventionScenarioIsRejected) {
  // The simulator runs the physical rate convention only. A well-sealed
  // document whose scenario asks for the paper's convention is a permanent
  // error that points to the exact chain, and nothing is computed or cached.
  const std::string document = Document(SweepSpec(FastScenario()), FixedOptions());
  std::string body(
      json::OpenChecksummedDocument(document, "shard_version", "test").body);
  const std::string physical = "\"convention\":\"physical\"";
  const size_t at = body.find(physical);
  ASSERT_NE(at, std::string::npos);
  body.replace(at, physical.size(), "\"convention\":\"paper\"");
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document =
      json::WrapChecksummedBody("shard_version", kShardProtocolVersion, body);

  SweepService service{ServiceOptions{}};
  const ServiceResponse response =
      ServiceResponse::FromJson(service.HandleRequestBytes(request.ToJson()));
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.retryable) << response.message;
  EXPECT_NE(response.message.find("exact chain"), std::string::npos)
      << response.message;
  EXPECT_EQ(service.cache_stats().insertions, 0);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(SweepServiceTest, ClaimedCellCountIsCheckedNotAllocated) {
  // total_cells is the client's claim. A one-cell document claiming 2^53 + 1
  // cells must meet the service's count check, not an allocation sized by
  // the claim, and nothing is cached.
  ShardSpec spec = ShardSpec::FromJson(
      Document(SweepSpec(FastScenario()), FixedOptions()));
  spec.total_cells = (size_t{1} << 53) + 1;
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = spec.ToJson();

  SweepService service{ServiceOptions{}};
  const ServiceResponse response =
      ServiceResponse::FromJson(service.HandleRequestBytes(request.ToJson()));
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.retryable);
  EXPECT_NE(response.message.find("total_cells"), std::string::npos)
      << response.message;
  EXPECT_EQ(service.cache_stats().insertions, 0);
  EXPECT_EQ(service.cache_size(), 0u);
}

TEST(SweepServiceTest, StaleSweepIdIsRejected) {
  // A document whose stamped sweep_id no longer matches its own content
  // (mutated after planning, then re-serialized) must be refused: trusting
  // either the stale id or the new content would mis-key the cache.
  ShardSpec spec = ShardSpec::FromJson(
      Document(SweepSpec(FastScenario()), FixedOptions()));
  spec.options.mc.seed = 999;  // content changes, stamped sweep_id does not
  ServiceRequest request;
  request.kind = ServiceRequest::Kind::kSweep;
  request.sweep_document = spec.ToJson();

  SweepService service{ServiceOptions{}};
  const ServiceResponse response = service.Handle(request);
  EXPECT_FALSE(response.ok);
  EXPECT_FALSE(response.retryable);
  EXPECT_NE(response.message.find("sweep_id"), std::string::npos);
}

TEST(SweepServiceTest, LruEvictionKeepsTheCacheBounded) {
  ServiceOptions options;
  options.cache_capacity = 1;
  SweepService service(options);
  const SweepSpec spec(FastScenario());

  const std::string first = Document(spec, FixedOptions(/*trials=*/50));
  const std::string second =
      Document(spec, FixedOptions(/*trials=*/50, /*seed=*/6));
  ASSERT_TRUE(Query(service, first).ok);
  ASSERT_TRUE(Query(service, second).ok);  // evicts `first`
  EXPECT_EQ(service.cache_size(), 1u);
  EXPECT_EQ(service.cache_stats().evictions, 1);
  EXPECT_EQ(Query(service, first).source, "computed");
}

TEST(SweepServiceTest, PingAndStatsAnswerWithoutSimulation) {
  SweepService service{ServiceOptions{}};
  ServiceRequest ping;
  ping.kind = ServiceRequest::Kind::kPing;
  const ServiceResponse pong = service.Handle(ping);
  EXPECT_TRUE(pong.ok);
  EXPECT_EQ(pong.source, "pong");

  ServiceRequest stats;
  stats.kind = ServiceRequest::Kind::kStats;
  const ServiceResponse counters = service.Handle(stats);
  EXPECT_TRUE(counters.ok);
  EXPECT_EQ(counters.source, "stats");
  EXPECT_NE(counters.result_json.find("\"exact_hits\":0"), std::string::npos);
}

TEST(SweepServiceTest, ResponsesSurviveTheWireRoundTrip) {
  ServiceResponse response;
  response.ok = true;
  response.source = "resumed";
  response.sweep_id = 0xdeadbeefcafef00dull;
  response.new_trials = 12345;
  response.result_json = "[{\"label\":\"a \\\"quoted\\\" cell\"}]";
  const ServiceResponse parsed = ServiceResponse::FromJson(response.ToJson());
  EXPECT_EQ(parsed.ok, response.ok);
  EXPECT_EQ(parsed.source, response.source);
  EXPECT_EQ(parsed.sweep_id, response.sweep_id);
  EXPECT_EQ(parsed.new_trials, response.new_trials);
  EXPECT_EQ(parsed.result_json, response.result_json);
}

}  // namespace
}  // namespace longstore
