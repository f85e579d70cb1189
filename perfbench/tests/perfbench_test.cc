// The benchmark's own tests: its inputs are reproducible and really cold,
// its workloads have the shape the benchmark documents, and its traced
// replay answers exactly like the service it times.

#include <gtest/gtest.h>

#include <filesystem>
#include <initializer_list>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "perfbench/src/host.h"
#include "perfbench/src/ledger.h"
#include "perfbench/src/workloads.h"
#include "src/frontier/frontier.h"
#include "src/service/service_protocol.h"
#include "src/service/sweep_service.h"
#include "src/shard/shard.h"
#include "src/util/json.h"

namespace perfbench {
namespace {

using longstore::ServiceRequest;
using longstore::ServiceResponse;
using longstore::ShardSpec;

uint64_t SweepIdOf(const std::string& request_bytes) {
  return ShardSpec::FromJson(ServiceRequest::FromJson(request_bytes).sweep_document)
      .sweep_id;
}

// Records every sweep document a frontier search sends, answering from an
// in-process pool.
class RecordingBackend : public longstore::FrontierEvalBackend {
 public:
  explicit RecordingBackend(longstore::WorkerPool* pool) : pool_backend_(pool) {}
  Eval Evaluate(const std::string& sweep_document) override {
    documents.push_back(sweep_document);
    return pool_backend_.Evaluate(sweep_document);
  }
  std::vector<std::string> documents;

 private:
  longstore::PoolEvalBackend pool_backend_;
};

std::vector<std::string> SearchDocuments(uint64_t seed) {
  longstore::WorkerPool pool(kLanes);
  RecordingBackend backend(&pool);
  longstore::FrontierEvaluator evaluator(FrontierSearchOptions(seed), &backend);
  longstore::RunFrontierSearch(longstore::GoldenSmallTarget(),
                               longstore::GoldenSmallSpace(), evaluator);
  return backend.documents;
}

longstore::ServiceOptions PoolService(longstore::WorkerPool* pool) {
  longstore::ServiceOptions options;
  options.pool = pool;
  return options;
}

TEST(PerfbenchWorkloads, SameSeedGivesByteIdenticalRequests) {
  for (const Workload workload : {Workload::kMttdlFigure, Workload::kArchiveFleet}) {
    SCOPED_TRACE(WorkloadName(workload));
    EXPECT_EQ(SweepRequest(workload, QuerySeed(7, 3)),
              SweepRequest(workload, QuerySeed(7, 3)));
    EXPECT_EQ(SweepRequest(workload, WarmupSeed(7)),
              SweepRequest(workload, WarmupSeed(7)));
  }
  const std::vector<std::string> first = SearchDocuments(QuerySeed(7, 3));
  EXPECT_EQ(first, SearchDocuments(QuerySeed(7, 3)));
}

TEST(PerfbenchWorkloads, DistinctSeedsGiveDistinctSweepIds) {
  for (const Workload workload : {Workload::kMttdlFigure, Workload::kArchiveFleet}) {
    SCOPED_TRACE(WorkloadName(workload));
    std::set<uint64_t> ids;
    int requests = 0;
    for (const uint64_t workload_seed : {1, 2, 3}) {
      ids.insert(SweepIdOf(SweepRequest(workload, WarmupSeed(workload_seed))));
      ++requests;
      for (int64_t index = 0; index < 40; ++index) {
        ids.insert(SweepIdOf(SweepRequest(workload, QuerySeed(workload_seed, index))));
        ++requests;
      }
    }
    EXPECT_EQ(ids.size(), static_cast<size_t>(requests));
  }
  // Two frontier searches with different seeds share no sweep.
  std::set<uint64_t> ids;
  size_t documents = 0;
  for (const uint64_t seed : {QuerySeed(1, 0), QuerySeed(1, 1)}) {
    for (const std::string& document : SearchDocuments(seed)) {
      ids.insert(ShardSpec::FromJson(document).sweep_id);
      ++documents;
    }
  }
  EXPECT_EQ(ids.size(), documents);
}

TEST(PerfbenchWorkloads, MttdlFigureQueriesRun12000TrialsIn2RoundsPerCell) {
  longstore::WorkerPool pool(kLanes);
  longstore::SweepService service(PoolService(&pool));
  for (const uint64_t workload_seed : {1, 2}) {
    for (int64_t index = 0; index < 6; ++index) {
      SCOPED_TRACE(index);
      const ServiceResponse response = ServiceResponse::FromJson(
          service.HandleRequestBytes(
              MttdlFigureRequest(QuerySeed(workload_seed, index))));
      ASSERT_TRUE(response.ok) << response.message;
      EXPECT_EQ(response.source, "computed");
      EXPECT_EQ(response.new_trials, kMttdlTrialsPerQuery);
      const longstore::json::Value cells =
          longstore::json::Parse(response.result_json, "test");
      ASSERT_EQ(cells.array.size(), 3u);
      for (const longstore::json::Value& cell : cells.array) {
        longstore::json::ObjectReader reader(cell, "cell", "test");
        EXPECT_EQ(reader.GetInt64("rounds"), kMttdlRoundsPerCell);
        EXPECT_EQ(reader.GetInt64("trials"), kMttdlTrialsPerQuery / 3);
      }
    }
  }
}

TEST(PerfbenchWorkloads, GoldenSmallSearchShapeColdAndWarm) {
  longstore::WorkerPool pool(kLanes);
  longstore::SweepService service(PoolService(&pool));
  BytesEvalBackend backend(
      [&service](std::string_view bytes) { return service.HandleRequestBytes(bytes); },
      nullptr);
  const uint64_t seed = QuerySeed(5, 0);
  for (const bool warm : {false, true}) {
    SCOPED_TRACE(warm ? "warm" : "cold");
    longstore::FrontierEvaluator evaluator(FrontierSearchOptions(seed), &backend);
    longstore::RunFrontierSearch(longstore::GoldenSmallTarget(),
                                 longstore::GoldenSmallSpace(), evaluator);
    EXPECT_EQ(evaluator.stats().ctmc_evals, kGoldenCtmcEvals);
    EXPECT_EQ(evaluator.stats().simulated_evals, kGoldenSimulatedEvals);
    EXPECT_EQ(evaluator.stats().cache_served, warm ? kGoldenSimulatedEvals : 0);
    if (warm) {
      EXPECT_EQ(evaluator.stats().simulated_trials, 0);
    }
  }
}

TEST(PerfbenchReplay, ReplayAnswersByteIdenticallyToTheService) {
  longstore::WorkerPool pool(kLanes);
  longstore::SweepService service(PoolService(&pool));
  Ledger ledger;
  LayerCounts counts;
  ServiceReplay replay(&pool, std::nullopt, &ledger, &counts);
  const std::string request = MttdlFigureRequest(QuerySeed(9, 0));
  for (int pass = 0; pass < 2; ++pass) {  // cold, then an exact cache hit
    SCOPED_TRACE(pass);
    EXPECT_EQ(replay.Handle(request), service.HandleRequestBytes(request));
  }
  EXPECT_EQ(counts.cache_lookups, 2);
  EXPECT_EQ(counts.cache_exact_hits, 1);
  EXPECT_EQ(counts.trials, kMttdlTrialsPerQuery);
  EXPECT_EQ(counts.rounds, 3 * kMttdlRoundsPerCell);
  EXPECT_GT(counts.events, 0);

  // Spans nest as service > {shard.parse, sweep.run, sweep.finalize}, and a
  // layer's self time is its span minus its children.
  const std::map<std::string, Ledger::LayerTime> totals = ledger.Totals();
  ASSERT_EQ(totals.count("service"), 1u);
  EXPECT_EQ(totals.at("service").spans, 2);
  EXPECT_EQ(totals.at("shard.parse").spans, 2);
  EXPECT_EQ(totals.at("sweep.run").spans, 1);
  EXPECT_EQ(totals.at("sweep.finalize").spans, 1);
  EXPECT_EQ(totals.at("service").inclusive_ns - totals.at("service").self_ns,
            totals.at("shard.parse").inclusive_ns +
                totals.at("sweep.run").inclusive_ns +
                totals.at("sweep.finalize").inclusive_ns);
}

TEST(PerfbenchReplay, ArchiveFleetReplayMatchesTheFleetService) {
  // Relative to the working directory (the build directory under selftest.py).
  const std::string dir = "perfbench_test_fleet";
  ASSERT_TRUE(std::filesystem::create_directories(dir) ||
              std::filesystem::is_directory(dir));
  longstore::WorkerPool pool(kLanes);
  longstore::ServiceOptions options = PoolService(&pool);
  options.backend = longstore::ServiceOptions::Backend::kFleet;
  options.fleet = ArchiveFleetOptions(dir);
  longstore::SweepService service(options);
  Ledger ledger;
  LayerCounts counts;
  ServiceReplay replay(&pool, ArchiveFleetOptions(dir), &ledger, &counts);
  const std::string request = ArchiveFleetRequest(QuerySeed(9, 0));
  EXPECT_EQ(replay.Handle(request), service.HandleRequestBytes(request));
  EXPECT_EQ(counts.fleet_attempts, kFleetWorkers);
  EXPECT_EQ(counts.trials, kArchiveTrialsPerQuery);

  // Most trials never reach the engine: the prefilter proves them censored.
  const ShardSpec spec =
      ShardSpec::FromJson(ServiceRequest::FromJson(request).sweep_document);
  const int64_t skipped = PrefilterSkippedTrials(spec);
  EXPECT_GT(skipped, kArchiveTrialsPerQuery * 95 / 100);
  EXPECT_LT(skipped, kArchiveTrialsPerQuery);
  std::filesystem::remove_all(dir);
}

// Per-CPU deltas: the aggregate line first, then one {busy, steal} per CPU.
std::vector<CpuTimes> Deltas(std::initializer_list<std::pair<int64_t, int64_t>> cpus) {
  std::vector<CpuTimes> deltas(1);
  for (const auto& [busy, steal] : cpus) {
    deltas.push_back(CpuTimes{busy, steal, busy + steal});
  }
  return deltas;
}

TEST(PerfbenchHost, StealIsWeightedTowardTheBusyCpus) {
  EXPECT_DOUBLE_EQ(WorkStealFraction(Deltas({})), 0.0);
  EXPECT_DOUBLE_EQ(WorkStealFraction(Deltas({{30, 10}, {30, 10}})), 0.25);
  // A nearly idle vCPU that lost half its few busy jiffies to steal barely
  // moves the share of a busy one that lost none.
  EXPECT_NEAR(WorkStealFraction(Deltas({{100, 0}, {2, 2}})), 2.0 / 10004.0, 1e-12);
}

TEST(PerfbenchHost, EachQueryIsCorrectedByTheStealAroundIt) {
  const int64_t second = 1000000000;
  std::vector<TimedQuery> queries = {
      {10.0, 0 * second, Deltas({{30, 10}})},  // a burst: a quarter stolen
      {10.0, 2 * second, Deltas({{40, 0}})},   // calm
      {10.0, 2 * second + 100, Deltas({{40, 0}})},
  };
  const std::vector<double> times = StealFreeTimes(queries);
  ASSERT_EQ(times.size(), 3u);
  EXPECT_DOUBLE_EQ(times[0], 7.5);
  EXPECT_DOUBLE_EQ(times[1], 10.0);
  EXPECT_DOUBLE_EQ(times[2], 10.0);
}

TEST(PerfbenchHost, ProbeTimesTheKernelOnEveryLane) {
  longstore::WorkerPool pool(kLanes);
  const double ms = HostProbeMs(pool);
  EXPECT_GT(ms, 0.0);
  EXPECT_LT(ms, 1000.0);
}

}  // namespace
}  // namespace perfbench
