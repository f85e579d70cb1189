// The frontier's determinism contract and its agreement with the exact
// model. The byte-identity tests run the same search under different thread
// counts, evaluation backends, and space enumeration orders and demand the
// canonical JSON match to the byte — this is the contract the CI
// frontier-smoke job re-checks against a real resident daemon.

#include "src/frontier/frontier.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/frontier/eval_backend.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/service/sweep_service.h"
#include "src/shard/shard.h"
#include "src/sweep/worker_pool.h"
#include "src/util/json.h"
#include "tools/figure_sweeps.h"

namespace longstore {
namespace {

// A fast search: two media, mixed fleets, one audit cadence. Small trial
// counts keep the whole file in unit-test time; determinism does not depend
// on trial volume.
FrontierSpace FastSpace() {
  FrontierSpace space;
  space.media = {SeagateBarracuda200Gb(), Lto3TapeCartridge()};
  space.replica_choices = {2, 3};
  space.audit_choices = {12.0};
  space.deployment_choices = {DeploymentStyle::kFullyDiverse};
  space.mixed_media = true;
  return space;
}

FrontierTarget FastTarget() {
  FrontierTarget target;
  target.mission = Duration::Years(50.0);
  target.target_loss_probability = 1e-4;
  return target;
}

FrontierOptions FastOptions() {
  FrontierOptions options;
  options.trials = 300;
  options.seed = 7;
  return options;
}

std::string SearchJson(const FrontierTarget& target, const FrontierSpace& space,
                       const FrontierOptions& options,
                       FrontierEvalBackend* backend) {
  FrontierEvaluator evaluator(options, backend);
  return RunFrontierSearch(target, space, evaluator).ToJson();
}

TEST(FrontierTest, ByteIdenticalAcrossThreadCounts) {
  WorkerPool one(1);
  WorkerPool four(4);
  PoolEvalBackend backend_one(&one);
  PoolEvalBackend backend_four(&four);
  const std::string a =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &backend_one);
  const std::string b =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &backend_four);
  EXPECT_EQ(a, b);
}

TEST(FrontierTest, ByteIdenticalAcrossPoolAndServiceBackends) {
  PoolEvalBackend pool_backend;
  SweepService service{ServiceOptions{}};
  ServiceEvalBackend service_backend(service);
  const std::string a =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &pool_backend);
  const std::string b =
      SearchJson(FastTarget(), FastSpace(), FastOptions(), &service_backend);
  EXPECT_EQ(a, b);

  // A repeated search against the same service answers from its result
  // cache — and still cannot move a byte.
  FrontierEvaluator cached(FastOptions(), &service_backend);
  const FrontierResult again =
      RunFrontierSearch(FastTarget(), FastSpace(), cached);
  EXPECT_EQ(again.ToJson(), b);
  EXPECT_GT(cached.stats().cache_served, 0);
  EXPECT_EQ(cached.stats().simulated_trials, 0);
}

// Both backends run one request check: a document the service refuses —
// a cell naming a partial trial range, a stale sweep_id, a cell dropped
// while total_cells still counts it — is an error on the pool backend too,
// never a computed answer.
TEST(FrontierTest, BothBackendsRefuseDocumentsTheServiceRefuses) {
  SweepSpec spec;
  SweepOptions options;
  BuildCheetahSweep(&spec, &options);
  const ShardSpec whole = ShardPlan(spec, options, /*shard_count=*/1).shards()[0];
  ShardSpec partial_range = whole;
  partial_range.ranges[0] = ShardCellRange{0, 512};
  ShardSpec stale_id = whole;
  stale_id.sweep_id ^= 1;
  ShardSpec dropped_cell = whole;
  dropped_cell.cells.pop_back();
  dropped_cell.ranges.pop_back();

  PoolEvalBackend pool_backend;
  SweepService service{ServiceOptions{}};
  ServiceEvalBackend service_backend(service);
  for (const ShardSpec* document : {&partial_range, &stale_id, &dropped_cell}) {
    const std::string bytes = document->ToJson();
    EXPECT_THROW(pool_backend.Evaluate(bytes), std::invalid_argument);
    EXPECT_THROW(service_backend.Evaluate(bytes), std::runtime_error);
  }
  EXPECT_EQ(service.cache_size(), 0u);
}

// Forwards to the pool backend and keeps every sweep document it was sent.
class RecordingBackend : public FrontierEvalBackend {
 public:
  explicit RecordingBackend(WorkerPool* pool) : inner_(pool) {}
  Eval Evaluate(const std::string& sweep_document) override {
    documents.push_back(sweep_document);
    return inner_.Evaluate(sweep_document);
  }
  std::vector<std::string> documents;

 private:
  PoolEvalBackend inner_;
};

// The search hashes and serializes each scenario once and builds its sweep
// documents from those; every document must be the one a ShardPlan over a
// one-cell SweepSpec builds, hashing and serializing the scenario itself.
TEST(FrontierTest, SweepDocumentsAreShardPlanDocuments) {
  WorkerPool pool(2);
  RecordingBackend backend(&pool);
  FrontierEvaluator evaluator(GoldenSmallOptions(), &backend);
  RunFrontierSearch(GoldenSmallTarget(), GoldenSmallSpace(), evaluator);
  ASSERT_GT(evaluator.stats().simulated_evals, 0);
  ASSERT_EQ(backend.documents.size(),
            static_cast<size_t>(evaluator.stats().simulated_evals));
  for (const std::string& document : backend.documents) {
    const ShardSpec shard = ShardSpec::FromJson(document);
    ASSERT_EQ(shard.cells.size(), 1u);
    SweepSpec spec;
    spec.AddCell(shard.cells[0].label, shard.cells[0].scenario);
    EXPECT_EQ(ShardPlan(spec, shard.options, /*shard_count=*/1).shards()[0].ToJson(),
              document);
    const uint64_t hashes[] = {shard.cells[0].scenario.CanonicalHash()};
    EXPECT_EQ(ComputeSweepId(shard.axis_names, shard.options, shard.cells, hashes),
              ComputeSweepId(shard.axis_names, shard.options, shard.cells));
  }
}

TEST(FrontierTest, ByteIdenticalAcrossEnumerationOrder) {
  PoolEvalBackend backend;
  FrontierSpace forward = FastSpace();
  FrontierSpace reversed = FastSpace();
  std::reverse(reversed.media.begin(), reversed.media.end());
  std::reverse(reversed.replica_choices.begin(), reversed.replica_choices.end());
  const std::string a =
      SearchJson(FastTarget(), forward, FastOptions(), &backend);
  const std::string b =
      SearchJson(FastTarget(), reversed, FastOptions(), &backend);
  EXPECT_EQ(a, b);
}

TEST(FrontierTest, ForcedSimulationAgreesWithExactCtmcWithinCi) {
  // One CTMC-compatible candidate, force-simulated: the importance-sampled
  // estimate's CI must cover the exact chain's loss probability.
  FrontierSpace space = FastSpace();
  space.media = {SeagateBarracuda200Gb()};
  space.replica_choices = {2};
  space.mixed_media = false;
  FrontierOptions options = FastOptions();
  options.trials = 4000;
  options.force_simulation = true;

  PoolEvalBackend backend;
  FrontierEvaluator evaluator(options, &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), space, evaluator);
  ASSERT_EQ(result.points.size(), 1u);
  const FrontierPoint& point = result.points[0];
  EXPECT_EQ(point.method, "simulated");
  EXPECT_GT(point.trials, 0);

  const auto exact = ScenarioCtmcLossProbability(
      PhaseScenario(point.candidate.phases[0], point.candidate.deployment, space),
      FastTarget().mission);
  ASSERT_TRUE(exact.has_value());
  EXPECT_LE(point.ci_lo, *exact);
  EXPECT_GE(point.ci_hi, *exact);
  // And the point estimate is in the right decade, not merely bracketed.
  EXPECT_GT(point.loss_probability, *exact * 0.3);
  EXPECT_LT(point.loss_probability, *exact * 3.0);
}

TEST(FrontierTest, CtmcScreenAndSimulationPartitionTheSearch) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), FastSpace(), evaluator);
  // 2 media x replicas {2,3} mixed: multisets of sizes 2 and 3 = 3 + 4 = 7.
  ASSERT_EQ(result.points.size(), 7u);
  int exact = 0;
  int simulated = 0;
  for (const FrontierPoint& point : result.points) {
    if (point.method == "ctmc") {
      ++exact;
      EXPECT_EQ(point.trials, 0);
      EXPECT_EQ(point.ci_lo, point.loss_probability);
      EXPECT_EQ(point.ci_hi, point.loss_probability);
    } else {
      EXPECT_EQ(point.method, "simulated");
      ++simulated;
      EXPECT_GT(point.trials, 0);
    }
  }
  // Homogeneous fleets (2 media x 2 sizes) screen exactly; mixed ones
  // simulate.
  EXPECT_EQ(exact, 4);
  EXPECT_EQ(simulated, 3);
  EXPECT_EQ(evaluator.stats().ctmc_evals, 4);
  EXPECT_EQ(evaluator.stats().simulated_evals, 3);
}

TEST(FrontierTest, PointsSortedByCostAndFrontierStrictlyImproves) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), FastSpace(), evaluator);
  double best_loss = 2.0;
  for (size_t i = 0; i < result.points.size(); ++i) {
    if (i > 0) {
      EXPECT_GE(result.points[i].annual_cost_usd,
                result.points[i - 1].annual_cost_usd);
    }
    if (result.points[i].on_frontier) {
      EXPECT_LT(result.points[i].loss_probability, best_loss);
      best_loss = result.points[i].loss_probability;
    } else {
      EXPECT_GE(result.points[i].loss_probability, best_loss);
    }
  }
  EXPECT_TRUE(result.points.front().on_frontier);
}

TEST(FrontierTest, BudgetDiscardsCandidatesBeforeEvaluation) {
  PoolEvalBackend backend;
  FrontierEvaluator unconstrained(FastOptions(), &backend);
  const FrontierResult all =
      RunFrontierSearch(FastTarget(), FastSpace(), unconstrained);
  ASSERT_GT(all.points.size(), 2u);
  const double budget = all.points[all.points.size() / 2].annual_cost_usd;

  FrontierTarget capped = FastTarget();
  capped.max_annual_cost_usd = budget;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(capped, FastSpace(), evaluator);
  EXPECT_LT(result.points.size(), all.points.size());
  EXPECT_FALSE(result.points.empty());
  for (const FrontierPoint& point : result.points) {
    EXPECT_LE(point.annual_cost_usd, budget);
  }
}

TEST(FrontierTest, MigrationSchedulesComposeAcrossPhases) {
  FrontierSpace space = FastSpace();
  space.mixed_media = false;
  space.migration_years = {10.0};
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), space, evaluator);

  int schedules = 0;
  for (const FrontierPoint& point : result.points) {
    ASSERT_FALSE(point.candidate.phases.empty());
    if (point.candidate.phases.size() == 1) {
      continue;
    }
    ++schedules;
    ASSERT_EQ(point.candidate.phases.size(), 2u);
    EXPECT_DOUBLE_EQ(point.candidate.phases[0].years, 10.0);
    EXPECT_DOUBLE_EQ(point.candidate.phases[1].years, 40.0);
    EXPECT_NE(point.candidate.phases[0].drives[0].model,
              point.candidate.phases[1].drives[0].model);
    EXPECT_EQ(point.phase_costs.size(), 2u);
    EXPECT_GE(point.loss_probability, 0.0);
    EXPECT_LE(point.loss_probability, 1.0);
    // Disk <-> tape at 10 of 50 years: the schedule's cost is between the
    // two steady states' (time-weighted average).
    const double phase0 = point.phase_costs[0].total_per_year();
    const double phase1 = point.phase_costs[1].total_per_year();
    EXPECT_NEAR(point.annual_cost_usd, 0.2 * phase0 + 0.8 * phase1,
                1e-9 * point.annual_cost_usd);
  }
  // 2 media, ordered pairs with distinct models, 2 replica counts.
  EXPECT_EQ(schedules, 4);
}

TEST(FrontierTest, EvaluatorMemoServesRepeats) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  // A deterministic periodic scrub at interval 2*MDL (the derived
  // exponential scrub's mean detection latency) is outside the CTMC's state
  // space, so the evaluator simulates it.
  const FaultParams params = DeriveParams(
      Lto3TapeCartridge(), 2, 4.0, DeploymentStyle::kFullyDiverse, FrontierSpace{});
  ReplicaSpec spec = SpecFromParams(params, Lto3TapeCartridge().model);
  spec.ScrubWith(ScrubPolicy::Periodic(Duration::Hours(2.0 * params.mdl.hours())));
  const Scenario scenario =
      ScenarioBuilder().Replicas(2, std::move(spec)).Correlation(params.alpha).Build();
  ASSERT_TRUE(CtmcIncompatibility(scenario).has_value());

  const uint64_t hash = scenario.CanonicalHash();
  const auto first =
      evaluator.EvaluateScenario(scenario, hash, scenario.ToJson(), Duration::Years(50));
  const auto second =
      evaluator.EvaluateScenario(scenario, hash, scenario.ToJson(), Duration::Years(50));
  EXPECT_EQ(first.source, "computed");
  EXPECT_EQ(second.source, "memo");
  EXPECT_EQ(second.probability, first.probability);
  EXPECT_EQ(evaluator.stats().memo_hits, 1);
  // A different mission is a different estimand — not a memo hit.
  const auto other =
      evaluator.EvaluateScenario(scenario, hash, scenario.ToJson(), Duration::Years(20));
  EXPECT_EQ(other.source, "computed");
  EXPECT_EQ(evaluator.stats().memo_hits, 1);
}

TEST(FrontierTest, ResultJsonParsesAndMirrorsThePoints) {
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  const FrontierResult result =
      RunFrontierSearch(FastTarget(), FastSpace(), evaluator);
  const json::Value root = json::Parse(result.ToJson(), "frontier json");
  ASSERT_EQ(root.kind, json::Value::Kind::kObject);
  const json::Value* points = root.Find("points");
  ASSERT_NE(points, nullptr);
  ASSERT_EQ(points->array.size(), result.points.size());
  for (size_t i = 0; i < result.points.size(); ++i) {
    const json::Value* loss = points->array[i].Find("loss_probability");
    ASSERT_NE(loss, nullptr);
    EXPECT_EQ(loss->number, result.points[i].loss_probability);
  }
}

// --- candidate realization (DeriveParams, PhaseScenario) -------------------

// Scores one homogeneous single-phase design through the search: the exact
// CTMC screen for its loss probability, the cost model for its price.
FrontierPoint ScoreDesign(const DriveSpec& drive, int replicas, double audits,
                          DeploymentStyle deployment) {
  FrontierSpace space;
  space.media = {drive};
  space.replica_choices = {replicas};
  space.audit_choices = {audits};
  space.deployment_choices = {deployment};
  PoolEvalBackend backend;
  FrontierEvaluator evaluator(FastOptions(), &backend);
  FrontierResult result = RunFrontierSearch(FastTarget(), space, evaluator);
  EXPECT_EQ(result.points.size(), 1u);
  EXPECT_EQ(result.points.at(0).method, "ctmc");
  return std::move(result.points.at(0));
}

TEST(FrontierTest, DeriveParamsUsesDeploymentAlpha) {
  const FrontierSpace space;
  const auto alpha = [&](DeploymentStyle deployment) {
    return DeriveParams(SeagateBarracuda200Gb(), 2, 12.0, deployment, space).alpha;
  };
  EXPECT_DOUBLE_EQ(alpha(DeploymentStyle::kFullyDiverse), 1.0);
  const double single = alpha(DeploymentStyle::kSingleSite);
  const double geo = alpha(DeploymentStyle::kGeoReplicatedSameAdmin);
  EXPECT_LT(single, 0.05);
  EXPECT_GT(geo, single);
  EXPECT_LT(geo, 1.0);
}

TEST(FrontierTest, DeriveParamsForTapeUsesOfflineModel) {
  const FaultParams p = DeriveParams(Lto3TapeCartridge(), 2, 4.0,
                                     DeploymentStyle::kFullyDiverse, FrontierSpace{});
  // Off-line repair pays retrieval: MRV far above any disk rebuild.
  EXPECT_GT(p.mrv.hours(), 24.0);
  EXPECT_FALSE(p.Validate().has_value());
}

TEST(FrontierTest, IndependenceAuditsAndReplicasEachLowerLoss) {
  const DriveSpec disk = SeagateBarracuda200Gb();
  const FrontierPoint base = ScoreDesign(disk, 2, 12.0, DeploymentStyle::kFullyDiverse);

  // §5.5's headline: the same hardware, differently deployed, is orders of
  // magnitude more reliable.
  const FrontierPoint single = ScoreDesign(disk, 2, 12.0, DeploymentStyle::kSingleSite);
  EXPECT_LT(base.loss_probability, single.loss_probability / 10.0);

  const FrontierPoint unaudited =
      ScoreDesign(disk, 2, 0.0, DeploymentStyle::kFullyDiverse);
  EXPECT_LT(base.loss_probability, unaudited.loss_probability / 10.0);
  EXPECT_GT(base.annual_cost_usd, unaudited.annual_cost_usd);  // audits are not free

  const FrontierPoint three = ScoreDesign(disk, 3, 12.0, DeploymentStyle::kFullyDiverse);
  EXPECT_LT(three.loss_probability, base.loss_probability);
  EXPECT_NEAR(three.annual_cost_usd / base.annual_cost_usd, 1.5, 1e-9);
}

TEST(FrontierTest, DescribeNamesFleetCadenceAndDeployment) {
  FrontierCandidate candidate;
  candidate.phases.push_back(
      FrontierPhase{50.0, {SeagateBarracuda200Gb(), SeagateBarracuda200Gb()}, 12.0});
  EXPECT_EQ(candidate.Describe(),
            "Seagate Barracuda ST3200822A x2, 12 audits/y, fully diverse");
  EXPECT_EQ(DeploymentStyleName(DeploymentStyle::kSingleSite), "single site");
}

TEST(FrontierTest, EmptyPhaseThrows) {
  EXPECT_THROW(
      PhaseScenario(FrontierPhase{}, DeploymentStyle::kFullyDiverse, FrontierSpace{}),
      std::invalid_argument);
}

}  // namespace
}  // namespace longstore
