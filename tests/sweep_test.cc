// SweepSpec grid construction, SweepRunner execution and validation, the
// estimand variants, Map, and the table/CSV/JSON emitters.

#include "src/sweep/sweep.h"

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/storage/replicated_system.h"
#include "src/util/random.h"

namespace longstore {
namespace {

ReplicaSpec FastReplica() {
  return ReplicaSpec()
      .FaultTimes(Duration::Hours(1000.0), Duration::Hours(500.0))
      .RepairTimes(Duration::Hours(50.0), Duration::Hours(50.0))
      .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(100.0)));
}

Scenario FastScenario(int replicas = 2) {
  return ScenarioBuilder().Replicas(replicas, FastReplica()).Build();
}

// Axis mutations: `count` copies of replica 0; every replica audited
// exponentially with mean `hours`.
SweepSpec::ScenarioMutation ReplicaCount(int count) {
  return [count](Scenario& scenario) {
    const ReplicaSpec replica = scenario.replicas.front();
    scenario.replicas.assign(static_cast<size_t>(count), replica);
  };
}

SweepSpec::ScenarioMutation ScrubMean(double hours) {
  return [hours](Scenario& scenario) {
    for (ReplicaSpec& replica : scenario.replicas) {
      replica.scrub = ScrubPolicy::Exponential(Duration::Hours(hours));
    }
  };
}

SweepSpec TwoAxisSpec() {
  SweepSpec spec(FastScenario());
  spec.AddAxis("replicas");
  for (int r : {2, 3}) {
    spec.AddPoint("r=" + std::to_string(r), static_cast<double>(r), ReplicaCount(r));
  }
  spec.AddAxis("scrub");
  for (double h : {50.0, 100.0, 200.0}) {
    spec.AddPoint("scrub=" + std::to_string(static_cast<int>(h)), h, ScrubMean(h));
  }
  return spec;
}

TEST(SweepSpecTest, CartesianProductRowMajor) {
  const SweepSpec spec = TwoAxisSpec();
  EXPECT_EQ(spec.CellCount(), 6u);
  const auto cells = spec.BuildCells();
  ASSERT_EQ(cells.size(), 6u);
  // Last axis varies fastest.
  EXPECT_EQ(cells[0].label, "r=2, scrub=50");
  EXPECT_EQ(cells[1].label, "r=2, scrub=100");
  EXPECT_EQ(cells[3].label, "r=3, scrub=50");
  EXPECT_EQ(cells[3].scenario.replica_count(), 3);
  EXPECT_DOUBLE_EQ(cells[3].scenario.replicas[0].scrub.interval.hours(), 50.0);
  EXPECT_DOUBLE_EQ(cells[3].value("replicas"), 3.0);
  EXPECT_DOUBLE_EQ(cells[3].value("scrub"), 50.0);
  EXPECT_THROW(cells[3].value("no such axis"), std::out_of_range);
  for (size_t i = 0; i < cells.size(); ++i) {
    EXPECT_EQ(cells[i].index, i);
    EXPECT_EQ(cells[i].coordinates.size(), 2u);
  }
}

TEST(SweepSpecTest, NoAxesMeansOneBaseCell) {
  const SweepSpec spec(FastScenario());
  EXPECT_EQ(spec.CellCount(), 1u);
  const auto cells = spec.BuildCells();
  ASSERT_EQ(cells.size(), 1u);
  EXPECT_EQ(cells[0].scenario.replica_count(), 2);
  EXPECT_TRUE(cells[0].coordinates.empty());
}

TEST(SweepSpecTest, ExplicitCells) {
  SweepSpec spec;
  spec.AddCell("a", FastScenario());
  spec.AddCell("b", FastScenario(3));
  const auto cells = spec.BuildCells();
  ASSERT_EQ(cells.size(), 2u);
  EXPECT_EQ(cells[0].label, "a");
  EXPECT_EQ(cells[1].scenario.replica_count(), 3);
}

TEST(SweepSpecTest, RejectsMisuse) {
  SweepSpec with_axis;
  with_axis.AddAxis("x");
  EXPECT_THROW(with_axis.AddCell("c", FastScenario()), std::invalid_argument);
  SweepSpec with_cell;
  with_cell.AddCell("c", FastScenario());
  EXPECT_THROW(with_cell.AddAxis("x"), std::invalid_argument);
  SweepSpec no_axis;
  EXPECT_THROW(no_axis.AddPoint("p", 0.0, [](Scenario&) {}),
               std::invalid_argument);
  SweepSpec empty_axis;
  empty_axis.AddAxis("x");
  EXPECT_THROW(empty_axis.BuildCells(), std::invalid_argument);
}

TEST(SweepRunnerTest, OneCellSweepMatchesEstimateMttdlExactly) {
  McConfig mc;
  mc.trials = 600;
  mc.seed = 11;
  const MttdlEstimate direct = EstimateMttdl(FastScenario(), mc);

  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc = mc;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult sweep = SweepRunner().Run(SweepSpec(FastScenario()), options);
  ASSERT_EQ(sweep.cells.size(), 1u);
  const MttdlEstimate& cell = *sweep.cells[0].mttdl;
  EXPECT_EQ(cell.mean_years(), direct.mean_years());
  EXPECT_EQ(cell.ci_years.lo, direct.ci_years.lo);
  EXPECT_EQ(cell.ci_years.hi, direct.ci_years.hi);
  EXPECT_EQ(cell.censored_trials, direct.censored_trials);
  EXPECT_EQ(sweep.cells[0].trials, 600);
  EXPECT_EQ(sweep.cells[0].rounds, 1);
}

TEST(SweepRunnerTest, SeedModesDiffer) {
  SweepOptions shared;
  shared.mc.trials = 300;
  shared.mc.seed = 5;
  shared.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  SweepOptions derived = shared;
  derived.seed_mode = SweepOptions::SeedMode::kPerCellDerived;

  SweepSpec spec(FastScenario());
  spec.AddAxis("scrub");
  for (double h : {100.0, 100.000001}) {  // two near-identical cells
    spec.AddPoint("scrub=" + std::to_string(h), h, ScrubMean(h));
  }
  const SweepResult a = SweepRunner().Run(spec, shared);
  const SweepResult b = SweepRunner().Run(spec, derived);
  // Shared root: both cells see the same trial streams, so two nearly equal
  // configs give nearly equal estimates; derived: independent streams.
  EXPECT_NEAR(a.cells[0].mttdl->mean_years(), a.cells[1].mttdl->mean_years(),
              a.cells[0].mttdl->mean_years() * 1e-3);
  EXPECT_NE(b.cells[0].mttdl->mean_years(), b.cells[1].mttdl->mean_years());
}

TEST(SweepRunnerTest, LossProbabilityEstimand) {
  SweepSpec spec(FastScenario());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(30.0);
  options.mc.trials = 400;
  options.mc.seed = 3;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult sweep = SweepRunner().Run(spec, options);
  ASSERT_TRUE(sweep.cells[0].loss.has_value());
  EXPECT_FALSE(sweep.cells[0].mttdl.has_value());
  EXPECT_EQ(sweep.cells[0].loss->trials, 400);
  // The estimand counts exactly the losses of trials k = 0..399, each run
  // over the mission from DeriveSeed(seed, k).
  TrialRunner runner(FastScenario());
  int64_t losses = 0;
  for (uint64_t k = 0; k < 400; ++k) {
    losses += runner.Run(DeriveSeed(3, k), options.mission).loss_time.has_value();
  }
  EXPECT_EQ(sweep.cells[0].loss->losses, losses);
}

TEST(SweepRunnerTest, CensoredEstimand) {
  SweepSpec spec(FastScenario());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kCensoredMttdl;
  options.window = Duration::Years(20.0);
  options.mc.trials = 400;
  options.mc.seed = 3;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult sweep = SweepRunner().Run(spec, options);
  ASSERT_TRUE(sweep.cells[0].censored.has_value());
  EXPECT_FALSE(sweep.cells[0].mttdl.has_value());
  EXPECT_FALSE(sweep.cells[0].loss.has_value());
  const CensoredMttdlEstimate& censored = *sweep.cells[0].censored;
  EXPECT_EQ(censored.trials, 400);
  // Each trial is observed for at most the 20-year window.
  EXPECT_GT(censored.observed_years, 0.0);
  EXPECT_LE(censored.observed_years, 400 * 20.0);
}

TEST(SweepRunnerTest, ValidatesOptionsAndCells) {
  SweepOptions options;
  options.mc.trials = 0;
  EXPECT_THROW(SweepRunner().Run(SweepSpec(FastScenario()), options),
               std::invalid_argument);

  options.mc.trials = 10;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Zero();
  EXPECT_THROW(SweepRunner().Run(SweepSpec(FastScenario()), options),
               std::invalid_argument);

  SweepOptions adaptive;
  adaptive.adaptive = true;
  adaptive.estimand = SweepOptions::Estimand::kLossProbability;
  EXPECT_THROW(SweepRunner().Run(SweepSpec(FastScenario()), adaptive),
               std::invalid_argument);

  // An invalid cell anywhere in the grid fails the whole sweep up front.
  SweepSpec spec(FastScenario());
  spec.AddAxis("replicas");
  spec.AddPoint("r=2", 2.0, ReplicaCount(2));
  spec.AddPoint("r=0", 0.0, ReplicaCount(0));
  SweepOptions ok;
  ok.mc.trials = 10;
  EXPECT_THROW(SweepRunner().Run(spec, ok), std::invalid_argument);
}

TEST(SweepRunnerTest, MapPreservesCellOrder) {
  const SweepSpec spec = TwoAxisSpec();
  const std::vector<int> mapped =
      SweepRunner().Map(spec, [](const SweepSpec::Cell& cell) {
        return cell.scenario.replica_count() * 1000 +
               static_cast<int>(cell.scenario.replicas[0].scrub.interval.hours());
      });
  ASSERT_EQ(mapped.size(), 6u);
  EXPECT_EQ(mapped[0], 2050);
  EXPECT_EQ(mapped[2], 2200);
  EXPECT_EQ(mapped[3], 3050);
  EXPECT_EQ(mapped[5], 3200);
}

TEST(SweepResultTest, EmittersCoverEveryCell) {
  const SweepSpec spec = TwoAxisSpec();
  SweepOptions options;
  options.mc.trials = 64;
  options.mc.seed = 9;
  const SweepResult result = SweepRunner().Run(spec, options);

  const Table table = result.ToTable();
  EXPECT_EQ(table.row_count(), 6u);
  EXPECT_EQ(table.column_count(), 6u);  // 2 axes + 4 estimate columns

  const std::string csv = result.ToCsv();
  // Header + 6 rows.
  EXPECT_EQ(std::count(csv.begin(), csv.end(), '\n'), 7);

  const std::string json = result.ToJson();
  EXPECT_EQ(json.front(), '[');
  EXPECT_EQ(json.back(), ']');
  EXPECT_NE(json.find("\"label\":\"r=2, scrub=50\""), std::string::npos);
  EXPECT_NE(json.find("\"estimand\":\"mttdl\""), std::string::npos);
  EXPECT_NE(json.find("\"replicas\":3"), std::string::npos);
  EXPECT_NE(json.find("\"trials\":64"), std::string::npos);

  EXPECT_EQ(result.ByLabel("r=3, scrub=200").index, 5u);
  EXPECT_THROW(result.ByLabel("nope"), std::out_of_range);
}

TEST(SweepResultTest, JsonEscapesAwkwardLabels) {
  SweepSpec spec;
  spec.AddCell("tab\there \"quoted\" \x01", FastScenario());
  SweepOptions options;
  options.mc.trials = 8;
  const std::string json = SweepRunner().Run(spec, options).ToJson();
  EXPECT_NE(json.find("tab\\there \\\"quoted\\\" \\u0001"), std::string::npos);
  EXPECT_EQ(json.find('\t'), std::string::npos);
}

TEST(WorkerPoolTest, RunLanesExecutesAllLanesAndPropagatesExceptions) {
  WorkerPool pool(4);
  EXPECT_EQ(pool.size(), 4);
  std::vector<std::atomic<int>> hits(8);
  pool.RunLanes(8, [&](int lane) { hits[static_cast<size_t>(lane)]++; });
  for (const auto& hit : hits) {
    EXPECT_EQ(hit.load(), 1);
  }
  EXPECT_THROW(
      pool.RunLanes(3,
                    [](int lane) {
                      if (lane == 1) {
                        throw std::runtime_error("lane failure");
                      }
                    }),
      std::runtime_error);
  // The pool survives a throwing batch.
  std::atomic<int> after{0};
  pool.RunLanes(2, [&](int) { after++; });
  EXPECT_EQ(after.load(), 2);
}

}  // namespace
}  // namespace longstore
