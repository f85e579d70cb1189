// End-to-end shard determinism through the real worker binary: the pinned
// §5.4 Cheetah golden sweep (the same spec tests/paper_figures_test.cc
// pins) is run single-process and as K separate sweep_worker processes for
// K in {1, 2, 3}; the merged CSV and JSON output must be byte-for-byte
// identical to the single-process run, for every shard count and with the
// worker outputs merged in non-arrival order.
//
// Unlike the exact golden *values* (toolchain-pinned, skippable via
// LONGSTORE_SKIP_EXACT_GOLDENS), byte-identity of two runs of the same
// build holds on any toolchain, so these tests never skip.
//
// LONGSTORE_SWEEP_WORKER is injected by CMake as the built binary's path.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/fleet/subprocess.h"
#include "src/model/fault_params.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"

namespace longstore {
namespace {

// Matches tests/paper_figures_test.cc (and the scenarios of
// tools/figure_sweeps.h's Cheetah sweep) for the §5.4 table.
Scenario CheetahScenario(const FaultParams& p) {
  return ScenarioBuilder().Replicas(2, SpecFromParams(p)).Correlation(p.alpha).Build();
}

SweepSpec CheetahSpec() {
  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed =
      ApplyScrubPolicy(unscrubbed, ScrubPolicy::PeriodicPerYear(3.0));
  const FaultParams correlated = WithCorrelation(scrubbed, 0.1);
  SweepSpec spec;
  spec.AddCell("unscrubbed", CheetahScenario(unscrubbed));
  spec.AddCell("scrub 3x/year", CheetahScenario(scrubbed));
  spec.AddCell("scrub 3x/year, alpha=0.1", CheetahScenario(correlated));
  return spec;
}

SweepOptions CheetahOptions() {
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 2000;
  options.mc.seed = 0x5ca1ab1e;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;
  return options;
}

void WriteFile(const std::string& path, const std::string& text) {
  std::ofstream out(path, std::ios::binary);
  ASSERT_TRUE(out.good()) << path;
  out << text;
}

// Runs the built sweep_worker with `args` to its exit; its result document
// is the captured stdout, and its stderr stays the test's.
Subprocess RunWorker(std::vector<std::string> args) {
  args.insert(args.begin(), LONGSTORE_SWEEP_WORKER);
  Subprocess worker = Subprocess::Spawn(args, "");
  worker.Await();
  return worker;
}

// The largest Threads: count in /proc/<pid>/status of `worker`, sampled
// about every millisecond for `seconds` or until it exits.
int PeakThreads(Subprocess& worker, double seconds) {
  const auto end = std::chrono::steady_clock::now() +
                   std::chrono::duration<double>(seconds);
  int peak = 0;
  while (std::chrono::steady_clock::now() < end && !worker.Poll()) {
    std::ifstream status("/proc/" + std::to_string(worker.pid()) + "/status");
    for (std::string line; std::getline(status, line);) {
      if (line.rfind("Threads:", 0) == 0) {
        peak = std::max(peak, std::stoi(line.substr(8)));
      }
    }
    Subprocess::WaitAny({&worker}, 0.001);
  }
  return peak;
}

TEST(ShardE2eTest, GoldenSweepShardedThroughWorkerProcessesIsByteIdentical) {
  const SweepSpec spec = CheetahSpec();
  const SweepOptions options = CheetahOptions();
  const SweepResult single = SweepRunner().Run(spec, options);
  const std::string golden_csv = single.ToCsv();
  const std::string golden_json = single.ToJson();

  const std::string dir = testing::TempDir();
  for (int shard_count = 1; shard_count <= 3; ++shard_count) {
    const ShardPlan plan(spec, options, shard_count);
    ASSERT_EQ(plan.shards().size(), static_cast<size_t>(shard_count));

    std::vector<std::string> result_jsons;
    for (const ShardSpec& shard : plan.shards()) {
      const std::string tag =
          "longstore_e2e_k" + std::to_string(shard_count) + "_s" +
          std::to_string(shard.shard_index);
      const std::string shard_path = dir + tag + ".shard.json";
      WriteFile(shard_path, shard.ToJson());
      const Subprocess worker = RunWorker({"--shard=" + shard_path});
      ASSERT_TRUE(worker.exited_cleanly())
          << "worker failed for shard " << shard.shard_index << " of "
          << shard_count << ": " << worker.DescribeExit();
      result_jsons.push_back(worker.output());
      std::remove(shard_path.c_str());
    }

    // Merge in reverse arrival order: the merger must not care.
    ShardMerger merger(plan.shards());
    for (size_t i = result_jsons.size(); i-- > 0;) {
      merger.AddJson(result_jsons[i]);
    }
    ASSERT_TRUE(merger.complete());
    const SweepResult merged = merger.Finish();

    EXPECT_EQ(merged.ToCsv(), golden_csv) << shard_count << " shards";
    EXPECT_EQ(merged.ToJson(), golden_json) << shard_count << " shards";
  }
}

TEST(ShardE2eTest, WorkerRejectsMalformedShardWithNonZeroExit) {
  const std::string dir = testing::TempDir();
  const std::string shard_path = dir + "longstore_e2e_malformed.shard.json";
  WriteFile(shard_path, "{\"shard_version\":99,");
  const Subprocess worker = RunWorker({"--shard=" + shard_path});
  EXPECT_EQ(worker.DescribeExit(), "exit status 1");
  EXPECT_TRUE(worker.output().empty());
  std::remove(shard_path.c_str());
}

TEST(ShardE2eTest, WorkerPoolSizeDoesNotChangeOutputBytes) {
  // --threads sizes the worker pool; the shard document promises that never
  // changes results. Run the same one-shard plan at 1 and 4 threads.
  const SweepSpec spec = CheetahSpec();
  SweepOptions options = CheetahOptions();
  options.mc.trials = 500;  // cheaper: this test is about lanes, not values
  const ShardPlan plan(spec, options, 1);

  const std::string dir = testing::TempDir();
  const std::string shard_path = dir + "longstore_e2e_threads.shard.json";
  WriteFile(shard_path, plan.shards()[0].ToJson());

  std::vector<std::string> outputs;
  for (const char* threads : {"1", "4"}) {
    const Subprocess worker = RunWorker(
        {"--shard=" + shard_path, std::string("--threads=") + threads});
    ASSERT_TRUE(worker.exited_cleanly()) << worker.DescribeExit();
    outputs.push_back(worker.output());
  }
  std::remove(shard_path.c_str());
  EXPECT_EQ(outputs[0], outputs[1]);
}

TEST(ShardE2eTest, WorkerPoolHasTheThreadsAsked) {
  // --threads sizes the worker's pool: at 1 the worker computes on its main
  // thread and one pool thread, whatever the machine's core count; at 0 it
  // runs one pool thread per core. Each run is sampled for a second of a
  // shard that takes longer on one lane, then killed.
  const SweepSpec spec = CheetahSpec();
  SweepOptions options = CheetahOptions();
  options.mc.trials = 100000;
  const ShardPlan plan(spec, options, 1);
  const std::string shard_path =
      testing::TempDir() + "longstore_e2e_pool_threads.shard.json";
  WriteFile(shard_path, plan.shards()[0].ToJson());

  const unsigned cores = std::thread::hardware_concurrency();
  const int every_core = 1 + (cores == 0 ? 1 : static_cast<int>(cores));
  for (const auto& [flag, expected] :
       {std::pair{"--threads=1", 2}, std::pair{"--threads=0", every_core}}) {
    Subprocess worker = Subprocess::Spawn(
        {LONGSTORE_SWEEP_WORKER, "--shard=" + shard_path, flag}, "");
    EXPECT_EQ(PeakThreads(worker, 1.0), expected) << flag;
    worker.Kill();
    worker.Await();
  }
  std::remove(shard_path.c_str());
}

}  // namespace
}  // namespace longstore
