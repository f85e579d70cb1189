// Sweep-engine throughput: one 16-cell batch on the shared worker pool vs
// 16 sequential estimator calls vs the pre-pool per-call spawn/join
// executor.
//
// The grid is deliberately heterogeneous (scrub period x correlation, so
// per-cell trial cost varies severalfold): sequential per-cell execution
// pays a join barrier and an idle-worker tail on every cell, while the
// batch interleaves all cells' trial blocks in one work list. Also verifies
// that the batch produces bit-identical estimates to the sequential calls
// (the determinism contract), so the speed comparison is apples-to-apples.

#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>
#include <vector>

#include "src/sweep/sweep.h"
#include "src/util/random.h"
#include "src/util/table.h"

namespace longstore {
namespace {

constexpr int64_t kTrialsPerCell = 20000;
constexpr uint64_t kSeed = 2024;

SweepSpec PerfGrid() {
  const ReplicaSpec replica =
      ReplicaSpec()
          .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
          .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0));
  SweepSpec spec(ScenarioBuilder().Replicas(2, replica).Build());
  spec.AddAxis("scrub");
  for (double hours : {20.0, 40.0, 80.0, 160.0}) {
    spec.AddPoint("scrub=" + Table::Fmt(hours, 0) + "h", hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.scrub = ScrubPolicy::Exponential(Duration::Hours(hours));
                    }
                  });
  }
  spec.AddAxis("alpha");
  for (double alpha : {1.0, 0.5, 0.2, 0.1}) {
    spec.AddPoint("alpha=" + Table::Fmt(alpha, 1), alpha,
                  [alpha](Scenario& scenario) { scenario.alpha = alpha; });
  }
  return spec;
}

double Seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

// The pre-sweep executor: spawn/join a fresh set of std::threads per cell,
// dynamic trial counter, per-worker partial accumulators merged in worker
// order. Reproduced here so the trajectory of the orchestration layer stays
// measurable after the original was replaced.
double LegacySpawnJoinMttdl(const Scenario& scenario, int64_t trials,
                            uint64_t seed, int threads) {
  struct Partial {
    RunningStats loss_years;
  };
  std::vector<Partial> partials(static_cast<size_t>(threads));
  std::atomic<int64_t> next{0};
  std::vector<std::thread> workers;
  workers.reserve(static_cast<size_t>(threads));
  for (int w = 0; w < threads; ++w) {
    workers.emplace_back([&, w] {
      TrialRunner runner(scenario, ConfigValidation::kPreValidated);
      Partial& partial = partials[static_cast<size_t>(w)];
      while (true) {
        const int64_t t = next.fetch_add(1, std::memory_order_relaxed);
        if (t >= trials) {
          break;
        }
        const RunOutcome outcome =
            runner.Run(DeriveSeed(seed, static_cast<uint64_t>(t)),
                       Duration::Years(100.0e6));
        if (outcome.loss_time) {
          partial.loss_years.Add(outcome.loss_time->years());
        }
      }
    });
  }
  for (std::thread& worker : workers) {
    worker.join();
  }
  RunningStats total;
  for (const Partial& partial : partials) {
    total.Merge(partial.loss_years);
  }
  return total.mean();
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("perf", "16-cell sweep batch vs sequential estimation")
                        .c_str());

  const SweepSpec spec = PerfGrid();
  const std::vector<SweepSpec::Cell> cells = spec.BuildCells();
  WorkerPool& pool = WorkerPool::Shared();
  const int threads = pool.size();
  std::printf("cells: %zu, trials/cell: %lld, workers: %d\n\n", cells.size(),
              static_cast<long long>(kTrialsPerCell), threads);

  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = kTrialsPerCell;
  options.mc.seed = kSeed;
  options.seed_mode = SweepOptions::SeedMode::kPerCellDerived;

  // Warm up the pool and the allocator before timing anything.
  {
    SweepOptions warm = options;
    warm.mc.trials = 256;
    (void)SweepRunner().Run(spec, warm);
  }

  const auto batch_start = std::chrono::steady_clock::now();
  const SweepResult batch = SweepRunner().Run(spec, options);
  const double batch_seconds = Seconds(batch_start);

  // Sequential: one pool-backed estimator call per cell (what a bench loop
  // over EstimateMttdl costs today) — same seeds, so results must match the
  // batch bit-for-bit.
  const auto sequential_start = std::chrono::steady_clock::now();
  std::vector<MttdlEstimate> sequential;
  sequential.reserve(cells.size());
  for (const SweepSpec::Cell& cell : cells) {
    // AddCell with the batch's label: same label -> same derived cell seed,
    // so the two executors run exactly the same trials.
    SweepSpec one;
    one.AddCell(cell.label, cell.scenario);
    sequential.push_back(*SweepRunner().Run(one, options).cells.front().mttdl);
  }
  const double sequential_seconds = Seconds(sequential_start);

  // Legacy: the pre-pool spawn/join executor, one call per cell.
  const auto legacy_start = std::chrono::steady_clock::now();
  std::vector<double> legacy_means;
  legacy_means.reserve(cells.size());
  for (const SweepSpec::Cell& cell : cells) {
    legacy_means.push_back(LegacySpawnJoinMttdl(cell.scenario, kTrialsPerCell,
                                                kSeed, threads));
  }
  const double legacy_seconds = Seconds(legacy_start);

  bool identical = true;
  for (size_t i = 0; i < cells.size(); ++i) {
    const MttdlEstimate& a = *batch.cells[i].mttdl;
    const MttdlEstimate& b = sequential[i];
    if (a.mean_years() != b.mean_years() ||
        a.ci_years.lo != b.ci_years.lo || a.ci_years.hi != b.ci_years.hi) {
      identical = false;
    }
  }

  Table table({"executor", "wall clock", "vs batch"});
  table.AddRow({"sweep batch (one interleaved work list)",
                Table::Fmt(batch_seconds, 3) + " s", "1.00x"});
  table.AddRow({"sequential pool-backed calls",
                Table::Fmt(sequential_seconds, 3) + " s",
                Table::Fmt(sequential_seconds / batch_seconds, 2) + "x"});
  table.AddRow({"legacy per-call spawn/join",
                Table::Fmt(legacy_seconds, 3) + " s",
                Table::Fmt(legacy_seconds / batch_seconds, 2) + "x"});
  std::printf("%s", table.Render().c_str());
  std::printf("\nbatch estimates bit-identical to sequential calls: %s\n",
              identical ? "yes" : "NO — DETERMINISM CONTRACT VIOLATED");
  return identical ? 0 : 1;
}
