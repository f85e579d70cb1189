// E12: engine microbenchmarks (google-benchmark).
//
// Measures the substrate costs that determine how far the Monte Carlo
// harness scales: clock-table throughput, end-to-end trial cost (fresh
// construction vs TrialRunner reuse), CTMC solve time (GTH elimination), and
// the matrix exponential used for mission-loss probabilities.
//
// The whole binary links against a counting global allocator so the
// steady-state arm/fire path can be asserted allocation-free; run via
// `cmake --build build --target bench` to emit BENCH_engine.json.

#include <atomic>
#include <cstdlib>
#include <new>

#include <benchmark/benchmark.h>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sim/simulator.h"
#include "src/storage/replicated_system.h"
#include "src/sweep/sweep.h"
#include "src/sweep/worker_pool.h"
#include "src/util/random.h"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new in the process bumps a counter, so
// benchmarks can measure exactly how many heap allocations a region performs.
// ---------------------------------------------------------------------------

namespace {
std::atomic<int64_t> g_alloc_count{0};

void* CountedAlloc(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

namespace {
void* CountedAlignedAlloc(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}
}  // namespace

void* operator new(std::size_t size) { return CountedAlloc(size); }
void* operator new[](std::size_t size) { return CountedAlloc(size); }
void* operator new(std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return CountedAlignedAlloc(size, align);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }

namespace longstore {
namespace {

int64_t AllocCount() { return g_alloc_count.load(std::memory_order_relaxed); }

// Drives a clock table the way a trial does: every clock starts armed, and
// each firing re-arms the fired clock a uniform 0-1000 h ahead until the
// iteration's event budget is spent, so `clocks` events stay pending
// throughout.
class ChurnClient : public SimClient {
 public:
  ChurnClient(Simulator* sim, Rng* rng) : sim_(sim), rng_(rng) {}

  // Arms every clock and sets the budget so that `events` fire in all.
  void Begin(int events) {
    const int clocks = sim_->clock_count();
    for (int clock = 0; clock < clocks; ++clock) {
      sim_->ArmAt(clock, NextTime(), 0);
    }
    rearms_left_ = events - clocks;
  }

  void OnSimEvent(uint16_t, int clock) override {
    ++fired_;
    if (rearms_left_ > 0) {
      --rearms_left_;
      sim_->ArmAt(clock, NextTime(), 0);
    }
  }
  int64_t fired() const { return fired_; }

 private:
  Duration NextTime() {
    return sim_->now() + rng_->NextUniform(Duration::Zero(), Duration::Hours(1000.0));
  }

  Simulator* sim_;
  Rng* rng_;
  int64_t rearms_left_ = 0;
  int64_t fired_ = 0;
};

constexpr int kChurnEvents = 1000;

// Steady-state arm/fire throughput on a warm (Reset-reused) engine: 1,000
// events per iteration over a table of 2 or 4 clocks, the trial-shaped
// counts (a mirrored pair; the frontier's largest designs), and 376, the
// largest table any shipped program builds (bench_independence's farm).
// Each event scans the table, so the cost per event grows with the clock
// count. NOTE: the series' scope has moved twice. The first revision
// constructed a fresh engine per iteration (kept as
// BM_EventQueueScheduleAndRunFreshEngine); before the clock table the
// argument was the size of a synthetic queue (1,000 or 100,000 events) on
// the event heap the table replaced. Compare across that boundary with the
// trial-shaped BM_MirroredTrialToLoss* series instead.
void BM_EventQueueScheduleAndRun(benchmark::State& state) {
  Rng rng(1);
  Simulator sim;
  ChurnClient client(&sim, &rng);
  sim.Attach(&client, static_cast<int>(state.range(0)));
  for (auto _ : state) {
    sim.Reset();
    client.Begin(kChurnEvents);
    sim.Run();
    benchmark::DoNotOptimize(client.fired());
  }
  state.SetItemsProcessed(state.iterations() * kChurnEvents);
}
BENCHMARK(BM_EventQueueScheduleAndRun)->Arg(2)->Arg(4)->Arg(376);

// Fresh engine per iteration — the seed benchmark's measurement scope.
// Includes construction and the clock table's allocation.
void BM_EventQueueScheduleAndRunFreshEngine(benchmark::State& state) {
  Rng rng(1);
  for (auto _ : state) {
    Simulator sim;
    ChurnClient client(&sim, &rng);
    sim.Attach(&client, static_cast<int>(state.range(0)));
    client.Begin(kChurnEvents);
    sim.Run();
    benchmark::DoNotOptimize(client.fired());
  }
  state.SetItemsProcessed(state.iterations() * kChurnEvents);
}
BENCHMARK(BM_EventQueueScheduleAndRunFreshEngine)->Arg(2)->Arg(4)->Arg(376);

// The acceptance gate for the allocation-free engine: after one warm-up
// round, a full arm/fire cycle must not touch the heap at all. A violation
// fails the benchmark run.
void BM_EventQueueSteadyStateAllocs(benchmark::State& state) {
  // Replays one fixed 4,096-event workload over a 4-clock table: the
  // warm-up pass runs it once, after which re-running it must never touch
  // the allocator again.
  constexpr int kEvents = 4096;
  Rng rng(3);
  Simulator sim;
  ChurnClient client(&sim, &rng);
  sim.Attach(&client, 4);
  client.Begin(kEvents);  // warm-up pass
  sim.Run();
  int64_t allocs = 0;
  for (auto _ : state) {
    sim.Reset();
    rng.Reseed(3);
    const int64_t before = AllocCount();
    client.Begin(kEvents);
    sim.Run();
    allocs += AllocCount() - before;
  }
  state.SetItemsProcessed(state.iterations() * kEvents);
  state.counters["allocs_per_iter"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  if (allocs != 0) {
    state.SkipWithError("steady-state arm/fire path performed heap allocations");
  }
}
BENCHMARK(BM_EventQueueSteadyStateAllocs);

// Disarm and re-arm churn: what a fault costs the clocks it redraws. Each
// iteration arms every clock, disarms every other one, re-arms those at a
// later time (replacing nothing), and runs the table dry; 2 and 4 clocks
// are trial-shaped, 376 is the farm.
void BM_EventCancellation(benchmark::State& state) {
  const int clocks = static_cast<int>(state.range(0));
  Rng rng(5);
  Simulator sim;
  ChurnClient client(&sim, &rng);
  sim.Attach(&client, clocks);
  for (auto _ : state) {
    sim.Reset();
    client.Begin(clocks);  // no re-arms: every clock fires at most once
    for (int clock = 0; clock < clocks; clock += 2) {
      sim.Disarm(clock);
    }
    for (int clock = 0; clock < clocks; clock += 2) {
      sim.ArmAt(clock, Duration::Hours(2000.0 + clock), 0);
    }
    sim.Run();
    benchmark::DoNotOptimize(sim.processed_count());
  }
  state.SetItemsProcessed(state.iterations() * clocks);
}
BENCHMARK(BM_EventCancellation)->Arg(2)->Arg(4)->Arg(376);

Scenario MirroredScenario() {
  return ScenarioBuilder()
      .Replicas(2, ReplicaSpec()
                       .FaultTimes(Duration::Hours(2000.0), Duration::Hours(400.0))
                       .RepairTimes(Duration::Hours(2.0), Duration::Hours(2.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(40.0))))
      .Build();
}

// Fresh construction per trial: what RunToLossOrHorizon costs.
void BM_MirroredTrialToLoss(benchmark::State& state) {
  const Scenario scenario = MirroredScenario();
  uint64_t seed = 0;
  for (auto _ : state) {
    const RunOutcome outcome =
        RunToLossOrHorizon(scenario, seed++, Duration::Years(1e9));
    benchmark::DoNotOptimize(outcome.loss_time);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MirroredTrialToLoss);

// Reused TrialRunner per trial: what the Monte Carlo hot path costs. Also
// asserts the steady-state trial loop stays allocation-free outside the
// RunOutcome it returns.
void BM_MirroredTrialToLossReused(benchmark::State& state) {
  TrialRunner runner(MirroredScenario());
  uint64_t seed = 0;
  for (int i = 0; i < 64; ++i) {  // warm-up: grow engine buffers
    (void)runner.Run(seed++, Duration::Years(1e9));
  }
  const int64_t before = AllocCount();
  for (auto _ : state) {
    const RunOutcome outcome = runner.Run(seed++, Duration::Years(1e9));
    benchmark::DoNotOptimize(outcome.loss_time);
  }
  const int64_t allocs = AllocCount() - before;
  state.SetItemsProcessed(state.iterations());
  state.counters["allocs_per_trial"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  if (allocs != 0) {
    state.SkipWithError("reused trial loop performed heap allocations");
  }
}
BENCHMARK(BM_MirroredTrialToLossReused);

// A one-cell kSharedRoot loss sweep on one lane: trial k draws from
// DeriveSeed(seed, k).
void BM_McLossProbability1kTrials(benchmark::State& state) {
  const SweepSpec spec(
      ScenarioBuilder()
          .Replicas(2, SpecFromParams(FaultParams::PaperCheetahExample())
                           .ScrubWith(ScrubPolicy::PeriodicPerYear(3.0)))
          .Build());
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(50.0);
  options.mc.trials = 1000;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  WorkerPool pool(1);
  const SweepRunner runner(&pool);
  for (auto _ : state) {
    options.mc.seed++;
    const SweepResult result = runner.Run(spec, options);
    benchmark::DoNotOptimize(result.cells.front().loss->losses);
  }
  state.SetItemsProcessed(state.iterations() * options.mc.trials);
}
BENCHMARK(BM_McLossProbability1kTrials);

void BM_ReplicatedCtmcSolve(benchmark::State& state) {
  const int replicas = static_cast<int>(state.range(0));
  const FaultParams p = ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                                         ScrubPolicy::PeriodicPerYear(3.0));
  for (auto _ : state) {
    const ReplicatedChainBuilder chain(p, replicas, RateConvention::kPhysical);
    benchmark::DoNotOptimize(chain.Mttdl());
  }
}
BENCHMARK(BM_ReplicatedCtmcSolve)->Arg(2)->Arg(5)->Arg(10);

void BM_MissionLossMatrixExponential(benchmark::State& state) {
  const FaultParams p = ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                                         ScrubPolicy::PeriodicPerYear(3.0));
  const ReplicatedChainBuilder chain(p, static_cast<int>(state.range(0)),
                                     RateConvention::kPhysical);
  for (auto _ : state) {
    benchmark::DoNotOptimize(chain.LossProbability(Duration::Years(50.0)));
  }
}
BENCHMARK(BM_MissionLossMatrixExponential)->Arg(2)->Arg(5);

void BM_RngExponentialDraws(benchmark::State& state) {
  Rng rng(7);
  const Duration mean = Duration::Hours(1000.0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextExponential(mean));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngExponentialDraws);

void BM_RngCounterMixDraws(benchmark::State& state) {
  // The kCounterV1 substrate: Philox2x64-10, stateless per draw.
  uint64_t counter = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(CounterMix(7, 1, counter++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_RngCounterMixDraws);

// ---------------------------------------------------------------------------
// Batched counter-mode trial kernel (SeedMode::kCounterV1). The paper's
// mission-loss figures run short horizons against archival-grade MTBFs, so
// almost every trial observes no event at all; the block prefilter decides
// from each trial's raw CounterMix draws whether every initial event lands
// after the horizon, and skips the event loop for those provably-censored
// trials. The items/sec ratio of the two series below is the batched
// kernel's trial-throughput multiple over the per-trial baseline (the CI
// acceptance gate wants >= 2.5x).
// ---------------------------------------------------------------------------

Scenario ArchivalScenario() {
  return ScenarioBuilder()
      .Replicas(3, ReplicaSpec()
                       .FaultTimes(Duration::Hours(5e7), Duration::Hours(2e7))
                       .RepairTimes(Duration::Hours(10.0), Duration::Hours(10.0))
                       .ScrubWith(ScrubPolicy::Exponential(Duration::Hours(2e6))))
      .Build();
}

constexpr uint64_t kArchivalKey = 41;
const Duration kArchivalMission = Duration::Years(5.0);

// Baseline: one engine run per trial, per-trial xoshiro reseed — the path
// every pre-kCounterV1 seed mode takes for mission-loss estimands.
void BM_MissionTrialsPerTrialBaseline(benchmark::State& state) {
  TrialRunner runner(ArchivalScenario());
  uint64_t trial = 0;
  int64_t losses = 0;
  for (auto _ : state) {
    const RunOutcome outcome =
        runner.Run(DeriveSeed(kArchivalKey, trial++), kArchivalMission);
    losses += outcome.loss_time.has_value() ? 1 : 0;
    benchmark::DoNotOptimize(losses);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MissionTrialsPerTrialBaseline);

// Batched kernel: one prefilter pass per 256-trial block, engine runs only
// for trials the prefilter cannot prove censored. One iteration = one block.
void BM_MissionTrialsBatchedCounterKernel(benchmark::State& state) {
  TrialRunner runner(ArchivalScenario());
  uint8_t skip[kTrialPrefilterMaxBlock];
  int64_t begin = 0;
  int64_t losses = 0;
  int64_t simulated = 0;
  for (auto _ : state) {
    const bool prefiltered = runner.PrefilterCensoredBlock(
        kArchivalKey, begin, kTrialPrefilterMaxBlock, kArchivalMission, skip);
    for (int i = 0; i < kTrialPrefilterMaxBlock; ++i) {
      if (prefiltered && skip[i] != 0) {
        continue;
      }
      const RunOutcome outcome = runner.RunCounter(
          kArchivalKey, static_cast<uint64_t>(begin + i), kArchivalMission);
      losses += outcome.loss_time.has_value() ? 1 : 0;
      ++simulated;
    }
    begin += kTrialPrefilterMaxBlock;
    benchmark::DoNotOptimize(losses);
  }
  state.SetItemsProcessed(state.iterations() * kTrialPrefilterMaxBlock);
  state.counters["simulated_per_block"] = benchmark::Counter(
      static_cast<double>(simulated) / static_cast<double>(state.iterations()));
}
BENCHMARK(BM_MissionTrialsBatchedCounterKernel);

// Zero-allocation gate for the batched kernel, the same contract the
// arm/fire path and the reused trial loop already carry: after one
// warm-up block has grown the engine's buffers, prefilter + engine replay of
// a block must never touch the heap.
void BM_BatchedCounterKernelSteadyStateAllocs(benchmark::State& state) {
  TrialRunner runner(ArchivalScenario());
  uint8_t skip[kTrialPrefilterMaxBlock];
  const auto run_block = [&](int64_t begin) {
    const bool prefiltered = runner.PrefilterCensoredBlock(
        kArchivalKey, begin, kTrialPrefilterMaxBlock, kArchivalMission, skip);
    int64_t losses = 0;
    for (int i = 0; i < kTrialPrefilterMaxBlock; ++i) {
      if (prefiltered && skip[i] != 0) {
        continue;
      }
      const RunOutcome outcome = runner.RunCounter(
          kArchivalKey, static_cast<uint64_t>(begin + i), kArchivalMission);
      losses += outcome.loss_time.has_value() ? 1 : 0;
    }
    return losses;
  };
  (void)run_block(0);  // warm-up: grow engine buffers
  int64_t allocs = 0;
  for (auto _ : state) {
    const int64_t before = AllocCount();
    benchmark::DoNotOptimize(run_block(0));
    allocs += AllocCount() - before;
  }
  state.SetItemsProcessed(state.iterations() * kTrialPrefilterMaxBlock);
  state.counters["allocs_per_block"] = benchmark::Counter(
      static_cast<double>(allocs) / static_cast<double>(state.iterations()));
  if (allocs != 0) {
    state.SkipWithError("batched counter kernel performed steady-state heap allocations");
  }
}
BENCHMARK(BM_BatchedCounterKernelSteadyStateAllocs);

}  // namespace
}  // namespace longstore

BENCHMARK_MAIN();
