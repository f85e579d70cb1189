// E3 (§5.4, implications 2 and 3): the effect of scrubbing and correlation on
// the paper's running Cheetah example.
//
// Paper-reported values this bench regenerates:
//   no scrubbing:            MTTDL = 32.0 y,   P(loss in 50 y) = 79.0%
//   scrub 3x/year:           MTTDL = 6128.7 y, P(loss in 50 y) = 0.8%
//   scrub 3x/year, α = 0.1:  MTTDL = 612.9 y,  P(loss in 50 y) = 7.8%
//
// Columns: the paper's own equation choice (digit-for-digit reproduction),
// the full closed form (eq 8), the exact CTMC under both rate conventions,
// and a Monte Carlo run of the simulator (physical convention, exponential
// audits matching MDL).
//
// --shards=K executes the Monte Carlo sweep as K shards through the shard
// driver (src/shard/) instead of one SweepRunner call; with --worker=PATH
// each shard runs in a separate process of the given sweep_worker binary,
// supervised by the fleet driver (src/fleet/) — add --fail-mode/--fail-prob/
// --fail-seed to inject worker faults and watch it recover. Output is
// byte-identical every way — CI diffs the fleet run (with and without
// chaos) against the single-process output.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include <unistd.h>

#include "src/fleet/fleet.h"
#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

namespace longstore {
namespace {

struct Case {
  const char* name;
  FaultParams params;
  double paper_mttdl_years;
  double paper_loss_50y;
};

// A mirrored pair with `p`'s fault and repair times; MDL is realized as
// exponential scrubs (none when infinite).
Scenario SimScenarioFor(const FaultParams& p) {
  return ScenarioBuilder().Replicas(2, SpecFromParams(p)).Correlation(p.alpha).Build();
}

std::string McCell(const SweepCellResult& cell) {
  const MttdlEstimate& estimate = *cell.mttdl;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f y +/- %.1f", estimate.mean_years(),
                (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0);
  return buf;
}

// Worker-fleet knobs (only meaningful with --worker): fault injection and
// the per-attempt timeout, forwarded to the FleetSupervisor.
struct FleetFlags {
  const char* fail_mode = nullptr;
  double fail_prob = 0.0;
  uint64_t fail_seed = 1;
  double timeout_s = 120.0;
};

// Executes the sweep as `shards` shards; `worker` non-null runs them as a
// supervised fleet of that binary's processes (retries, timeouts, checksum
// verification — src/fleet/), else the shards run in-process. Either way
// the merged result is byte-identical to SweepRunner::Run (the contract
// tests/shard_e2e_test.cc and tests/fleet_recovery_test.cc pin; this path
// lets CI prove it on a figure, including under injected chaos).
SweepResult RunSharded(const SweepSpec& spec, const SweepOptions& options,
                       int shards, const char* worker, const FleetFlags& flags) {
  if (worker == nullptr) {
    const ShardPlan plan(spec, options, shards);
    ShardMerger merger(plan.shards());
    for (const ShardSpec& shard : plan.shards()) {
      merger.Add(RunShard(shard));
    }
    return merger.Finish();
  }
  char tmp_dir[] = "/tmp/longstore_bench_fleet.XXXXXX";
  if (::mkdtemp(tmp_dir) == nullptr) {
    std::fprintf(stderr, "mkdtemp failed\n");
    std::exit(1);
  }
  FleetOptions fleet;
  fleet.worker_path = worker;
  fleet.temp_dir = tmp_dir;
  fleet.shard_count = shards;
  fleet.max_parallel = 2;
  fleet.max_retries = 8;  // chaos at --fail-prob=0.3 must still converge
  fleet.backoff_initial_seconds = 0.05;
  fleet.timeout_seconds = flags.timeout_s;
  if (flags.fail_mode != nullptr) {
    fleet.fail_mode = flags.fail_mode;
    fleet.fail_prob = flags.fail_prob;
    fleet.fail_seed = flags.fail_seed;
  }
  fleet.log = stderr;
  SweepResult result;
  try {
    result = FleetSupervisor(fleet).Run(spec, options).result;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(1);
  }
  ::rmdir(tmp_dir);
  return result;
}

}  // namespace
}  // namespace longstore

int main(int argc, char** argv) {
  using namespace longstore;
  int shards = 0;
  const char* worker = nullptr;
  FleetFlags flags;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--shards=", 9) == 0) {
      shards = std::atoi(argv[i] + 9);
    } else if (std::strncmp(argv[i], "--worker=", 9) == 0) {
      worker = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--fail-mode=", 12) == 0) {
      flags.fail_mode = argv[i] + 12;
    } else if (std::strncmp(argv[i], "--fail-prob=", 12) == 0) {
      flags.fail_prob = std::atof(argv[i] + 12);
    } else if (std::strncmp(argv[i], "--fail-seed=", 12) == 0) {
      flags.fail_seed = std::strtoull(argv[i] + 12, nullptr, 0);
    } else if (std::strncmp(argv[i], "--timeout-s=", 12) == 0) {
      flags.timeout_s = std::atof(argv[i] + 12);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--shards=K] [--worker=PATH] [--fail-mode=MODE]\n"
                   "          [--fail-prob=P] [--fail-seed=S] [--timeout-s=T]\n",
                   argv[0]);
      return 1;
    }
  }
  if (shards <= 0 && worker != nullptr) {
    shards = 1;
  }
  std::printf("%s",
              Heading("E3 (§5.4)", "scrubbing and correlation on the Cheetah example "
                      "(MV=1.4e6 h, ML=MV/5, MRV=MRL=20 min)")
                  .c_str());

  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed =
      ApplyScrubPolicy(unscrubbed, ScrubPolicy::PeriodicPerYear(3.0));
  const FaultParams correlated = WithCorrelation(scrubbed, 0.1);

  const Case cases[] = {
      {"no scrubbing (MDL = inf)", unscrubbed, 32.0, 0.790},
      {"scrub 3x/year (MDL = 1460 h)", scrubbed, 6128.7, 0.008},
      {"scrub 3x/year, alpha = 0.1", correlated, 612.9, 0.078},
  };

  // All three Monte Carlo columns run as one sweep on the shared worker
  // pool; kSharedRoot keeps the pre-sweep convention of one seed (33) naming
  // the same trial streams in every cell.
  SweepSpec spec;
  spec.AddAxis("configuration");
  for (const Case& c : cases) {
    spec.AddPoint(c.name, 0.0,
                  [&c](Scenario& scenario) { scenario = SimScenarioFor(c.params); });
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 4000;
  options.mc.seed = 33;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;
  const SweepResult sweep = shards > 0
                                ? RunSharded(spec, options, shards, worker, flags)
                                : SweepRunner().Run(spec, options);

  Table table({"configuration", "paper MTTDL", "our paper-eq", "eq 8", "CTMC (paper conv)",
               "CTMC (physical)", "MC sim (physical)"});
  for (const Case& c : cases) {
    const Duration choice = MttdlPaperChoice(c.params);
    const Duration closed = MttdlClosedForm(c.params);
    const auto ctmc_paper = MirroredMttdl(c.params, RateConvention::kPaper);
    const auto ctmc_physical = MirroredMttdl(c.params, RateConvention::kPhysical);
    table.AddRow({c.name, Table::FmtYears(c.paper_mttdl_years),
                  Table::FmtYears(choice.years()), Table::FmtYears(closed.years()),
                  Table::FmtYears(ctmc_paper->years()),
                  Table::FmtYears(ctmc_physical->years()),
                  McCell(sweep.ByLabel(c.name))});
  }
  std::printf("%s", table.Render().c_str());

  std::printf("\nProbability of data loss within a 50-year mission:\n");
  Table loss({"configuration", "paper", "our paper-eq", "CTMC (physical, exact)"});
  for (const Case& c : cases) {
    const auto exact =
        MirroredLossProbability(c.params, Duration::Years(50.0), RateConvention::kPhysical);
    loss.AddRow({c.name, Table::FmtPercent(c.paper_loss_50y),
                 Table::FmtPercent(LossProbability(MttdlPaperChoice(c.params),
                                                   Duration::Years(50.0))),
                 Table::FmtPercent(*exact)});
  }
  std::printf("%s", loss.Render().c_str());

  std::printf(
      "\nShape check: scrubbing buys ~2 orders of magnitude of MTTDL; correlation at\n"
      "alpha = 0.1 gives back exactly one of them. The CTMC columns are the exact\n"
      "values of the modeled process — the physical convention is ~2x below the\n"
      "paper convention (two fault clocks), and the paper's 32.0-year figure omits\n"
      "the wait for the second fault that the exact chain includes (58.6 y).\n"
      "Regime classifier: %s / %s / %s.\n",
      std::string(ModelRegimeName(ClassifyRegime(unscrubbed))).c_str(),
      std::string(ModelRegimeName(ClassifyRegime(scrubbed))).c_str(),
      std::string(ModelRegimeName(ClassifyRegime(correlated))).c_str());
  return 0;
}
