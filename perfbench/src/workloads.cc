#include "perfbench/src/workloads.h"

#include <utility>

#include "src/scenario/scenario.h"
#include "src/service/service_protocol.h"
#include "src/shard/shard.h"
#include "src/sweep/sweep.h"
#include "src/util/random.h"
#include "tools/figure_sweeps.h"

namespace perfbench {
namespace {

using longstore::Duration;
using longstore::ReplicaSpec;
using longstore::Scenario;
using longstore::ScrubPolicy;
using longstore::SweepOptions;
using longstore::SweepSpec;

std::string RequestBytes(const SweepSpec& spec, const SweepOptions& options) {
  longstore::ServiceRequest request;
  request.kind = longstore::ServiceRequest::Kind::kSweep;
  request.sweep_document =
      longstore::ShardPlan(spec, options, /*shard_count=*/1).shards()[0].ToJson();
  return request.ToJson();
}

}  // namespace

std::optional<Workload> ParseWorkload(std::string_view name) {
  for (const Workload workload :
       {Workload::kMttdlFigure, Workload::kArchiveFleet, Workload::kFrontierCold,
        Workload::kFrontierWarm}) {
    if (name == WorkloadName(workload)) {
      return workload;
    }
  }
  return std::nullopt;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kMttdlFigure:
      return "mttdl_figure";
    case Workload::kArchiveFleet:
      return "archive_fleet";
    case Workload::kFrontierCold:
      return "frontier_cold";
    case Workload::kFrontierWarm:
      return "frontier_warm";
  }
  return "unknown";
}

bool IsFrontier(Workload workload) {
  return workload == Workload::kFrontierCold ||
         workload == Workload::kFrontierWarm;
}

uint64_t QuerySeed(uint64_t workload_seed, int64_t index) {
  return longstore::DeriveSeed(longstore::DeriveSeed(workload_seed, 1),
                               static_cast<uint64_t>(index));
}

uint64_t WarmupSeed(uint64_t workload_seed) {
  return longstore::DeriveSeed(workload_seed, 0);
}

std::string MttdlFigureRequest(uint64_t query_seed) {
  SweepSpec spec;
  SweepOptions options;
  longstore::BuildCheetahSweep(&spec, &options);
  // Asked for a stated accuracy: 1000 starting trials, then x4 rounds until
  // the CI half-width is within 4% of the mean.
  options.adaptive = true;
  options.mc.trials = 1000;
  options.relative_precision = 0.04;
  options.mc.seed = query_seed;
  return RequestBytes(spec, options);
}

std::string ArchiveFleetRequest(uint64_t query_seed) {
  // Long fault means against a 5-year mission: the counter-mode block
  // prefilter proves ~99% of trials eventless, so the engine is nearly idle
  // and fleet transport dominates.
  SweepSpec spec(longstore::ScenarioBuilder()
                     .Replicas(2, ReplicaSpec()
                                      .FaultTimes(Duration::Hours(5e7),
                                                  Duration::Hours(2e7))
                                      .RepairTimes(Duration::Hours(10.0),
                                                   Duration::Hours(10.0)))
                     .Build());
  spec.AddAxis("replicas");
  for (const int replicas : {2, 3}) {
    spec.AddPoint(std::to_string(replicas), replicas,
                  [replicas](Scenario& scenario) {
                    scenario.replicas.resize(replicas, scenario.replicas[0]);
                  });
  }
  spec.AddAxis("scrub_mean_hours");
  for (const double hours : {1e6, 2e6}) {
    spec.AddPoint(hours == 1e6 ? "1e6" : "2e6", hours,
                  [hours](Scenario& scenario) {
                    for (ReplicaSpec& replica : scenario.replicas) {
                      replica.scrub = ScrubPolicy::Exponential(Duration::Hours(hours));
                    }
                  });
  }
  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kLossProbability;
  options.mission = Duration::Years(5.0);
  options.seed_mode = SweepOptions::SeedMode::kCounterV1;
  options.mc.trials = kArchiveTrialsPerQuery / 4;
  options.mc.seed = query_seed;
  return RequestBytes(spec, options);
}

std::string SweepRequest(Workload workload, uint64_t query_seed) {
  return workload == Workload::kArchiveFleet ? ArchiveFleetRequest(query_seed)
                                             : MttdlFigureRequest(query_seed);
}

longstore::FrontierOptions FrontierSearchOptions(uint64_t search_seed) {
  longstore::FrontierOptions options = longstore::GoldenSmallOptions();
  options.seed = search_seed;
  return options;
}

longstore::FleetOptions ArchiveFleetOptions(const std::string& temp_dir) {
  longstore::FleetOptions options;
  options.worker_path = PERFBENCH_SWEEP_WORKER;
  options.temp_dir = temp_dir;
  options.shard_count = kFleetWorkers;
  options.max_parallel = kFleetWorkers;
  options.worker_threads = 1;
  options.timeout_seconds = 60.0;
  return options;
}

}  // namespace perfbench
