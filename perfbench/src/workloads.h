// The benchmark's workloads: seeded request generation and the fixed
// execution shape every workload runs on (see perfbench/README.md).
//
// Each workload sends one kind of query, so cold and cache-served requests
// never share a latency distribution. Per-query seeds derive from the
// workload seed, so the program under test only ever receives generated
// request bytes (sweep workloads) or generated search options (frontier
// workloads).

#ifndef PERFBENCH_SRC_WORKLOADS_H_
#define PERFBENCH_SRC_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/fleet/fleet.h"
#include "src/frontier/frontier.h"

namespace perfbench {

enum class Workload {
  kMttdlFigure,   // adaptive §5.4 Cheetah MTTDL sweep, cold
  kArchiveFleet,  // archival loss-probability sweep on a 2-worker fleet, cold
  kFrontierCold,  // golden-small frontier search, fresh seed per search
  kFrontierWarm,  // golden-small frontier search, every evaluation cached
};

std::optional<Workload> ParseWorkload(std::string_view name);
const char* WorkloadName(Workload workload);
bool IsFrontier(Workload workload);

// The load stays below the 4 vCPUs the benchmark is sized for: every
// service and backend runs on an explicit pool of kLanes threads (never the
// hardware-sized WorkerPool::Shared()), and the fleet runs kFleetWorkers
// sweep_worker processes with one lane each.
inline constexpr int kLanes = 2;
inline constexpr int kFleetWorkers = 2;

// mttdl_figure: every cell converges in exactly two adaptive rounds
// (1000 + 3000 trials), 3 cells per query.
inline constexpr int64_t kMttdlTrialsPerQuery = 12000;
inline constexpr int kMttdlRoundsPerCell = 2;
// archive_fleet: 4 cells x 25,000 trials.
inline constexpr int64_t kArchiveTrialsPerQuery = 100000;
// Golden-small search shape: CTMC screens and simulated evaluations.
inline constexpr int64_t kGoldenCtmcEvals = 18;
inline constexpr int64_t kGoldenSimulatedEvals = 44;

// The seed of timed query `index` (>= 0). Warm-up queries use
// WarmupSeed, a separate derivation stream, so no warm-up ever makes a timed
// cold query warm; it is also frontier_warm's one fixed search seed.
uint64_t QuerySeed(uint64_t workload_seed, int64_t index);
uint64_t WarmupSeed(uint64_t workload_seed);

// Service request bytes (ServiceRequest::ToJson, a whole-sweep shard
// document inside) for the two sweep workloads.
std::string MttdlFigureRequest(uint64_t query_seed);
std::string ArchiveFleetRequest(uint64_t query_seed);
// Dispatches on the workload; frontier workloads have no sweep request.
std::string SweepRequest(Workload workload, uint64_t query_seed);

// Golden-small search options with the given simulation seed.
longstore::FrontierOptions FrontierSearchOptions(uint64_t search_seed);

// Fleet backend settings of archive_fleet: kFleetWorkers shards run at once,
// one lane each, files under `temp_dir`.
longstore::FleetOptions ArchiveFleetOptions(const std::string& temp_dir);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_WORKLOADS_H_
