// Exact-model bridge: scores a Scenario with the continuous-time Markov
// chains of src/model/replica_ctmc.h when the scenario lies inside their
// state space, and rejects it with a precise, actionable reason when it
// does not. This is the analytic leg of the sim-vs-model cross-validation:
// heterogeneous or age-dependent fleets go to the simulator; everything the
// CTMC *can* model it models exactly.

#ifndef LONGSTORE_SRC_SCENARIO_SCENARIO_CTMC_H_
#define LONGSTORE_SRC_SCENARIO_SCENARIO_CTMC_H_

#include <optional>
#include <string>

#include "src/model/fault_params.h"
#include "src/model/replica_ctmc.h"
#include "src/scenario/scenario.h"
#include "src/util/units.h"

namespace longstore {

// Why the exact CTMC cannot model `scenario`, or nullopt when it can. The
// chain requires a homogeneous fleet of memoryless processes: exponential
// faults (no ages), exponential repair, a memoryless detection process
// (none / exponential / on-access — periodic scrubbing is deterministic),
// and no common-mode sources. Its per-replica states (healthy, latent,
// detected) are the simulator's own, so nothing else needs checking. Each
// violation names the offending replica/field and what to change.
std::optional<std::string> CtmcIncompatibility(const Scenario& scenario);

// The scenario's effective per-replica FaultParams (MV/ML/MRV/MRL from
// replica `index`, MDL = that replica's scrub policy's mean detection
// latency, alpha from the scenario). This is the exact analytic counterpart
// for memoryless scrub kinds and the standard MDL = interval/2
// approximation for periodic ones. Throws std::out_of_range on a bad index.
FaultParams ScenarioFaultParams(const Scenario& scenario, int index = 0);

// Exact MTTDL / mission-loss probability from the all-healthy state, under
// the physical rate convention the simulator runs and the scenario's
// redundancy threshold. Throws
// std::invalid_argument carrying the CtmcIncompatibility reason when the
// scenario is outside the chain's state space; returns nullopt only when
// data loss is unreachable (the underlying chain solvers' contract).
std::optional<Duration> ScenarioCtmcMttdl(const Scenario& scenario);
std::optional<double> ScenarioCtmcLossProbability(const Scenario& scenario,
                                                  Duration mission);

}  // namespace longstore

#endif  // LONGSTORE_SRC_SCENARIO_SCENARIO_CTMC_H_
