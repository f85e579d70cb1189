#include "src/scenario/scenario_ctmc.h"

#include <stdexcept>

namespace longstore {
namespace {

std::string FieldDiff(int index, const char* field) {
  return "the CTMC state space has one parameter set for the whole fleet, but "
         "replica " +
         std::to_string(index) + " differs from replica 0 in " + field +
         "; score heterogeneous fleets with the simulator (SweepRunner / "
         "TrialRunner)";
}

}  // namespace

std::optional<std::string> CtmcIncompatibility(const Scenario& scenario) {
  if (auto error = scenario.Validate()) {
    return "invalid scenario: " + *error;
  }
  const ReplicaSpec& first = scenario.replicas[0];
  for (int i = 1; i < scenario.replica_count(); ++i) {
    const ReplicaSpec& spec = scenario.replicas[static_cast<size_t>(i)];
    if (spec.fault_distribution != first.fault_distribution) {
      return FieldDiff(i, "fault_distribution");
    }
    if (spec.mv != first.mv) {
      return FieldDiff(i, "mv");
    }
    if (spec.ml != first.ml) {
      return FieldDiff(i, "ml");
    }
    if (spec.weibull_shape != first.weibull_shape) {
      return FieldDiff(i, "weibull_shape");
    }
    if (spec.initial_age_hours != first.initial_age_hours) {
      return FieldDiff(i, "initial_age_hours");
    }
    if (spec.repair_distribution != first.repair_distribution) {
      return FieldDiff(i, "repair_distribution");
    }
    if (spec.mrv != first.mrv) {
      return FieldDiff(i, "mrv");
    }
    if (spec.mrl != first.mrl) {
      return FieldDiff(i, "mrl");
    }
    if (spec.scrub.kind != first.scrub.kind ||
        spec.scrub.interval != first.scrub.interval) {
      return FieldDiff(i, "scrub policy");
    }
  }
  if (first.fault_distribution == FaultDistribution::kWeibull) {
    return "Weibull fault clocks are age-dependent and the CTMC state space "
           "has no age dimension; use exponential faults or the simulator";
  }
  if (first.initial_age_hours > 0.0) {
    return "initial ages are age-dependent state the CTMC cannot carry; use "
           "the simulator";
  }
  if (first.repair_distribution == RepairDistribution::kDeterministic) {
    return "deterministic repair is not exponential; the CTMC repair "
           "transition is memoryless — use RepairDistribution::kExponential "
           "or the simulator";
  }
  if (first.scrub.kind == ScrubPolicy::Kind::kPeriodic) {
    return "periodic scrubbing is a deterministic detection process; the "
           "CTMC detection transition is exponential — use "
           "ScrubPolicy::Exponential for an exact match, or accept the "
           "MDL = interval/2 approximation by building the chain from "
           "ScenarioFaultParams yourself";
  }
  if (!scenario.common_mode.empty()) {
    return "common-mode sources (" + scenario.common_mode[0].name +
           ", ...) strike several replicas per event; the CTMC tracks only "
           "per-replica fault counts — use the simulator";
  }
  return std::nullopt;
}

FaultParams ScenarioFaultParams(const Scenario& scenario, int index) {
  if (index < 0 || index >= scenario.replica_count()) {
    throw std::out_of_range("ScenarioFaultParams: replica index out of range");
  }
  const ReplicaSpec& spec = scenario.replicas[static_cast<size_t>(index)];
  FaultParams params;
  params.mv = spec.mv;
  params.ml = spec.ml;
  params.mrv = spec.mrv;
  params.mrl = spec.mrl;
  params.mdl = spec.scrub.MeanDetectionLatency();
  params.alpha = scenario.alpha;
  return params;
}

namespace {

ReplicatedChainBuilder ChainFor(const Scenario& scenario) {
  if (auto reason = CtmcIncompatibility(scenario)) {
    throw std::invalid_argument("Scenario CTMC: " + *reason);
  }
  return ReplicatedChainBuilder(ScenarioFaultParams(scenario),
                                scenario.replica_count(), RateConvention::kPhysical,
                                scenario.required_intact);
}

}  // namespace

std::optional<Duration> ScenarioCtmcMttdl(const Scenario& scenario) {
  return ChainFor(scenario).Mttdl();
}

std::optional<double> ScenarioCtmcLossProbability(const Scenario& scenario,
                                                  Duration mission) {
  return ChainFor(scenario).LossProbability(mission);
}

}  // namespace longstore
