#include "src/scenario/scenario.h"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace longstore {

// --- ReplicaSpec -----------------------------------------------------------

ReplicaSpec& ReplicaSpec::Media(std::string name) {
  media = std::move(name);
  return *this;
}

ReplicaSpec& ReplicaSpec::FaultTimes(Duration visible_mean, Duration latent_mean) {
  mv = visible_mean;
  ml = latent_mean;
  return *this;
}

ReplicaSpec& ReplicaSpec::Weibull(double shape) {
  fault_distribution = FaultDistribution::kWeibull;
  weibull_shape = shape;
  return *this;
}

ReplicaSpec& ReplicaSpec::InitialAge(Duration age) {
  initial_age_hours = age.hours();
  return *this;
}

ReplicaSpec& ReplicaSpec::RepairTimes(Duration visible_repair, Duration latent_repair) {
  mrv = visible_repair;
  mrl = latent_repair;
  return *this;
}

ReplicaSpec& ReplicaSpec::DeterministicRepair() {
  repair_distribution = RepairDistribution::kDeterministic;
  return *this;
}

ReplicaSpec& ReplicaSpec::ScrubWith(ScrubPolicy policy) {
  scrub = policy;
  return *this;
}

ReplicaSpec& ReplicaSpec::ScrubEvery(Duration interval) {
  scrub = ScrubPolicy::Periodic(interval);
  return *this;
}

std::optional<std::string> ReplicaSpec::Validate() const {
  if (!(mv.hours() > 0.0)) {
    return "mv must be positive (Duration::Infinite() means no visible faults)";
  }
  if (!(ml.hours() > 0.0)) {
    return "ml must be positive (Duration::Infinite() means no latent faults)";
  }
  if (mrv.is_negative() || mrl.is_negative() || mrv.is_infinite() ||
      mrl.is_infinite() || std::isnan(mrv.hours()) || std::isnan(mrl.hours())) {
    return "repair times must be finite and non-negative";
  }
  if (fault_distribution == FaultDistribution::kWeibull &&
      (!(weibull_shape > 0.0) || std::isinf(weibull_shape))) {
    return "weibull_shape must be finite and positive";
  }
  if (!(initial_age_hours >= 0.0) || std::isinf(initial_age_hours)) {
    return "initial age must be finite and non-negative";
  }
  if (fault_distribution == FaultDistribution::kExponential &&
      initial_age_hours > 0.0) {
    return "initial age is meaningless on an exponential replica (the "
           "memoryless fault clock cannot see it); use a Weibull fault "
           "distribution or drop the age";
  }
  if (scrub.kind != ScrubPolicy::Kind::kNone &&
      (!(scrub.interval.hours() > 0.0) || scrub.interval.is_infinite())) {
    // An infinite interval would feed NaN into the periodic tick arithmetic
    // and "never" into ArmAfter (which requires finite times).
    return "scrub interval must be finite and positive";
  }
  return std::nullopt;
}

// --- Scenario --------------------------------------------------------------

namespace {

std::string ReplicaError(int index, const std::string& error) {
  return "replica " + std::to_string(index) + ": " + error;
}

}  // namespace

std::optional<std::string> Scenario::Validate() const {
  if (replicas.empty()) {
    return "replica_count must be >= 1";
  }
  if (required_intact < 1 || required_intact > replica_count()) {
    return "required_intact must lie in [1, replica_count]";
  }
  if (!(alpha > 0.0) || alpha > 1.0) {
    return "alpha must lie in (0, 1]";
  }
  for (int i = 0; i < replica_count(); ++i) {
    const ReplicaSpec& spec = replicas[static_cast<size_t>(i)];
    if (auto error = spec.Validate()) {
      return ReplicaError(i, *error);
    }
    if (spec.fault_distribution == FaultDistribution::kWeibull && alpha < 1.0) {
      return ReplicaError(
          i,
          "hazard-multiplier correlation (alpha < 1) requires exponential "
          "faults; Weibull fault clocks are age-based and cannot be rescaled "
          "memorylessly");
    }
  }
  for (const CommonModeSource& source : common_mode) {
    if (!(source.event_rate.per_hour() > 0.0) ||
        std::isinf(source.event_rate.per_hour())) {
      // An infinite rate means a zero mean interval: the source would fire
      // an unbounded event storm at time zero.
      return "common-mode source '" + source.name +
             "' needs a positive, finite event rate";
    }
    // Written so that NaN fails too.
    for (const auto& [field, p] : {std::pair{"hit_probability", source.hit_probability},
                                   std::pair{"visible_fraction", source.visible_fraction}}) {
      if (!(p >= 0.0 && p <= 1.0)) {
        return "common-mode source '" + source.name + "' " + field +
               " must lie in [0, 1]";
      }
    }
    for (int member : source.members) {
      if (member < 0 || member >= replica_count()) {
        return "common-mode source '" + source.name + "' has an out-of-range member";
      }
    }
  }
  return std::nullopt;
}

// --- ScenarioBuilder -------------------------------------------------------

ScenarioBuilder& ScenarioBuilder::Replicas(int count, ReplicaSpec spec) {
  if (count < 0) {
    throw std::invalid_argument("ScenarioBuilder::Replicas: count must be >= 0");
  }
  for (int i = 0; i < count; ++i) {
    scenario_.replicas.push_back(spec);
  }
  return *this;
}

ScenarioBuilder& ScenarioBuilder::AddReplica(ReplicaSpec spec) {
  scenario_.replicas.push_back(std::move(spec));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::RequiredIntact(int required_intact) {
  scenario_.required_intact = required_intact;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::Correlation(double alpha) {
  scenario_.alpha = alpha;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::AlignedScrubs() {
  scenario_.scrub_staggered = false;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CommonMode(CommonModeSource source) {
  scenario_.common_mode.push_back(std::move(source));
  return *this;
}

ScenarioBuilder& ScenarioBuilder::CommonModeAll(std::string name, Rate event_rate,
                                                double hit_probability,
                                                double visible_fraction) {
  CommonModeSource source;
  source.name = std::move(name);
  source.event_rate = event_rate;
  source.hit_probability = hit_probability;
  source.visible_fraction = visible_fraction;
  all_replica_sources_.push_back(scenario_.common_mode.size());
  scenario_.common_mode.push_back(std::move(source));
  return *this;
}

Scenario ScenarioBuilder::Build() const {
  Scenario scenario = scenario_;
  for (const size_t index : all_replica_sources_) {
    CommonModeSource& source = scenario.common_mode[index];
    source.members.clear();
    for (int i = 0; i < scenario.replica_count(); ++i) {
      source.members.push_back(i);
    }
  }
  if (auto error = scenario.Validate()) {
    throw std::invalid_argument("Scenario: " + *error);
  }
  return scenario;
}

}  // namespace longstore
