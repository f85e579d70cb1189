#include "src/threats/independence.h"

#include <algorithm>

namespace longstore {

std::string_view IndependenceDimensionName(IndependenceDimension dimension) {
  switch (dimension) {
    case IndependenceDimension::kGeography:
      return "geography";
    case IndependenceDimension::kAdministration:
      return "administration";
    case IndependenceDimension::kHardwareBatch:
      return "hardware batch";
    case IndependenceDimension::kSoftwareStack:
      return "software stack";
    case IndependenceDimension::kOrganization:
      return "organization";
    case IndependenceDimension::kPowerCooling:
      return "power/cooling";
    case IndependenceDimension::kNetwork:
      return "network";
    case IndependenceDimension::kThirdPartyService:
      return "third-party service";
  }
  return "?";
}

bool ReplicaProfile::SharesWith(const ReplicaProfile& other,
                                IndependenceDimension dimension) const {
  const auto mine = attributes.find(dimension);
  if (mine == attributes.end()) {
    return false;
  }
  const auto theirs = other.attributes.find(dimension);
  return theirs != other.attributes.end() && mine->second == theirs->second;
}

CorrelationFactors CorrelationFactors::Defaults() {
  CorrelationFactors f;
  f.shared_factor = {
      {IndependenceDimension::kGeography, 0.5},
      {IndependenceDimension::kAdministration, 0.3},
      {IndependenceDimension::kHardwareBatch, 0.6},
      {IndependenceDimension::kSoftwareStack, 0.5},
      {IndependenceDimension::kOrganization, 0.6},
      {IndependenceDimension::kPowerCooling, 0.3},
      {IndependenceDimension::kNetwork, 0.8},
      {IndependenceDimension::kThirdPartyService, 0.9},
  };
  return f;
}

double PairwiseAlpha(const ReplicaProfile& a, const ReplicaProfile& b,
                     const CorrelationFactors& factors) {
  double alpha = 1.0;
  for (const auto& [dimension, factor] : factors.shared_factor) {
    if (a.SharesWith(b, dimension)) {
      alpha *= factor;
    }
  }
  return alpha;
}

double MinPairwiseAlpha(const std::vector<ReplicaProfile>& profiles,
                        const CorrelationFactors& factors) {
  double alpha = 1.0;
  for (size_t i = 0; i < profiles.size(); ++i) {
    for (size_t j = i + 1; j < profiles.size(); ++j) {
      alpha = std::min(alpha, PairwiseAlpha(profiles[i], profiles[j], factors));
    }
  }
  return alpha;
}

SharedRiskRates SharedRiskRates::Defaults() {
  SharedRiskRates r;
  // Rates are per shared group, calibrated coarsely to the §3/§4.2 evidence:
  // power events are frequent but mostly transient (high rate, moderate hit
  // probability); site disasters are rare but devastating; shared-admin
  // errors occasionally delete data silently at every replica at once.
  r.entries = {
      {IndependenceDimension::kPowerCooling,
       {Rate::PerYear(2.0), /*hit=*/0.6, /*visible=*/1.0}},
      {IndependenceDimension::kGeography,
       {Rate::PerYear(0.01), /*hit=*/0.9, /*visible=*/1.0}},
      {IndependenceDimension::kAdministration,
       {Rate::PerYear(0.2), /*hit=*/0.5, /*visible=*/0.3}},
      {IndependenceDimension::kSoftwareStack,
       {Rate::PerYear(0.1), /*hit=*/0.8, /*visible=*/0.5}},
      {IndependenceDimension::kHardwareBatch,
       {Rate::PerYear(0.05), /*hit=*/0.5, /*visible=*/0.7}},
      {IndependenceDimension::kOrganization,
       {Rate::PerYear(0.02), /*hit=*/1.0, /*visible=*/0.5}},
      {IndependenceDimension::kNetwork,
       {Rate::PerYear(0.5), /*hit=*/0.3, /*visible=*/1.0}},
      {IndependenceDimension::kThirdPartyService,
       {Rate::PerYear(0.05), /*hit=*/0.7, /*visible=*/0.2}},
  };
  return r;
}

std::vector<CommonModeSource> BuildCommonModeSources(
    const std::vector<ReplicaProfile>& profiles, const SharedRiskRates& rates) {
  std::vector<CommonModeSource> sources;
  for (const auto& [dimension, entry] : rates.entries) {
    if (!(entry.event_rate.per_hour() > 0.0)) {
      continue;
    }
    // Group replicas by attribute value along this dimension.
    std::map<std::string, std::vector<int>> groups;
    for (size_t i = 0; i < profiles.size(); ++i) {
      const auto it = profiles[i].attributes.find(dimension);
      if (it != profiles[i].attributes.end()) {
        groups[it->second].push_back(static_cast<int>(i));
      }
    }
    for (const auto& [value, members] : groups) {
      if (members.size() < 2) {
        continue;  // a private component is ordinary, not common-mode
      }
      CommonModeSource source;
      source.name = std::string(IndependenceDimensionName(dimension)) + ":" + value;
      source.event_rate = entry.event_rate;
      source.members = members;
      source.hit_probability = entry.hit_probability;
      source.visible_fraction = entry.visible_fraction;
      sources.push_back(std::move(source));
    }
  }
  return sources;
}

namespace {

ReplicaProfile MakeProfile(const std::string& geo, const std::string& admin,
                           const std::string& batch, const std::string& software,
                           const std::string& organization, const std::string& power) {
  ReplicaProfile p;
  p.Set(IndependenceDimension::kGeography, geo)
      .Set(IndependenceDimension::kAdministration, admin)
      .Set(IndependenceDimension::kHardwareBatch, batch)
      .Set(IndependenceDimension::kSoftwareStack, software)
      .Set(IndependenceDimension::kOrganization, organization)
      .Set(IndependenceDimension::kPowerCooling, power);
  return p;
}

}  // namespace

std::vector<ReplicaProfile> SingleSiteProfiles(int replica_count) {
  std::vector<ReplicaProfile> profiles;
  for (int i = 0; i < replica_count; ++i) {
    profiles.push_back(
        MakeProfile("hq", "ops-team", "batch-2005", "stack-a", "org", "circuit-1"));
  }
  return profiles;
}

std::vector<ReplicaProfile> FullyDiverseProfiles(int replica_count) {
  std::vector<ReplicaProfile> profiles;
  for (int i = 0; i < replica_count; ++i) {
    const std::string n = std::to_string(i);
    profiles.push_back(MakeProfile("site-" + n, "admin-" + n, "batch-" + n,
                                   "stack-" + n, "org-" + n, "circuit-" + n));
  }
  return profiles;
}

std::vector<ReplicaProfile> GeoReplicatedSameAdminProfiles(int replica_count) {
  std::vector<ReplicaProfile> profiles;
  for (int i = 0; i < replica_count; ++i) {
    const std::string n = std::to_string(i);
    profiles.push_back(MakeProfile("site-" + n, "central-ops", "batch-2005",
                                   "stack-a", "org", "circuit-" + n));
  }
  return profiles;
}

}  // namespace longstore
