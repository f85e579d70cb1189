// Quantifying replica independence (§4.2, §6.5).
//
// Each replica carries an attribute per independence dimension (geography,
// administration, hardware batch, software stack, organization, power/
// cooling, network, third-party services). Two mechanisms translate shared
// attributes into correlated faults:
//
//  1. An effective correlation factor α for the analytic model: every shared
//     dimension multiplies a per-dimension factor < 1 into the pairwise α
//     (more sharing -> smaller α -> faster second faults).
//  2. Generative common-mode sources for the simulator: every group of
//     replicas sharing a dimension value gets a Poisson shared-risk event
//     stream (the mechanism behind Talagala's observation that one power
//     outage accounted for 22% of machine restarts).

#ifndef LONGSTORE_SRC_THREATS_INDEPENDENCE_H_
#define LONGSTORE_SRC_THREATS_INDEPENDENCE_H_

#include <map>
#include <string>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/util/units.h"

namespace longstore {

enum class IndependenceDimension {
  kGeography,
  kAdministration,
  kHardwareBatch,
  kSoftwareStack,
  kOrganization,
  kPowerCooling,
  kNetwork,
  kThirdPartyService,
};

std::string_view IndependenceDimensionName(IndependenceDimension dimension);

// Where a replica lives along each dimension. Missing dimensions are treated
// as unique (fully independent in that dimension).
struct ReplicaProfile {
  std::map<IndependenceDimension, std::string> attributes;

  ReplicaProfile& Set(IndependenceDimension dimension, std::string value) {
    attributes[dimension] = std::move(value);
    return *this;
  }
  bool SharesWith(const ReplicaProfile& other, IndependenceDimension dimension) const;
};

// Per-dimension correlation contribution when two replicas share that
// dimension's attribute. Values in (0, 1]; smaller = stronger coupling.
struct CorrelationFactors {
  std::map<IndependenceDimension, double> shared_factor;

  // Defaults reflect the paper's emphasis: shared administration and shared
  // power/cooling are the strongest couplings (§4.2's human-error and
  // Talagala examples), shared third-party services the weakest.
  static CorrelationFactors Defaults();
};

// α for one replica pair: the product of factors over shared dimensions
// (1.0 when nothing is shared).
double PairwiseAlpha(const ReplicaProfile& a, const ReplicaProfile& b,
                     const CorrelationFactors& factors);

// System-level α for the analytic model. The most-correlated pair dominates
// double-fault risk, so the minimum pairwise α is the conservative choice.
double MinPairwiseAlpha(const std::vector<ReplicaProfile>& profiles,
                        const CorrelationFactors& factors);

// Generative shared-risk parameters per dimension.
struct SharedRiskRates {
  struct Entry {
    Rate event_rate = Rate::PerYear(0.0);  // events per shared group
    double hit_probability = 1.0;          // chance each member is affected
    double visible_fraction = 1.0;         // visible vs latent fault on hit
  };
  std::map<IndependenceDimension, Entry> entries;

  static SharedRiskRates Defaults();
};

// Builds one CommonModeSource per (dimension, attribute value) group with at
// least two members. Replica i uses profiles[i].
std::vector<CommonModeSource> BuildCommonModeSources(
    const std::vector<ReplicaProfile>& profiles, const SharedRiskRates& rates);

// Canonical profiles used by benches and examples.
//
// All replicas in one machine room, one admin, one hardware batch.
std::vector<ReplicaProfile> SingleSiteProfiles(int replica_count);
// Distinct sites/admins/batches/software/organizations: the British
// Library-style fully diverse deployment (§6.5).
std::vector<ReplicaProfile> FullyDiverseProfiles(int replica_count);
// Distinct sites but one administrative domain and one software stack — the
// common "geographically replicated, centrally operated" design.
std::vector<ReplicaProfile> GeoReplicatedSameAdminProfiles(int replica_count);

}  // namespace longstore

#endif  // LONGSTORE_SRC_THREATS_INDEPENDENCE_H_
