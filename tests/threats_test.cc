#include <set>

#include <gtest/gtest.h>

#include "src/threats/independence.h"
#include "src/threats/threat_catalog.h"

namespace longstore {
namespace {

TEST(ThreatCatalogTest, AllTenSection3ThreatsPresent) {
  const auto& catalog = ThreatCatalog();
  EXPECT_EQ(catalog.size(), 10u);
  std::set<std::string_view> names;
  for (const ThreatInfo& info : catalog) {
    names.insert(info.name);
    EXPECT_FALSE(info.description.empty());
    EXPECT_FALSE(info.example.empty());
  }
  EXPECT_EQ(names.size(), 10u);  // unique names
}

TEST(ThreatCatalogTest, LookupFindsEveryClass) {
  for (const ThreatInfo& info : ThreatCatalog()) {
    EXPECT_EQ(LookupThreat(info.threat).name, info.name);
  }
  EXPECT_EQ(ThreatClassName(ThreatClass::kMediaFault), "media fault");
}

TEST(ThreatCatalogTest, Section4ClassificationsHold) {
  // §4.1 lists media faults among latent threats; §4.2 lists disasters among
  // correlated ones; media faults (bit rot) strike drives independently.
  EXPECT_TRUE(LookupThreat(ThreatClass::kMediaFault).typically_latent);
  EXPECT_FALSE(LookupThreat(ThreatClass::kMediaFault).typically_correlated);
  EXPECT_TRUE(LookupThreat(ThreatClass::kLargeScaleDisaster).typically_correlated);
  EXPECT_FALSE(LookupThreat(ThreatClass::kLargeScaleDisaster).typically_latent);
  EXPECT_TRUE(LookupThreat(ThreatClass::kAttack).typically_latent);
  EXPECT_TRUE(LookupThreat(ThreatClass::kHumanError).typically_correlated);
}

TEST(IndependenceDimensionTest, Names) {
  EXPECT_EQ(IndependenceDimensionName(IndependenceDimension::kPowerCooling),
            "power/cooling");
}

TEST(ReplicaProfileTest, SharingDetection) {
  ReplicaProfile a;
  a.Set(IndependenceDimension::kGeography, "london");
  ReplicaProfile b;
  b.Set(IndependenceDimension::kGeography, "london");
  ReplicaProfile c;
  c.Set(IndependenceDimension::kGeography, "tokyo");
  EXPECT_TRUE(a.SharesWith(b, IndependenceDimension::kGeography));
  EXPECT_FALSE(a.SharesWith(c, IndependenceDimension::kGeography));
  // Missing attributes never count as shared.
  EXPECT_FALSE(a.SharesWith(b, IndependenceDimension::kAdministration));
}

TEST(PairwiseAlphaTest, ProductOverSharedDimensions) {
  CorrelationFactors factors;
  factors.shared_factor = {
      {IndependenceDimension::kGeography, 0.5},
      {IndependenceDimension::kAdministration, 0.25},
  };
  ReplicaProfile a;
  a.Set(IndependenceDimension::kGeography, "x")
      .Set(IndependenceDimension::kAdministration, "ops");
  ReplicaProfile b = a;
  EXPECT_DOUBLE_EQ(PairwiseAlpha(a, b, factors), 0.125);
  b.Set(IndependenceDimension::kAdministration, "other-ops");
  EXPECT_DOUBLE_EQ(PairwiseAlpha(a, b, factors), 0.5);
  b.Set(IndependenceDimension::kGeography, "y");
  EXPECT_DOUBLE_EQ(PairwiseAlpha(a, b, factors), 1.0);
}

TEST(SystemAlphaTest, SingleSiteIsWorstFullyDiverseIsOne) {
  const CorrelationFactors factors = CorrelationFactors::Defaults();
  const auto single = SingleSiteProfiles(3);
  const auto diverse = FullyDiverseProfiles(3);
  const auto geo = GeoReplicatedSameAdminProfiles(3);
  const double single_alpha = MinPairwiseAlpha(single, factors);
  const double diverse_alpha = MinPairwiseAlpha(diverse, factors);
  const double geo_alpha = MinPairwiseAlpha(geo, factors);
  EXPECT_DOUBLE_EQ(diverse_alpha, 1.0);
  EXPECT_LT(single_alpha, 0.05);  // shares every dimension
  EXPECT_GT(geo_alpha, single_alpha);
  EXPECT_LT(geo_alpha, diverse_alpha);
}

TEST(BuildCommonModeSourcesTest, GroupsByAttributeValue) {
  SharedRiskRates rates;
  rates.entries = {
      {IndependenceDimension::kPowerCooling, {Rate::PerYear(2.0), 0.6, 1.0}},
  };
  std::vector<ReplicaProfile> profiles(4);
  profiles[0].Set(IndependenceDimension::kPowerCooling, "circuit-a");
  profiles[1].Set(IndependenceDimension::kPowerCooling, "circuit-a");
  profiles[2].Set(IndependenceDimension::kPowerCooling, "circuit-b");
  profiles[3].Set(IndependenceDimension::kPowerCooling, "circuit-b");
  const auto sources = BuildCommonModeSources(profiles, rates);
  ASSERT_EQ(sources.size(), 2u);
  EXPECT_EQ(sources[0].members.size(), 2u);
  EXPECT_DOUBLE_EQ(sources[0].hit_probability, 0.6);
  EXPECT_NE(sources[0].name.find("power/cooling"), std::string::npos);
}

TEST(BuildCommonModeSourcesTest, SingletonGroupsAreNotCommonMode) {
  SharedRiskRates rates = SharedRiskRates::Defaults();
  const auto sources = BuildCommonModeSources(FullyDiverseProfiles(4), rates);
  EXPECT_TRUE(sources.empty());
}

TEST(BuildCommonModeSourcesTest, SingleSiteSharesEverything) {
  const auto sources =
      BuildCommonModeSources(SingleSiteProfiles(4), SharedRiskRates::Defaults());
  // One group per dimension with a configured rate (defaults cover all 8;
  // profiles set 6 of them).
  EXPECT_EQ(sources.size(), 6u);
  for (const CommonModeSource& source : sources) {
    EXPECT_EQ(source.members.size(), 4u);
  }
}

TEST(BuildCommonModeSourcesTest, ZeroRateDimensionsSkipped) {
  SharedRiskRates rates;
  rates.entries = {
      {IndependenceDimension::kGeography, {Rate::PerYear(0.0), 1.0, 1.0}},
  };
  EXPECT_TRUE(BuildCommonModeSources(SingleSiteProfiles(3), rates).empty());
}

}  // namespace
}  // namespace longstore
