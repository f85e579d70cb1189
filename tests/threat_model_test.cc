#include "src/threats/threat_model.h"

#include <algorithm>
#include <cmath>

#include <gtest/gtest.h>

#include "src/model/paper_model.h"
#include "src/model/strategies.h"

namespace longstore {
namespace {

// True when `a` and `b` agree in every field to within relative tolerance
// `rel_tol`; equal infinities (e.g. no detection process) count as equal.
bool ApproxEqual(const FaultParams& a, const FaultParams& b, double rel_tol) {
  const auto near = [rel_tol](double x, double y) {
    if (x == y) {
      return true;
    }
    if (std::isinf(x) || std::isinf(y)) {
      return false;
    }
    return std::fabs(x - y) <= rel_tol * std::max(std::fabs(x), std::fabs(y));
  };
  return near(a.mv.hours(), b.mv.hours()) && near(a.ml.hours(), b.ml.hours()) &&
         near(a.mrv.hours(), b.mrv.hours()) && near(a.mrl.hours(), b.mrl.hours()) &&
         near(a.mdl.hours(), b.mdl.hours()) && near(a.alpha, b.alpha);
}

TEST(ThreatModelTest, MediaOnlyProfileReproducesPaperParams) {
  const ThreatProfile profile = MediaOnlyProfile(Duration::Years(1.0 / 3.0));
  const FaultParams combined = CombineThreats(profile, 1.0);
  const FaultParams expected = ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                                                ScrubPolicy::PeriodicPerYear(3.0));
  EXPECT_TRUE(ApproxEqual(combined, expected, 1e-9))
      << "mv=" << combined.mv.hours() << " ml=" << combined.ml.hours()
      << " mdl=" << combined.mdl.hours();
}

TEST(ThreatModelTest, RatesAddAcrossThreats) {
  ThreatProfile profile;
  ThreatContribution a;
  a.threat = ThreatClass::kMediaFault;
  a.visible_interval = Duration::Hours(1000.0);
  ThreatContribution b;
  b.threat = ThreatClass::kComponentFault;
  b.visible_interval = Duration::Hours(1000.0);
  profile.contributions = {a, b};
  const FaultParams p = CombineThreats(profile, 1.0);
  EXPECT_NEAR(p.mv.hours(), 500.0, 1e-9);
  EXPECT_TRUE(p.ml.is_infinite());
  EXPECT_TRUE(p.mdl.is_infinite());  // no latent process at all
}

TEST(ThreatModelTest, DetectionIsRateWeighted) {
  // Two latent threats, equal rates, detection latencies 10 h and 30 h:
  // a random latent fault waits 20 h on average.
  ThreatProfile profile;
  ThreatContribution fast;
  fast.threat = ThreatClass::kMediaFault;
  fast.latent_interval = Duration::Hours(100.0);
  fast.detection_interval = Duration::Hours(10.0);
  ThreatContribution slow;
  slow.threat = ThreatClass::kSoftwareFormatObsolescence;
  slow.latent_interval = Duration::Hours(100.0);
  slow.detection_interval = Duration::Hours(30.0);
  profile.contributions = {fast, slow};
  const FaultParams p = CombineThreats(profile, 1.0);
  EXPECT_NEAR(p.ml.hours(), 50.0, 1e-9);
  EXPECT_NEAR(p.mdl.hours(), 20.0, 1e-9);
}

TEST(ThreatModelTest, UnweightedRareThreatBarelyMovesDetection) {
  ThreatProfile profile;
  ThreatContribution common;
  common.threat = ThreatClass::kMediaFault;
  common.latent_interval = Duration::Hours(100.0);
  common.detection_interval = Duration::Hours(10.0);
  ThreatContribution rare;
  rare.threat = ThreatClass::kAttack;
  rare.latent_interval = Duration::Hours(1e6);
  rare.detection_interval = Duration::Hours(1e5);
  profile.contributions = {common, rare};
  const FaultParams p = CombineThreats(profile, 1.0);
  // Weighted: (1e-2*10 + 1e-6*1e5) / (1e-2 + 1e-6) ≈ 19.99... ≈ 20.
  EXPECT_NEAR(p.mdl.hours(), 20.0, 0.1);
}

TEST(ThreatModelTest, UndetectableLatentThreatDominatesMdl) {
  // §5.2: undetectable faults are the main vulnerability. A lost decryption
  // key (loss of context) has no detection process; the combined MDL must be
  // infinite regardless of how good the media audits are.
  ThreatProfile profile = MediaOnlyProfile(Duration::Days(30.0));
  ThreatContribution context;
  context.threat = ThreatClass::kLossOfContext;
  context.latent_interval = Duration::Years(50.0);
  context.detection_interval = Duration::Infinite();
  profile.contributions.push_back(context);
  const FaultParams p = CombineThreats(profile, 1.0);
  EXPECT_TRUE(p.mdl.is_infinite());
  // And the resulting MTTDL collapses to the saturated regime.
  EXPECT_EQ(ClassifyRegime(p), ModelRegime::kSaturatedWov);
}

TEST(ThreatModelTest, RepairTimesAreRateWeighted) {
  ThreatProfile profile;
  ThreatContribution quick;
  quick.threat = ThreatClass::kMediaFault;
  quick.visible_interval = Duration::Hours(100.0);
  quick.repair_time = Duration::Hours(1.0);
  ThreatContribution slow;
  slow.threat = ThreatClass::kComponentFault;
  slow.visible_interval = Duration::Hours(300.0);
  slow.repair_time = Duration::Hours(9.0);
  profile.contributions = {quick, slow};
  const FaultParams p = CombineThreats(profile, 1.0);
  // Rates 1/100 and 1/300: weights 3/4 and 1/4 -> 0.75*1 + 0.25*9 = 3.
  EXPECT_NEAR(p.mrv.hours(), 3.0, 1e-9);
}

TEST(ThreatModelTest, AlphaPassesThrough) {
  const FaultParams p = CombineThreats(MediaOnlyProfile(Duration::Days(30.0)), 0.25);
  EXPECT_DOUBLE_EQ(p.alpha, 0.25);
}

TEST(ThreatModelTest, EndToEndProfileIsWorseThanMediaOnly) {
  const Duration audit = Duration::Years(1.0 / 12.0);
  const FaultParams media = CombineThreats(MediaOnlyProfile(audit), 1.0);
  const FaultParams full =
      CombineThreats(EndToEndArchiveProfile(audit, Duration::Years(5.0)), 1.0);
  // The extra threats add fault rate on both axes and lengthen detection.
  EXPECT_LT(full.mv.hours(), media.mv.hours());
  EXPECT_LT(full.ml.hours(), media.ml.hours());
  EXPECT_GT(full.mdl.hours(), media.mdl.hours());
  EXPECT_LT(MttdlGeneral(full).hours(), MttdlGeneral(media).hours());
  EXPECT_FALSE(full.Validate().has_value());
}

TEST(ThreatModelTest, ValidationCatchesBadContributions) {
  ThreatProfile profile;
  ThreatContribution bad;
  bad.threat = ThreatClass::kMediaFault;
  bad.visible_interval = Duration::Zero();
  profile.contributions = {bad};
  EXPECT_TRUE(profile.Validate().has_value());
  EXPECT_THROW(CombineThreats(profile, 1.0), std::invalid_argument);

  bad.visible_interval = Duration::Hours(10.0);
  bad.repair_time = Duration::Infinite();
  profile.contributions = {bad};
  EXPECT_TRUE(profile.Validate().has_value());
}

TEST(ThreatModelTest, ContributionToStringNamesThreat) {
  ThreatContribution c;
  c.threat = ThreatClass::kHumanError;
  c.latent_interval = Duration::Years(10.0);
  EXPECT_NE(c.ToString().find("human error"), std::string::npos);
}

}  // namespace
}  // namespace longstore
