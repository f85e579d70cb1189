// Locks the model to every number published in the paper's §5.4 evaluation.

#include "src/model/paper_model.h"

#include <gtest/gtest.h>

#include "src/model/strategies.h"

namespace longstore {
namespace {

// §5.4's running example: Cheetah MV = 1.4e6 h, ML = MV/5, MRV = MRL = 20 min.
FaultParams Unscrubbed() { return FaultParams::PaperCheetahExample(); }

FaultParams ScrubbedThreePerYear() {
  // "if we scrub a replica 3 times a year ... MDL is 1460 hours (which is
  // half of the scrubbing period)".
  return ApplyScrubPolicy(Unscrubbed(), ScrubPolicy::PeriodicPerYear(3.0));
}

TEST(PaperNumbersTest, ScrubPolicyGives1460HourMdl) {
  EXPECT_NEAR(ScrubbedThreePerYear().mdl.hours(), 1460.0, 0.5);
}

TEST(PaperNumbersTest, UnscrubbedMttdlIs32Years) {
  // "we achieve an MTTDL = 32.0 years"
  const Duration mttdl = MttdlGeneral(Unscrubbed());
  EXPECT_NEAR(mttdl.years(), 32.0, 0.05);
  // "This gives a 79.0% probability of data loss in 50 years"
  EXPECT_NEAR(LossProbability(mttdl, Duration::Years(50.0)), 0.790, 0.002);
}

TEST(PaperNumbersTest, UnscrubbedUsesSaturatedRegime) {
  EXPECT_EQ(ClassifyRegime(Unscrubbed()), ModelRegime::kSaturatedWov);
  EXPECT_NEAR(MttdlPaperChoice(Unscrubbed()).years(), 32.0, 0.05);
}

TEST(PaperNumbersTest, ScrubbedMttdlIs6128Years) {
  // "With no correlated errors, MTTDL = 6128.7 years, which gives a 0.8%
  // chance of data loss in 50 years" (equation 10).
  const Duration mttdl = MttdlLatentDominant(ScrubbedThreePerYear());
  EXPECT_NEAR(mttdl.years(), 6128.7, 1.0);
  EXPECT_NEAR(LossProbability(mttdl, Duration::Years(50.0)), 0.008, 3e-4);
}

TEST(PaperNumbersTest, ScrubbedUsesLatentDominatedRegime) {
  EXPECT_EQ(ClassifyRegime(ScrubbedThreePerYear()), ModelRegime::kLatentDominated);
  EXPECT_NEAR(MttdlPaperChoice(ScrubbedThreePerYear()).years(), 6128.7, 1.0);
}

TEST(PaperNumbersTest, CorrelationPointOneGives612Years) {
  // "assume α = 0.1 ... MTTDL = 612.9 years, which gives a 7.8% chance of
  // data loss in 50 years".
  const FaultParams p = WithCorrelation(ScrubbedThreePerYear(), 0.1);
  const Duration mttdl = MttdlPaperChoice(p);
  EXPECT_NEAR(mttdl.years(), 612.9, 0.2);
  EXPECT_NEAR(LossProbability(mttdl, Duration::Years(50.0)), 0.078, 1e-3);
}

TEST(PaperNumbersTest, AlphaLowerBoundIsTwoEMinusSix) {
  // "1 >= α >= 2e-6, which gives a range of at least 5 orders of magnitude".
  const double bound = Unscrubbed().AlphaLowerBound();
  EXPECT_NEAR(bound, 2.38e-6, 0.05e-6);
  EXPECT_GT(bound, 1e-6);
  EXPECT_LT(bound, 1e-5);
}

TEST(PaperNumbersTest, NegligentLatentHandlingGives159Years) {
  // "if ML = 1.4e7, MV and MRV remain the same, and α = 0.1, then
  // MTTDL = 159.8 years, leading to a 26.8% probability of data loss in 50
  // years" (equation 11).
  FaultParams p = Unscrubbed();
  p.ml = Duration::Hours(1.4e7);
  p.alpha = 0.1;
  const Duration mttdl = MttdlVisibleLongWov(p);
  EXPECT_NEAR(mttdl.years(), 159.8, 0.1);
  EXPECT_NEAR(LossProbability(mttdl, Duration::Years(50.0)), 0.268, 2e-3);
}

TEST(PaperNumbersTest, NegligentCaseClassifiesToEq11) {
  FaultParams p = Unscrubbed();
  p.ml = Duration::Hours(1.4e7);
  p.alpha = 0.1;
  EXPECT_EQ(ClassifyRegime(p), ModelRegime::kVisibleDominatedLongWov);
  EXPECT_NEAR(MttdlPaperChoice(p).years(), 159.8, 0.1);
}

TEST(PaperNumbersTest, CheetahMrvIsTwentyMinutes) {
  // The paper derives MRV = 20 min for a 146 GB drive; that corresponds to
  // an effective rebuild bandwidth of ~122 MB/s.
  EXPECT_NEAR(RebuildTime(146.0, 121.7).minutes(), 20.0, 0.1);
  EXPECT_NEAR(Unscrubbed().mrv.minutes(), 20.0, 1e-9);
}

TEST(SecondFaultProbabilitiesTest, MatchEquations3Through6) {
  const FaultParams p = ScrubbedThreePerYear();
  const SecondFaultProbabilities probs = ComputeSecondFaultProbabilities(p);
  // eq 3: MRV / MV, eq 4: MRV / ML (α = 1).
  EXPECT_NEAR(probs.v2_given_v1, p.mrv.hours() / p.mv.hours(), 1e-15);
  EXPECT_NEAR(probs.l2_given_v1, p.mrv.hours() / p.ml.hours(), 1e-15);
  // eq 5: (MDL + MRL) / MV, eq 6: (MDL + MRL) / ML.
  const double wov = p.mdl.hours() + p.mrl.hours();
  EXPECT_NEAR(probs.v2_given_l1, wov / p.mv.hours(), 1e-12);
  EXPECT_NEAR(probs.l2_given_l1, wov / p.ml.hours(), 1e-12);
}

TEST(SecondFaultProbabilitiesTest, CorrelationDividesByAlpha) {
  const FaultParams base = ScrubbedThreePerYear();
  const FaultParams corr = WithCorrelation(base, 0.1);
  const auto p0 = ComputeSecondFaultProbabilities(base);
  const auto p1 = ComputeSecondFaultProbabilities(corr);
  EXPECT_NEAR(p1.v2_given_v1, 10.0 * p0.v2_given_v1, 1e-15);
  EXPECT_NEAR(p1.l2_given_l1, 10.0 * p0.l2_given_l1, 1e-12);
}

TEST(SecondFaultProbabilitiesTest, SaturatesAtOneForUnboundedWindow) {
  const auto probs = ComputeSecondFaultProbabilities(Unscrubbed());
  EXPECT_NEAR(probs.AfterLatent(), 1.0, 1e-12);
  EXPECT_LT(probs.AfterVisible(), 1e-5);
}

TEST(ClosedFormTest, MatchesGeneralInLinearRegime) {
  // Where no window saturates, eq 8 and eq 7 agree to first order.
  const FaultParams p = ScrubbedThreePerYear();
  const double closed = MttdlClosedForm(p).years();
  const double general = MttdlGeneral(p).years();
  EXPECT_NEAR(closed / general, 1.0, 1e-9);
}

TEST(ClosedFormTest, Equation8AlgebraicValue) {
  // Direct substitution into eq 8 for the scrubbed example.
  const FaultParams p = ScrubbedThreePerYear();
  const double mv = 1.4e6;
  const double ml = 2.8e5;
  const double mrv = 1.0 / 3.0;
  const double wov = 1460.0 + 1.0 / 3.0;
  const double expected =
      ml * ml * mv * mv / ((mv + ml) * (mrv * ml + wov * mv));
  EXPECT_NEAR(MttdlClosedForm(p).hours(), expected, expected * 1e-9);
}

TEST(RaidRegimeTest, Equation9MatchesOriginalRaidModel) {
  // Visible-dominated, negligible latent: eq 9 reduces to Patterson's
  // MTTF²/MTTR form (with α = 1).
  FaultParams p;
  p.mv = Duration::Hours(1.0e5);
  p.ml = Duration::Hours(1.0e12);  // latent faults essentially absent
  p.mrv = Duration::Hours(10.0);
  p.mrl = Duration::Hours(10.0);
  p.mdl = Duration::Hours(100.0);
  EXPECT_EQ(ClassifyRegime(p), ModelRegime::kVisibleDominatedNegligibleLatent);
  EXPECT_NEAR(MttdlVisibleDominant(p).hours(), 1.0e9, 1.0);
  // The general form agrees within the latent contribution's tiny share.
  EXPECT_NEAR(MttdlGeneral(p).hours() / 1.0e9, 1.0, 0.01);
}

TEST(ReplicationTest, Equation12Values) {
  FaultParams p;
  p.mv = Duration::Hours(1.4e6);
  p.ml = Duration::Hours(1e30);  // eq 12 is a visible-fault model
  p.mrv = Duration::Minutes(20.0);
  p.mrl = Duration::Zero();
  p.mdl = Duration::Zero();

  // r = 2, α = 1: MV² / MRV.
  EXPECT_NEAR(MttdlReplicated(p, 2).hours(), 1.4e6 * 1.4e6 / (1.0 / 3.0),
              1e6);
  // Each extra replica multiplies by α·MV/MRV.
  const double step = p.alpha * 1.4e6 / (1.0 / 3.0);
  EXPECT_NEAR(MttdlReplicated(p, 3).hours() / MttdlReplicated(p, 2).hours(), step,
              step * 1e-9);

  // Correlation raises each step by α.
  p.alpha = 0.01;
  const double corr_step = 0.01 * 1.4e6 / (1.0 / 3.0);
  EXPECT_NEAR(MttdlReplicated(p, 4).hours() / MttdlReplicated(p, 3).hours(),
              corr_step, corr_step * 1e-9);
}

TEST(ReplicationTest, SingleReplicaIsFirstFaultTime) {
  FaultParams p = ScrubbedThreePerYear();
  const double rate = 1.0 / p.mv.hours() + 1.0 / p.ml.hours();
  EXPECT_NEAR(MttdlReplicated(p, 1).hours(), 1.0 / rate, 1e-6);
}

TEST(ReplicationTest, LargeReplicaCountSaturatesToInfinity) {
  // 50 replicas of reliable media exceed double range; the model reports
  // infinity rather than overflowing into NaN territory.
  FaultParams p = ScrubbedThreePerYear();
  const Duration mttdl = MttdlReplicated(p, 50);
  EXPECT_TRUE(mttdl.is_infinite());
  EXPECT_FALSE(std::isnan(mttdl.hours()));
}

TEST(ReplicationTest, InvalidReplicasThrow) {
  EXPECT_THROW(MttdlReplicated(ScrubbedThreePerYear(), 0), std::invalid_argument);
}

TEST(ModelRegimeTest, NamesAreDescriptive) {
  EXPECT_NE(ModelRegimeName(ModelRegime::kLatentDominated).find("eq 10"),
            std::string_view::npos);
  EXPECT_NE(ModelRegimeName(ModelRegime::kSaturatedWov).find("eq 7"),
            std::string_view::npos);
}

TEST(FaultParamsValidationTest, RejectsBadInputs) {
  FaultParams p = FaultParams::PaperCheetahExample();
  EXPECT_FALSE(p.Validate().has_value());

  FaultParams bad = p;
  bad.mv = Duration::Zero();
  EXPECT_TRUE(bad.Validate().has_value());

  bad = p;
  bad.alpha = 0.0;
  EXPECT_TRUE(bad.Validate().has_value());
  bad.alpha = 1.5;
  EXPECT_TRUE(bad.Validate().has_value());

  bad = p;
  bad.mrv = Duration::Infinite();
  EXPECT_TRUE(bad.Validate().has_value());

  bad = p;
  bad.mdl = Duration::Hours(-1.0);
  EXPECT_TRUE(bad.Validate().has_value());

  EXPECT_THROW(MttdlGeneral(bad), std::invalid_argument);
}

}  // namespace
}  // namespace longstore
