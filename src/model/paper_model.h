// The paper's analytic MTTDL model, implemented exactly as published
// (equations 1–12 of §5). These closed forms reproduce every number in the
// paper's evaluation digit-for-digit; the CTMC of replica_ctmc.h provides
// the exact answers for the same stochastic process, and the sweep engine's
// one-cell estimators (src/sweep) validate both by simulation.

#ifndef LONGSTORE_SRC_MODEL_PAPER_MODEL_H_
#define LONGSTORE_SRC_MODEL_PAPER_MODEL_H_

#include <string_view>

#include "src/model/fault_params.h"
#include "src/util/units.h"

namespace longstore {

// Conditional second-fault probabilities inside a window of vulnerability
// (equations 3–6, each multiplied by 1/α per §5.3). Values are clamped to 1
// jointly per first-fault type, mirroring the paper's note that
// P(V2 or L2 | L1) approaches 1 when MDL becomes large.
struct SecondFaultProbabilities {
  double v2_given_v1 = 0.0;  // eq 3: MRV / (α · MV)
  double l2_given_v1 = 0.0;  // eq 4: MRV / (α · ML)
  double v2_given_l1 = 0.0;  // eq 5: (MDL + MRL) / (α · MV)
  double l2_given_l1 = 0.0;  // eq 6: (MDL + MRL) / (α · ML)

  double AfterVisible() const { return v2_given_v1 + l2_given_v1; }
  double AfterLatent() const { return v2_given_l1 + l2_given_l1; }
};

SecondFaultProbabilities ComputeSecondFaultProbabilities(const FaultParams& p);

// The regimes of §5.4, each with its specialized closed form.
enum class ModelRegime {
  kVisibleDominatedNegligibleLatent,  // eq 9:  MTTDL ≈ α·MV² / MRV
  kLatentDominated,                   // eq 10: MTTDL ≈ α·ML² / (MRL + MDL)
  kVisibleDominatedLongWov,           // eq 11: MTTDL ≈ α·MV² / (MRV + MV²/ML)
  kSaturatedWov,                      // eq 7 with P(V2 or L2 | L1) ≈ 1
  kLinearSmallWindows,                // eq 8 verbatim (no term dominates)
};

std::string_view ModelRegimeName(ModelRegime regime);

// General double-fault rate, equation 7, with the per-window probabilities
// clamped at 1 (saturation). Handles MDL = ∞ (no detection: every latent
// fault's window is unbounded, P(second | L1) = 1), which is how the paper
// evaluates the no-scrubbing case. This is the recommended entry point.
Duration MttdlGeneral(const FaultParams& p);

// Closed form, equation 8. Only valid while every window of vulnerability is
// small relative to the fault interarrival times (no saturation); returns the
// algebraic value without clamping so tests can probe its validity limits.
Duration MttdlClosedForm(const FaultParams& p);

// Specializations (equations 9, 10, 11). Each returns the paper's formula
// verbatim; callers are responsible for regime fit (see ClassifyRegime).
// Note on eq 11: as published, MTTDL ≈ α·MV²/(MRV + MV²/ML) keeps the 1/α
// correlation factor on the saturated latent term (equivalent to
// P(V2 or L2 | L1) = 1/α rather than 1). MttdlGeneral instead clamps the
// α-scaled probability at 1, which is the physically consistent reading; the
// two differ by up to a factor 1/α in the visible-dominated saturated regime
// (159.8 y published vs 1598 y clamped for the §5.4 negligent example).
// bench_negligent_latent prints this gap against the exact CTMC.
Duration MttdlVisibleDominant(const FaultParams& p);   // eq 9
Duration MttdlLatentDominant(const FaultParams& p);    // eq 10
Duration MttdlVisibleLongWov(const FaultParams& p);    // eq 11

// Picks the §5.4 regime for the given parameters using the paper's own
// criteria: saturation when the latent window is not small relative to ML;
// otherwise latent- vs visible-dominated by comparing ML and MV; within the
// visible-dominated branch, eq 11 when latent faults are non-negligible.
ModelRegime ClassifyRegime(const FaultParams& p);

// Applies the approximation the paper would use for this regime: the general
// eq 7 for saturated windows, eq 10 / eq 11 / eq 9 otherwise. This is the
// function that reproduces §5.4's 32.0 y, 6128.7 y, 612.9 y and 159.8 y.
Duration MttdlPaperChoice(const FaultParams& p);

// Equation 12: r-way replication with correlated faults,
// MTTDL = α^(r-1) · MV^r / MRV^(r-1). The paper derives it for visible faults
// with fully-overlapping vulnerability windows and MDL ≈ 0.
Duration MttdlReplicated(const FaultParams& p, int replicas);

// Probability of data loss within `mission` (equation 1 applied to MTTDL),
// e.g. 79.0% over 50 years when MTTDL = 32.0 years.
double LossProbability(Duration mttdl, Duration mission);

}  // namespace longstore

#endif  // LONGSTORE_SRC_MODEL_PAPER_MODEL_H_
