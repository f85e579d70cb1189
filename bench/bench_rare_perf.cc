// Rare-event estimator performance gate (run in CI).
//
// On the pinned rare-loss configuration (mission-loss probability ~2.4e-6
// per year, analytically known via the mirrored CTMC) the importance-sampled
// estimator must:
//   1. cover the exact value within its 95% CI, and
//   2. reach a fixed CI half-width in at most 1/10 the trials of naive
//      Monte Carlo — i.e. cut the per-trial variance by >= 10x, where the
//      naive indicator variance p(1-p) is computed from the exact p.
// Exit status is non-zero on violation so the CI step fails loudly.
//
// The same config and 10x bar are asserted by tests/rare_event_test.cc;
// this binary additionally reports wall-clock and the trials-to-target-CI
// table for the perf trajectory.

#include <chrono>
#include <cmath>
#include <cstdio>

#include "src/model/replica_ctmc.h"
#include "src/rare/pinned_configs.h"
#include "src/rare/rare_event.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;
  std::printf("%s", Heading("rare-perf", "importance sampling vs naive Monte Carlo "
                            "on the pinned rare-loss config")
                        .c_str());

  const Duration mission = Duration::Years(1.0);
  const auto exact = MirroredLossProbability(PinnedRareLossParams(), mission,
                                             RateConvention::kPhysical);
  if (!exact.has_value()) {
    std::fprintf(stderr, "FAIL: CTMC has no loss probability for the pinned config\n");
    return 1;
  }

  IsOptions options;
  FaultBias bias;
  bias.theta_latent = 16.0;
  bias.force_probability = 0.5;
  options.bias = bias;
  McConfig mc;
  mc.trials = 20000;
  mc.seed = 31337;

  const auto start = std::chrono::steady_clock::now();
  const IsLossProbabilityEstimate is =
      EstimateLossProbabilityIS(PinnedRareLossScenario(), mission, mc, options);
  const double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();

  // Trials to reach a 10%-of-p CI half-width (z = 1.96) for each estimator:
  // naive needs z^2 p(1-p) / (0.1 p)^2, IS needs z^2 var_w / (0.1 p)^2.
  const double z = 1.959964;
  const double target_half_width = 0.1 * *exact;
  const double naive_variance = *exact * (1.0 - *exact);
  const double is_variance = is.estimate.weighted.variance();
  const double naive_trials =
      z * z * naive_variance / (target_half_width * target_half_width);
  const double is_trials = z * z * is_variance / (target_half_width * target_half_width);
  const double variance_reduction = naive_variance / is_variance;

  Table table({"estimator", "P(loss in 1 y)", "per-trial variance",
               "trials to 10% CI", "speedup"});
  table.AddRow({"exact (CTMC)", Table::FmtSci(*exact), "-", "-", "-"});
  table.AddRow({"naive MC (indicator)", "-", Table::FmtSci(naive_variance),
                Table::FmtSci(naive_trials, 2), "1x"});
  table.AddRow({"importance sampled", Table::FmtSci(is.probability()),
                Table::FmtSci(is_variance), Table::FmtSci(is_trials, 2),
                Table::Fmt(variance_reduction, 1) + "x"});
  std::printf("%s", table.Render().c_str());
  std::printf("\nIS run: %lld trials, %lld hits, relerr %.3f, ESS %.1f, "
              "max weight %.3g, %.2f s\n",
              static_cast<long long>(is.estimate.trials),
              static_cast<long long>(is.estimate.hits), is.estimate.relative_error,
              is.estimate.effective_sample_size, is.estimate.max_weight, seconds);

  bool ok = true;
  if (!(is.estimate.ci.lo <= *exact && *exact <= is.estimate.ci.hi)) {
    std::fprintf(stderr, "FAIL: 95%% CI [%g, %g] does not cover the exact %g\n",
                 is.estimate.ci.lo, is.estimate.ci.hi, *exact);
    ok = false;
  }
  if (!(variance_reduction >= 10.0)) {
    std::fprintf(stderr,
                 "FAIL: variance reduction %.2fx is below the 10x gate "
                 "(naive %g vs IS %g)\n",
                 variance_reduction, naive_variance, is_variance);
    ok = false;
  }
  if (ok) {
    std::printf("\nPASS: covered, %.0fx fewer trials to equal CI (gate: 10x)\n",
                variance_reduction);
  }
  return ok ? 0 : 1;
}
