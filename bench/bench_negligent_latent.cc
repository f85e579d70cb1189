// E5 (§5.4, implication 4): even infrequent latent faults are dangerous when
// the system is negligent about detecting them.
//
// Paper case: ML = 1.4e7 h (latent faults 10x *less* frequent than visible),
// MV = 1.4e6 h, MRV = 20 min, α = 0.1, no detection. Equation 11 gives
// MTTDL = 159.8 years and a 26.8% chance of loss in 50 years — against
// millions of years if latent faults were handled.
//
// The four configurations are a SweepSpec of explicit cells; the exact-CTMC
// column is evaluated concurrently on the worker pool via SweepRunner::Map
// (no trials — this bench is purely analytic).

#include <cstdio>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E5 (§5.4)", "negligent latent-fault handling "
                            "(ML = 1.4e7 h, alpha = 0.1, no detection)")
                        .c_str());

  FaultParams negligent = FaultParams::PaperCheetahExample();
  negligent.ml = Duration::Hours(1.4e7);
  negligent.alpha = 0.1;

  // The same system with latent faults audited monthly.
  const FaultParams diligent =
      ApplyScrubPolicy(negligent, ScrubPolicy::PeriodicPerYear(12.0));

  // And a hypothetical system with no latent faults at all (eq 9's world).
  FaultParams no_latent = negligent;
  no_latent.ml = Duration::Hours(1e30);

  struct Row {
    const char* name;
    const char* equation;
    Duration mttdl;
    FaultParams params;
  };
  const Row rows[] = {
      {"negligent (paper eq 11; published 159.8 y / 26.8%)", "eq 11",
       MttdlVisibleLongWov(negligent), negligent},
      {"negligent (clamped eq 7: P(2nd|L1) capped at 1)", "eq 7",
       MttdlGeneral(negligent), negligent},
      {"monthly scrubbing added", "eq 8", MttdlClosedForm(diligent), diligent},
      {"no latent faults at all", "eq 9", MttdlVisibleDominant(no_latent), no_latent},
  };

  SweepSpec spec;
  for (const Row& row : rows) {
    spec.AddCell(row.name, ScenarioBuilder()
                               .Replicas(2, SpecFromParams(row.params)
                                                .ScrubWith(ScrubPolicy::None()))
                               .Correlation(row.params.alpha)
                               .Build());
  }
  const std::vector<double> ctmc_years =
      SweepRunner().Map(spec, [&rows](const SweepSpec::Cell& cell) {
        return MirroredMttdl(rows[cell.index].params, RateConvention::kPhysical)
            ->years();
      });

  Table table({"configuration", "equation", "MTTDL", "P(loss in 50 y)",
               "CTMC (physical)"});
  for (size_t i = 0; i < std::size(rows); ++i) {
    const Row& row = rows[i];
    table.AddRow({row.name, row.equation, Table::FmtYears(row.mttdl.years()),
                  Table::FmtPercent(LossProbability(row.mttdl, Duration::Years(50.0))),
                  Table::FmtYears(ctmc_years[i])});
  }
  std::printf("%s", table.Render().c_str());

  std::printf(
      "\nEven though latent faults are 10x rarer than visible ones here, ignoring\n"
      "them costs ~4 orders of magnitude of MTTDL versus the latent-free ideal,\n"
      "and ~2 orders versus simply scrubbing monthly. Note the published eq 11\n"
      "retains the 1/alpha factor on the saturated latent term (P = 1/alpha rather\n"
      "than P = 1); the clamped eq 7 row and the exact CTMC bracket the published\n"
      "value — the conclusion is unchanged in every reading.\n"
      "Regime classifier: %s.\n",
      std::string(ModelRegimeName(ClassifyRegime(negligent))).c_str());
  return 0;
}
