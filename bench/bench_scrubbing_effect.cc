// E3 (§5.4, implications 2 and 3): the effect of scrubbing and correlation on
// the paper's running Cheetah example.
//
// Paper-reported values this bench regenerates:
//   no scrubbing:            MTTDL = 32.0 y,   P(loss in 50 y) = 79.0%
//   scrub 3x/year:           MTTDL = 6128.7 y, P(loss in 50 y) = 0.8%
//   scrub 3x/year, α = 0.1:  MTTDL = 612.9 y,  P(loss in 50 y) = 7.8%
//
// Columns: the paper's own equation choice (digit-for-digit reproduction),
// the full closed form (eq 8), the exact CTMC under both rate conventions,
// and a Monte Carlo run of the simulator (physical convention, exponential
// audits matching MDL). The Monte Carlo cells are tools/figure_sweeps.h's
// Cheetah sweep, the golden figure `sweep_fleet --cheetah` replays through
// a worker fleet and the sweep service answers from its cache.

#include <cstdio>
#include <string>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"
#include "tools/figure_sweeps.h"

namespace longstore {
namespace {

struct Case {
  const char* name;
  FaultParams params;
  double paper_mttdl_years;
  double paper_loss_50y;
};

std::string McCell(const SweepCellResult& cell) {
  const MttdlEstimate& estimate = *cell.mttdl;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.1f y +/- %.1f", estimate.mean_years(),
                (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0);
  return buf;
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s",
              Heading("E3 (§5.4)", "scrubbing and correlation on the Cheetah example "
                      "(MV=1.4e6 h, ML=MV/5, MRV=MRL=20 min)")
                  .c_str());

  const FaultParams unscrubbed = FaultParams::PaperCheetahExample();
  const FaultParams scrubbed =
      ApplyScrubPolicy(unscrubbed, ScrubPolicy::PeriodicPerYear(3.0));
  const FaultParams correlated = WithCorrelation(scrubbed, 0.1);

  const Case cases[] = {
      {"no scrubbing (MDL = inf)", unscrubbed, 32.0, 0.790},
      {"scrub 3x/year (MDL = 1460 h)", scrubbed, 6128.7, 0.008},
      {"scrub 3x/year, alpha = 0.1", correlated, 612.9, 0.078},
  };

  // All three Monte Carlo columns run as one sweep on the shared worker
  // pool; its cells carry the case names as labels.
  SweepSpec spec;
  SweepOptions options;
  BuildCheetahSweep(&spec, &options);
  const SweepResult sweep = SweepRunner().Run(spec, options);

  Table table({"configuration", "paper MTTDL", "our paper-eq", "eq 8", "CTMC (paper conv)",
               "CTMC (physical)", "MC sim (physical)"});
  for (const Case& c : cases) {
    const Duration choice = MttdlPaperChoice(c.params);
    const Duration closed = MttdlClosedForm(c.params);
    const auto ctmc_paper = MirroredMttdl(c.params, RateConvention::kPaper);
    const auto ctmc_physical = MirroredMttdl(c.params, RateConvention::kPhysical);
    table.AddRow({c.name, Table::FmtYears(c.paper_mttdl_years),
                  Table::FmtYears(choice.years()), Table::FmtYears(closed.years()),
                  Table::FmtYears(ctmc_paper->years()),
                  Table::FmtYears(ctmc_physical->years()),
                  McCell(sweep.ByLabel(c.name))});
  }
  std::printf("%s", table.Render().c_str());

  std::printf("\nProbability of data loss within a 50-year mission:\n");
  Table loss({"configuration", "paper", "our paper-eq", "CTMC (physical, exact)"});
  for (const Case& c : cases) {
    const auto exact =
        MirroredLossProbability(c.params, Duration::Years(50.0), RateConvention::kPhysical);
    loss.AddRow({c.name, Table::FmtPercent(c.paper_loss_50y),
                 Table::FmtPercent(LossProbability(MttdlPaperChoice(c.params),
                                                   Duration::Years(50.0))),
                 Table::FmtPercent(*exact)});
  }
  std::printf("%s", loss.Render().c_str());

  std::printf(
      "\nShape check: scrubbing buys ~2 orders of magnitude of MTTDL; correlation at\n"
      "alpha = 0.1 gives back exactly one of them. The CTMC columns are the exact\n"
      "values of the modeled process — the physical convention is ~2x below the\n"
      "paper convention (two fault clocks), and the paper's 32.0-year figure omits\n"
      "the wait for the second fault that the exact chain includes (58.6 y).\n"
      "Regime classifier: %s / %s / %s.\n",
      std::string(ModelRegimeName(ClassifyRegime(unscrubbed))).c_str(),
      std::string(ModelRegimeName(ClassifyRegime(scrubbed))).c_str(),
      std::string(ModelRegimeName(ClassifyRegime(correlated))).c_str());
  return 0;
}
