// E11: the validation triangle — paper closed forms vs exact CTMC vs Monte
// Carlo simulation, across regimes.
//
// The paper's equations are linearized approximations of a stochastic
// process; the CTMC solves that process exactly (for exponential detection),
// and the discrete-event simulator samples it. This bench quantifies every
// gap: where the published closed forms hold and by what factor they drift.
//
// All five scenarios run as one explicit-cell sweep on the shared worker
// pool (kSharedRoot seeding keeps each scenario's trial streams — and hence
// the printed numbers — identical to the pre-sweep per-call revision), and
// the analytic columns are evaluated concurrently via SweepRunner::Map.

#include <cstdio>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

namespace longstore {
namespace {

struct ValidationCase {
  const char* name;
  FaultParams params;
};

FaultParams Make(double mv, double ml, double mrv, double mdl, double alpha) {
  FaultParams p;
  p.mv = Duration::Hours(mv);
  p.ml = Duration::Hours(ml);
  p.mrv = Duration::Hours(mrv);
  p.mrl = Duration::Hours(mrv);
  p.mdl = Duration::Hours(mdl);
  p.alpha = alpha;
  return p;
}

// The analytic side of the triangle, one solve per scenario cell.
struct AnalyticRow {
  double paper_choice_hours = 0.0;
  double eq8_hours = 0.0;
  double ctmc_paper_hours = 0.0;
  double ctmc_physical_hours = 0.0;
};

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E11", "validation triangle: closed forms vs CTMC vs "
                            "Monte Carlo (mirrored pair)")
                        .c_str());

  // Time-compressed scenarios covering each §5.4 regime (structure preserved,
  // absolute scales shrunk so MC trials are cheap).
  const ValidationCase scenarios[] = {
      {"latent-dominated, scrubbed (eq 10 regime)",
       Make(2000.0, 400.0, 2.0, 40.0, 1.0)},
      {"latent-dominated, correlated", Make(2000.0, 400.0, 2.0, 40.0, 0.2)},
      {"visible-dominated, negligible latent (eq 9)",
       Make(500.0, 500000.0, 5.0, 10.0, 1.0)},
      {"balanced rates (eq 8)", Make(1000.0, 1000.0, 2.0, 30.0, 1.0)},
      {"saturated latent window (eq 7, P~1)", Make(2000.0, 400.0, 2.0, 2000.0, 1.0)},
  };

  SweepSpec spec;
  for (const ValidationCase& scenario : scenarios) {
    spec.AddCell(scenario.name, ScenarioBuilder()
                                    .Replicas(2, SpecFromParams(scenario.params))
                                    .Correlation(scenario.params.alpha)
                                    .Build());
  }

  SweepOptions options;
  options.estimand = SweepOptions::Estimand::kMttdl;
  options.mc.trials = 5000;
  options.mc.seed = 1111;
  options.seed_mode = SweepOptions::SeedMode::kSharedRoot;

  SweepRunner runner;
  const SweepResult mc_result = runner.Run(spec, options);
  const std::vector<AnalyticRow> analytic =
      runner.Map(spec, [&scenarios](const SweepSpec::Cell& cell) {
        const FaultParams& p = scenarios[cell.index].params;
        AnalyticRow row;
        row.paper_choice_hours = MttdlPaperChoice(p).hours();
        row.eq8_hours = MttdlClosedForm(p).hours();
        row.ctmc_paper_hours = MirroredMttdl(p, RateConvention::kPaper)->hours();
        row.ctmc_physical_hours = MirroredMttdl(p, RateConvention::kPhysical)->hours();
        return row;
      });

  Table table({"scenario", "paper-eq", "eq 8", "CTMC paper-conv", "CTMC physical",
               "MC physical (+/- CI)", "eq8 / CTMCp"});
  for (size_t i = 0; i < mc_result.cells.size(); ++i) {
    const AnalyticRow& row = analytic[i];
    const MttdlEstimate& estimate = *mc_result.cells[i].mttdl;
    char mc_cell[64];
    std::snprintf(mc_cell, sizeof(mc_cell), "%.3g +/- %.2g h",
                  estimate.mean_years() * kHoursPerYear,
                  (estimate.ci_years.hi - estimate.ci_years.lo) / 2.0 * kHoursPerYear);
    table.AddRow({mc_result.cells[i].label, Table::Fmt(row.paper_choice_hours, 4) + " h",
                  Table::Fmt(row.eq8_hours, 4) + " h",
                  Table::Fmt(row.ctmc_paper_hours, 4) + " h",
                  Table::Fmt(row.ctmc_physical_hours, 4) + " h", mc_cell,
                  Table::Fmt(row.eq8_hours / row.ctmc_paper_hours, 3)});
  }
  std::printf("%s", table.Render().c_str());

  std::printf(
      "\nExpected structure of the gaps:\n"
      "  - eq 8 tracks the paper-convention CTMC to first order in the window/\n"
      "    interarrival ratios (final column ~1 in the linear regimes, drifting\n"
      "    where windows saturate);\n"
      "  - the physical convention (both replicas' clocks ticking) sits at ~1/2 of\n"
      "    the paper convention throughout — a constant-factor convention choice,\n"
      "    not a modelling disagreement;\n"
      "  - the Monte Carlo column brackets the physical CTMC within its CI, which\n"
      "    validates the simulator against the exact solution of the same process.\n");
  return 0;
}
