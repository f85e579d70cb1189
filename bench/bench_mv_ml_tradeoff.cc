// E9 (§5.4, implication 1): MTTDL varies quadratically with min(MV, ML) —
// "we must be careful not to sacrifice one for the other".
//
// Part 1: scale MV and ML independently and show the quadratic response to
// whichever is smaller. Part 2: an anti-correlated trade (hardware or
// detection-strategy choices that buy visible reliability by paying latent
// reliability, MV' = f*MV, ML' = ML/f) and the resulting optimum at the
// balance point.

#include <cmath>
#include <cstdio>
#include <vector>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E9 (§5.4)", "MTTDL is quadratic in min(MV, ML)").c_str());

  // Balanced starting point (MV = ML) with fast detection, so either axis can
  // become the bottleneck.
  FaultParams base;
  base.mv = Duration::Hours(1.0e6);
  base.ml = Duration::Hours(1.0e6);
  base.mrv = Duration::Minutes(20.0);
  base.mrl = Duration::Minutes(20.0);
  base.mdl = Duration::Hours(100.0);

  std::printf("Part 1: scale one axis at a time (other fixed at 1e6 h)\n");
  // One factor axis; each cell evaluates both single-axis scalings on the
  // shared worker pool (the growth ratios need the previous row, so they are
  // derived sequentially from the mapped values afterwards).
  const Scenario base_scenario =
      ScenarioBuilder()
          .Replicas(2, SpecFromParams(base).ScrubWith(ScrubPolicy::None()))
          .Correlation(base.alpha)
          .Build();
  // A point mutation giving every replica `params`' fault times.
  const auto scaled_to = [](const FaultParams& params) {
    return [params](Scenario& scenario) {
      for (ReplicaSpec& replica : scenario.replicas) {
        replica.FaultTimes(params.mv, params.ml);
      }
    };
  };
  // The cell carries the MV scaling; the Map callback recomputes it and
  // derives the ML variant from the same factor.
  SweepSpec scale_spec(base_scenario);
  scale_spec.AddAxis("factor f");
  for (double f : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    scale_spec.AddPoint(Table::Fmt(f, 2), f, scaled_to(ScaleFaultTimes(base, f, 1.0)));
  }
  struct ScaledPair {
    std::string label;
    double mv_years = 0.0;
    double ml_years = 0.0;
  };
  const std::vector<ScaledPair> scaled =
      SweepRunner().Map(scale_spec, [&base](const SweepSpec::Cell& cell) {
        const double f = cell.value("factor f");
        return ScaledPair{cell.label,
                          MttdlClosedForm(ScaleFaultTimes(base, f, 1.0)).years(),
                          MttdlClosedForm(ScaleFaultTimes(base, 1.0, f)).years()};
      });

  Table scale({"factor f", "MV = f*1e6 h: MTTDL", "growth", "ML = f*1e6 h: MTTDL",
               "growth"});
  double previous_mv = 0.0;
  double previous_ml = 0.0;
  for (const ScaledPair& pair : scaled) {
    scale.AddRow(
        {pair.label, Table::FmtYears(pair.mv_years, 0),
         previous_mv > 0.0 ? Table::Fmt(pair.mv_years / previous_mv, 3) + "x" : "",
         Table::FmtYears(pair.ml_years, 0),
         previous_ml > 0.0 ? Table::Fmt(pair.ml_years / previous_ml, 3) + "x" : ""});
    previous_mv = pair.mv_years;
    previous_ml = pair.ml_years;
  }
  std::printf("%s", scale.Render().c_str());
  std::printf("\nDoubling the *scarce* axis roughly quadruples MTTDL below the "
              "balance point and\napproaches 2x above it — the quadratic-in-the-"
              "minimum behaviour of eqs 9/10.\n\n");

  std::printf("Part 2: anti-correlated trade MV' = f*MV, ML' = ML/f (e.g. media or\n"
              "controller choices that trade silent corruption for whole-drive "
              "failures)\n");
  SweepSpec trade_spec(base_scenario);
  trade_spec.AddAxis("f (visible bias)");
  for (double f : {0.125, 0.25, 0.5, 1.0, 2.0, 4.0, 8.0}) {
    trade_spec.AddPoint(Table::Fmt(f, 3), f,
                        scaled_to(ScaleFaultTimes(base, f, 1.0 / f)));
  }
  struct TradeRow {
    double f = 0.0;
    double eq8_years = 0.0;
    std::vector<std::string> cells;
  };
  const std::vector<TradeRow> trade_rows =
      SweepRunner().Map(trade_spec, [&base](const SweepSpec::Cell& cell) {
        const double f = cell.value("f (visible bias)");
        const FaultParams p = ScaleFaultTimes(base, f, 1.0 / f);
        const Duration eq8 = MttdlClosedForm(p);
        const auto ctmc = MirroredMttdl(p, RateConvention::kPhysical);
        return TradeRow{f,
                        eq8.years(),
                        {cell.label, Table::FmtSci(p.mv.hours(), 1) + " h",
                         Table::FmtSci(p.ml.hours(), 1) + " h",
                         Table::FmtYears(eq8.years(), 0),
                         Table::FmtYears(ctmc->years(), 0)}};
      });

  Table trade({"f (visible bias)", "MV'", "ML'", "eq 8 MTTDL", "CTMC (physical)"});
  double best_f = 0.0;
  double best_mttdl = 0.0;
  for (const TradeRow& row : trade_rows) {
    if (row.eq8_years > best_mttdl) {
      best_mttdl = row.eq8_years;
      best_f = row.f;
    }
    trade.AddRow(row.cells);
  }
  std::printf("%s", trade.Render().c_str());
  std::printf(
      "\nThe optimum sits at f = %.3g: with fast detection the window sizes are\n"
      "comparable, so neither axis should be sacrificed — the paper's first\n"
      "implication. (With slow detection the optimum shifts toward protecting ML,\n"
      "because latent windows are the longer ones.)\n",
      best_f);
  return 0;
}
