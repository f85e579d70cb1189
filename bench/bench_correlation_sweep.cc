// E4 (§5.4, implication 3): correlation is a multiplicative factor spanning
// at least five orders of magnitude.
//
// The paper bounds plausible α between 1 (independent) and 10·MRV/MV ≈ 2e-6
// (second fault barely slower than recovery, e.g. a buggy RAID firmware
// recovery path). This bench sweeps α across that range on the scrubbed
// Cheetah example and reports MTTDL and 50-year loss probability from the
// paper's eq 10, the closed form, and the exact CTMC.

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
  std::printf("%s", Heading("E4 (§5.4)", "correlation factor sweep on the scrubbed "
                            "Cheetah example")
                        .c_str());

  const FaultParams base = ApplyScrubPolicy(FaultParams::PaperCheetahExample(),
                                            ScrubPolicy::PeriodicPerYear(3.0));
  std::printf("alpha lower bound 10*MRV/MV = %.2e (the paper quotes ~2e-6, a range of"
              "\nat least 5 orders of magnitude)\n\n",
              base.AlphaLowerBound());

  // The alpha axis as a sweep grid; the four analytic columns are evaluated
  // per cell on the shared worker pool.
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, SpecFromParams(base).ScrubWith(ScrubPolicy::None()))
                     .Correlation(base.alpha)
                     .Build());
  spec.AddAxis("alpha");
  for (double alpha : {1.0, 0.5, 0.1, 1e-2, 1e-3, 1e-4, 1e-5, 2.4e-6}) {
    spec.AddPoint(Table::FmtSci(alpha, 1), alpha,
                  [alpha](Scenario& scenario) { scenario.alpha = alpha; });
  }

  const std::vector<std::vector<std::string>> rows =
      SweepRunner().Map(spec, [&base](const SweepSpec::Cell& cell) {
        const FaultParams p = WithCorrelation(base, cell.value("alpha"));
        const Duration eq10 = MttdlLatentDominant(p);
        const Duration choice = MttdlPaperChoice(p);
        const auto ctmc = MirroredMttdl(p, RateConvention::kPhysical);
        const auto loss =
            MirroredLossProbability(p, Duration::Years(50.0), RateConvention::kPhysical);
        return std::vector<std::string>{
            cell.label, Table::FmtYears(eq10.years()), Table::FmtYears(choice.years()),
            Table::FmtYears(ctmc->years()), Table::FmtPercent(*loss, 2)};
      });

  Table table({"alpha", "eq 10 MTTDL", "paper-eq MTTDL", "CTMC (physical)",
               "P(loss in 50 y, CTMC)"});
  for (const std::vector<std::string>& row : rows) {
    table.AddRow(row);
  }
  std::printf("%s", table.Render().c_str());

  std::printf(
      "\nPaper anchors: alpha = 1 -> 6128.7 y (0.8%%); alpha = 0.1 -> 612.9 y (7.8%%).\n"
      "MTTDL scales linearly in alpha until the window saturates (a second fault\n"
      "inside the 1460-hour detection window becomes near-certain); past that point\n"
      "extra correlation can no longer hurt — the CTMC column shows the floor that\n"
      "the linear eq 10 extrapolation misses, i.e. replication has been fully\n"
      "neutralized and MTTDL collapses toward the time to the first latent fault.\n");
  return 0;
}
