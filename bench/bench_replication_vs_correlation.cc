// E6 (§5.5, equation 12): replication's geometric gains vs correlation's
// geometric losses.
//
// Equation 12: MTTDL = α^(r-1) · MV^r / MRV^(r-1). Each extra replica
// multiplies MTTDL by α·MV/MRV — so correlation (α << 1) cancels replication
// factor-for-factor. This bench prints the full r x α grid from eq 12 and
// from the exact r-way CTMC (paper convention, eq 12's own setting), then a
// second grid with latent faults and realistic detection latency (physical
// convention) exposing the cascade regime where replication *backfires*.

#include <cstdio>
#include <iterator>
#include <vector>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

namespace longstore {
namespace {

constexpr double kAlphas[] = {1.0, 0.1, 0.01, 0.001};

// The replicas x alpha grid as a two-axis sweep; each cell's exact-CTMC
// solve runs concurrently on the shared worker pool (24 GTH eliminations
// per grid, one per cell).
void PrintGrid(const char* title, const FaultParams& base,
               RateConvention convention, bool show_eq12) {
  std::printf("--- %s ---\n", title);
  SweepSpec spec(ScenarioBuilder()
                     .Replicas(2, SpecFromParams(base).ScrubWith(ScrubPolicy::None()))
                     .Correlation(base.alpha)
                     .Build());
  spec.AddAxis("replicas");
  for (int r = 1; r <= 6; ++r) {
    spec.AddPoint(std::to_string(r), static_cast<double>(r), [r](Scenario& scenario) {
      const ReplicaSpec replica = scenario.replicas.front();
      scenario.replicas.assign(static_cast<size_t>(r), replica);
    });
  }
  spec.AddAxis("alpha");
  for (double alpha : kAlphas) {
    spec.AddPoint("alpha=" + Table::Fmt(alpha, 3), alpha,
                  [alpha](Scenario& scenario) { scenario.alpha = alpha; });
  }

  const std::vector<std::string> grid_cells =
      SweepRunner().Map(spec, [&](const SweepSpec::Cell& cell) -> std::string {
        const FaultParams p = WithCorrelation(base, cell.value("alpha"));
        const int r = cell.scenario.replica_count();
        const ReplicatedChainBuilder chain(p, r, convention);
        const auto mttdl = chain.Mttdl();
        auto fmt_years = [](const Duration& d) -> std::string {
          if (d.is_infinite()) {
            return "inf";
          }
          return d.years() < 1e5 ? Table::FmtYears(d.years(), 1)
                                 : Table::FmtSci(d.years(), 2) + " y";
        };
        std::string text = fmt_years(*mttdl);
        if (show_eq12 && r >= 2) {
          text += " (eq12 " + fmt_years(MttdlReplicated(p, r)) + ")";
        }
        return text;
      });

  // Cells are row-major (replicas outer, alpha inner): row r starts at
  // index r * |alphas|.
  constexpr size_t kAlphaCount = std::size(kAlphas);
  Table table({"replicas", "alpha=1", "alpha=0.1", "alpha=0.01", "alpha=0.001"});
  for (int r = 1; r <= 6; ++r) {
    std::vector<std::string> row = {std::to_string(r)};
    for (size_t a = 0; a < kAlphaCount; ++a) {
      row.push_back(grid_cells[static_cast<size_t>(r - 1) * kAlphaCount + a]);
    }
    table.AddRow(std::move(row));
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E6 (§5.5)", "replication level x correlation factor")
                        .c_str());

  // Equation 12's setting: visible faults only, instant detection, serial
  // repair, Cheetah MV and MRV.
  FaultParams visible_only;
  visible_only.mv = Duration::Hours(1.4e6);
  visible_only.ml = Duration::Hours(1e30);
  visible_only.mrv = Duration::Minutes(20.0);
  visible_only.mrl = Duration::Zero();
  visible_only.mdl = Duration::Zero();
  PrintGrid("visible faults only (eq 12's setting): CTMC (paper convention) vs eq 12",
            visible_only, RateConvention::kPaper, /*show_eq12=*/true);

  std::printf("Each extra replica multiplies MTTDL by alpha*MV/MRV = alpha * 4.2e6;\n"
              "alpha = 0.001 erases ~3 of the ~6.6 orders of magnitude per step.\n\n");

  // Realistic setting: latent faults (5x rate), scrubbed every 4 months.
  const FaultParams realistic = ApplyScrubPolicy(
      FaultParams::PaperCheetahExample(), ScrubPolicy::PeriodicPerYear(3.0));
  PrintGrid("with latent faults + 3x/year scrubbing (physical convention)", realistic,
            RateConvention::kPhysical, /*show_eq12=*/false);

  std::printf(
      "Note the alpha = 0.01 and 0.001 columns: MTTDL *decreases* as replicas are\n"
      "added. With strong correlation and a 1460-hour detection window, the first\n"
      "fault triggers a near-certain cascade across every surviving replica before\n"
      "any audit fires, so extra replicas only hasten the first fault. This is the\n"
      "quantitative sharpening of the paper's conclusion that \"simply increasing\n"
      "the replication is not enough if we do not also ensure the independence of\n"
      "the replicas\" (§4.2): without independence it can be actively harmful.\n");
  return 0;
}
