// E13 (§7 related work): erasure coding vs whole-data replication —
// Weatherspoon & Kubiatowicz's comparison run through this library's exact
// machinery.
//
// At equal storage overhead, an (n, m) code keeps n/m times the data size but
// tolerates n - m concurrent failures, versus r - 1 for r-way replication at
// overhead r. The paper's §7 cites this trade; here it is quantified with the
// same fault parameters as the §5.4 example so the numbers are commensurable
// with every other experiment.

#include <cstdio>
#include <vector>

#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

namespace longstore {
namespace {

// The (n, m) geometries are not a Cartesian product, so the sweep uses an
// explicit cell list; each cell's exact-CTMC solve runs on the shared
// worker pool.
void PrintComparison(const char* title, const FaultParams& p) {
  std::printf("--- %s ---\n", title);
  struct Scheme {
    const char* name;
    int n;
    int m;
  };
  const Scheme schemes[] = {
      {"2x replication", 2, 1},    {"3x replication", 3, 1},
      {"4x replication", 4, 1},    {"(4,2) erasure", 4, 2},
      {"(6,3) erasure", 6, 3},     {"(8,4) erasure", 8, 4},
      {"(8,2) erasure", 8, 2},     {"(12,3) erasure", 12, 3},
  };
  SweepSpec spec;
  for (const Scheme& scheme : schemes) {
    spec.AddCell(scheme.name,
                 ScenarioBuilder()
                     .Replicas(scheme.n, SpecFromParams(p).ScrubWith(ScrubPolicy::None()))
                     .RequiredIntact(scheme.m)
                     .Correlation(p.alpha)
                     .Build());
  }
  const std::vector<std::vector<std::string>> rows =
      SweepRunner().Map(spec, [&schemes, &p](const SweepSpec::Cell& cell) {
        const int n = schemes[cell.index].n;
        const int m = schemes[cell.index].m;
        const ReplicatedChainBuilder chain(p, n, RateConvention::kPhysical, m);
        const auto mttdl = chain.Mttdl();
        const double loss = LossProbability(*mttdl, Duration::Years(50.0));
        char overhead[16];
        std::snprintf(overhead, sizeof(overhead), "%.1fx",
                      static_cast<double>(n) / m);
        return std::vector<std::string>{
            cell.label, overhead, std::to_string(n - m) + " faults",
            mttdl->is_infinite() ? "inf" : Table::FmtYears(mttdl->years(), 0),
            Table::FmtSci(loss, 2)};
      });

  Table table({"scheme", "overhead", "tolerates", "MTTDL (CTMC)",
               "P(loss in 50 y)"});
  for (const std::vector<std::string>& row : rows) {
    table.AddRow(row);
  }
  std::printf("%s\n", table.Render().c_str());
}

}  // namespace
}  // namespace longstore

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E13 (§7)", "erasure coding vs replication at equal "
                            "storage overhead")
                        .c_str());

  const FaultParams scrubbed = ApplyScrubPolicy(
      FaultParams::PaperCheetahExample(), ScrubPolicy::PeriodicPerYear(3.0));
  PrintComparison("independent fragments (alpha = 1), scrubbed 3x/year", scrubbed);

  PrintComparison("correlated fragments (alpha = 0.1)",
                  WithCorrelation(scrubbed, 0.1));

  std::printf(
      "Reading: at 2x overhead, (4,2) beats plain mirroring by orders of magnitude\n"
      "(it tolerates 2 faults, the mirror 1) and (8,4) extends that again. The\n"
      "correlated table shows the same caveat as E6: fragment-level coding\n"
      "multiplies *windows*, so correlation erodes coding gains exactly as it\n"
      "erodes replication gains — placement independence matters more than the\n"
      "redundancy scheme. (Weatherspoon's model, which the paper cites, reaches\n"
      "the same ordering without latent or correlated faults.)\n");
  return 0;
}
