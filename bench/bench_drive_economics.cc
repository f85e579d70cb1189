// E7 (§6.1): increase MV or ML — consumer vs enterprise drives.
//
// Paper claims regenerated here:
//   - Barracuda: 7% 5-year fault probability, UBER 1e-14, $0.57/GB;
//   - Cheetah:   3% 5-year fault probability, UBER 1e-15, $8.20/GB (~14x);
//   - at a 99%-idle 5-year life, "about 8" vs "about 6" irrecoverable bit
//     errors (our arithmetic with the paper's own quoted bandwidths gives
//     8.2 vs 3.8 — same order, same conclusion);
//   - conclusion: the 14x premium buys ~half the fault probability, so more
//     (sufficiently independent) consumer replicas win per dollar.

#include <cstdio>

#include "src/drives/cost_model.h"
#include "src/drives/drive_specs.h"
#include "src/drives/offline_media.h"
#include "src/model/replica_ctmc.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E7 (§6.1)", "consumer vs enterprise drives").c_str());

  const DriveSpec barracuda = SeagateBarracuda200Gb();
  const DriveSpec cheetah = SeagateCheetah146Gb();

  Table specs({"metric", "Barracuda (consumer)", "Cheetah (enterprise)", "ratio"});
  specs.AddRow({"capacity", "200 GB", "146 GB", ""});
  specs.AddRow({"price / GB", Table::Fmt(barracuda.price_per_gb(), 3),
                Table::Fmt(cheetah.price_per_gb(), 3),
                Table::Fmt(cheetah.price_per_gb() / barracuda.price_per_gb(), 3)});
  specs.AddRow({"5-year fault probability",
                Table::FmtPercent(barracuda.five_year_fault_probability),
                Table::FmtPercent(cheetah.five_year_fault_probability),
                Table::Fmt(cheetah.five_year_fault_probability /
                               barracuda.five_year_fault_probability,
                           2)});
  specs.AddRow({"implied MTTF (MV)", Table::FmtSci(barracuda.Mttf().hours(), 2) + " h",
                Table::FmtSci(cheetah.Mttf().hours(), 2) + " h",
                Table::Fmt(cheetah.Mttf().hours() / barracuda.Mttf().hours(), 3)});
  specs.AddRow({"irrecoverable BER", Table::FmtSci(barracuda.uber, 0),
                Table::FmtSci(cheetah.uber, 0), "0.1"});
  const double b_errors =
      ExpectedIrrecoverableBitErrors(barracuda, 0.01, Duration::Years(5.0));
  const double c_errors =
      ExpectedIrrecoverableBitErrors(cheetah, 0.01, Duration::Years(5.0));
  specs.AddRow({"bit errors @ 99% idle, 5 y (paper: 8 vs 6)", Table::Fmt(b_errors, 2),
                Table::Fmt(c_errors, 2), Table::Fmt(c_errors / b_errors, 2)});
  specs.AddRow({"bit errors per full read", Table::Fmt(BitErrorsPerFullRead(barracuda), 3),
                Table::Fmt(BitErrorsPerFullRead(cheetah), 3), ""});
  std::printf("%s\n", specs.Render().c_str());

  // Equal-budget reliability: what does ~$1200/replica-set buy?
  std::printf("Mirrored archives of 1 TB, scrubbed monthly, fully independent "
              "replicas:\n");
  const CostAssumptions costs = CostAssumptions::Defaults();
  Table sys({"configuration", "annual cost", "MTTDL (CTMC)", "P(loss in 50 y)"});
  struct Option {
    const char* name;
    DriveSpec drive;
    int replicas;
  };
  const Option options[] = {
      {"2x Cheetah (enterprise mirror)", cheetah, 2},
      {"2x Barracuda (consumer mirror)", barracuda, 2},
      {"3x Barracuda", barracuda, 3},
      {"4x Barracuda", barracuda, 4},
  };
  for (const Option& option : options) {
    const FaultParams p =
        OnlineReplicaParams(option.drive, ScrubPolicy::PeriodicPerYear(12.0));
    const ReplicatedChainBuilder chain(p, option.replicas, RateConvention::kPhysical);
    const auto mttdl = chain.Mttdl();
    const auto loss = chain.LossProbability(Duration::Years(50.0));
    sys.AddRow({option.name,
                "$" + Table::Fmt(AnnualSystemCost(option.drive, 1000.0, option.replicas,
                                                  12.0, costs),
                                 4),
                mttdl->is_infinite() ? "inf" : Table::FmtYears(mttdl->years(), 0),
                Table::FmtSci(*loss, 2)});
  }
  std::printf("%s", sys.Render().c_str());
  std::printf(
      "\nShape check (the paper's conclusion): the enterprise mirror costs several\n"
      "times the consumer mirror yet is only ~2x more reliable per §6.1's fault\n"
      "probabilities — while a third consumer replica multiplies MTTDL by orders\n"
      "of magnitude for a fraction of the enterprise premium. \"The large\n"
      "incremental cost of enterprise drives is hard to justify compared to the\n"
      "smaller incremental cost of more (sufficiently independent) replicas.\"\n");
  return 0;
}
