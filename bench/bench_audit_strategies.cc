// E8 (§6.2): reduce MDL — audit frequency, and on-line (disk) vs off-line
// (tape) replicas.
//
// Part 1 sweeps the scrub frequency on the Cheetah example (MDL = half the
// audit interval) and reports the MTTDL curve — the quantitative form of
// "the way to reduce MDL is to audit more frequently".
// Part 2 prices the §6.2 comparison: on-line replicas audit cheaply and
// repair in minutes; off-line replicas pay retrieval/mount per audit, risk
// handling faults, and repair over days.
//
// Both parts run as Scenario grids on SweepRunner::Map — the audit axis
// mutates every replica's scrub policy, the media comparison is a list of
// DiskSpec/TapeSpec cells — and the analytic scoring (paper equations +
// exact CTMC) evaluates concurrently on the worker pool. The CTMC is built
// from ScenarioFaultParams, i.e. the MDL = interval/2 approximation for the
// periodic audits (the same linearization the paper uses); exact scrub
// policies would use ScenarioCtmcMttdl, which rejects periodic scrubbing.

#include <cstdio>
#include <string>
#include <vector>

#include "src/drives/cost_model.h"
#include "src/drives/drive_specs.h"
#include "src/drives/offline_media.h"
#include "src/model/paper_model.h"
#include "src/model/replica_ctmc.h"
#include "src/model/strategies.h"
#include "src/scenario/media.h"
#include "src/scenario/scenario.h"
#include "src/scenario/scenario_ctmc.h"
#include "src/sweep/sweep.h"
#include "src/util/table.h"

int main() {
  using namespace longstore;
  std::printf("%s", Heading("E8 (§6.2)", "audit frequency and on-line vs off-line "
                            "replicas")
                        .c_str());

  const SweepRunner runner;

  std::printf("Part 1: scrub-frequency sweep on the Cheetah mirror\n");
  const FaultParams base = FaultParams::PaperCheetahExample();
  SweepSpec frequency_spec(
      ScenarioBuilder()
          .Replicas(2, ReplicaSpec()
                           .Media("Cheetah 15K.4")
                           .FaultTimes(base.mv, base.ml)
                           .RepairTimes(base.mrv, base.mrl))
          .Build());
  frequency_spec.AddAxis("audits / year");
  for (const double audits : {0.0, 0.25, 1.0, 3.0, 12.0, 52.0, 365.0}) {
    frequency_spec.AddPoint(
        Table::Fmt(audits, 3), audits, [audits](Scenario& scenario) {
          const ScrubPolicy policy = audits > 0.0
                                         ? ScrubPolicy::PeriodicPerYear(audits)
                                         : ScrubPolicy::None();
          for (ReplicaSpec& replica : scenario.replicas) {
            replica.ScrubWith(policy);
          }
        });
  }

  struct FrequencyRow {
    std::string audits, mdl, paper, ctmc, loss;
  };
  const std::vector<FrequencyRow> frequency_rows = runner.Map(
      frequency_spec, [](const SweepSpec::Cell& cell) {
        const FaultParams p = ScenarioFaultParams(cell.scenario);
        const auto ctmc = MirroredMttdl(p, RateConvention::kPhysical);
        const auto loss = MirroredLossProbability(p, Duration::Years(50.0),
                                                  RateConvention::kPhysical);
        return FrequencyRow{Table::Fmt(cell.value("audits / year"), 3),
                            p.mdl.ToString(),
                            Table::FmtYears(MttdlPaperChoice(p).years(), 1),
                            Table::FmtYears(ctmc->years(), 1),
                            Table::FmtSci(*loss, 2)};
      });

  Table sweep({"audits / year", "MDL", "paper-eq MTTDL", "CTMC (physical)",
               "P(loss in 50 y)"});
  for (const FrequencyRow& row : frequency_rows) {
    sweep.AddRow({row.audits, row.mdl, row.paper, row.ctmc, row.loss});
  }
  std::printf("%s", sweep.Render().c_str());
  std::printf("\nMTTDL grows ~linearly in audit frequency once detection dominates "
              "the latent window\n(eq 10: MTTDL = alpha*ML^2 / (MRL + MDL)); the "
              "paper's 3x/year anchor sits on this curve.\n\n");

  std::printf("Part 2: on-line disk mirror vs off-line tape mirror (1 TB archive, "
              "mirrored)\n");
  const OfflineHandlingModel handling = OfflineHandlingModel::Defaults();
  const CostAssumptions costs = CostAssumptions::Defaults();

  struct MediaCase {
    std::string name;
    DriveSpec drive;
    double audits;
  };
  std::vector<MediaCase> media_cases;
  media_cases.push_back({"disk, scrubbed monthly", SeagateBarracuda200Gb(), 12.0});
  media_cases.push_back({"disk, scrubbed 3x/year", SeagateBarracuda200Gb(), 3.0});
  for (const double audits : {12.0, 4.0, 1.0, 0.0}) {
    char name[64];
    std::snprintf(name, sizeof(name), "tape, audited %.0fx/year", audits);
    media_cases.push_back({audits > 0.0 ? name : "tape, never audited",
                           Lto3TapeCartridge(), audits});
  }

  SweepSpec media_spec;
  for (const MediaCase& entry : media_cases) {
    const bool offline = IsOfflineMedia(entry.drive.media);
    const ReplicaSpec replica =
        offline ? TapeSpec(entry.drive, entry.audits, handling)
                : DiskSpec(entry.drive, entry.audits > 0.0
                                            ? ScrubPolicy::PeriodicPerYear(entry.audits)
                                            : ScrubPolicy::None());
    media_spec.AddCell(entry.name, ScenarioBuilder().Replicas(2, replica).Build());
  }

  struct MediaRow {
    std::string mrv, mdl, mttdl, loss;
  };
  const std::vector<MediaRow> media_rows = runner.Map(
      media_spec, [](const SweepSpec::Cell& cell) {
        const FaultParams p = ScenarioFaultParams(cell.scenario);
        const auto mttdl = MirroredMttdl(p, RateConvention::kPhysical);
        const auto loss = MirroredLossProbability(p, Duration::Years(50.0),
                                                  RateConvention::kPhysical);
        return MediaRow{p.mrv.ToString(), p.mdl.ToString(),
                        Table::FmtYears(mttdl->years(), 1), Table::FmtSci(*loss, 2)};
      });

  Table media({"configuration", "MRV", "MDL", "MTTDL (CTMC)", "P(loss 50 y)",
               "annual cost"});
  for (size_t i = 0; i < media_cases.size(); ++i) {
    media.AddRow({media_cases[i].name, media_rows[i].mrv, media_rows[i].mdl,
                  media_rows[i].mttdl, media_rows[i].loss,
                  "$" + Table::Fmt(AnnualSystemCost(media_cases[i].drive, 1000.0, 2,
                                                    media_cases[i].audits, costs),
                                   4)});
  }
  std::printf("%s", media.Render().c_str());
  std::printf(
      "\nShape check (§6.2's conclusion): the disk mirror audits for cents and\n"
      "repairs in under an hour, so its window of vulnerability is tiny. The tape\n"
      "mirror must buy each audit with an expensive, fault-injecting handling\n"
      "round-trip: auditing more drives its own fault rate up (and its cost past\n"
      "the disk mirror), auditing less leaves latent faults undetected. On-line\n"
      "replicas win on both axes — \"disk\" is the paper's answer to §1's\n"
      "tape-or-disk question.\n");
  return 0;
}
