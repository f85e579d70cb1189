// Cost model for replicated archival storage (§4.3, §6.1, §6.2).
//
// The paper argues qualitatively that (a) consumer drives beat enterprise
// drives per preserved byte, and (b) on-line replicas beat off-line replicas
// once audit labour is priced in. This module prices both claims so the
// benches and the frontier search (src/frontier) can search cost/reliability
// trade-offs.

#ifndef LONGSTORE_SRC_DRIVES_COST_MODEL_H_
#define LONGSTORE_SRC_DRIVES_COST_MODEL_H_

#include "src/drives/drive_specs.h"
#include "src/util/units.h"

namespace longstore {

struct CostAssumptions {
  double electricity_usd_per_kwh = 0.10;
  double disk_power_watts = 12.0;
  // Administration per spinning drive per year (monitoring, replacement
  // labour, rack share). Tape libraries shift this cost into per-audit
  // handling instead.
  double admin_usd_per_drive_year = 20.0;
  double space_usd_per_drive_year = 5.0;
  // Rolling procurement: hardware replaced every service life (§6.5).
  Duration replacement_cycle = Duration::Years(5.0);
  // Audit costs. On-line audits are background disk reads: marginal cost is
  // a sliver of power and bandwidth. Off-line audits pay retrieval from
  // storage, mounting, reading, and return (§6.2: "this can be considerable,
  // especially if the off-line copy is in secure off-site storage").
  double online_audit_usd_per_drive = 0.25;
  double offline_audit_usd_per_cartridge = 25.0;
  // Off-site vault rental per cartridge-year.
  double offline_storage_usd_per_cartridge_year = 6.0;

  static CostAssumptions Defaults() { return CostAssumptions{}; }
};

struct ReplicaCostBreakdown {
  double capex_per_year = 0.0;
  double power_per_year = 0.0;
  double admin_per_year = 0.0;
  double space_per_year = 0.0;
  double audit_per_year = 0.0;

  double total_per_year() const {
    return capex_per_year + power_per_year + admin_per_year + space_per_year +
           audit_per_year;
  }
};

// Annual cost of keeping one replica of `archive_gb` on the given media with
// `audits_per_year` full audits. Off-line media (tape) pay no power and no
// per-drive admin, but pay vault storage and per-audit handling.
ReplicaCostBreakdown AnnualReplicaCost(const DriveSpec& drive, double archive_gb,
                                       double audits_per_year,
                                       const CostAssumptions& assumptions);

// Total annual cost of an r-way replicated archive.
double AnnualSystemCost(const DriveSpec& drive, double archive_gb, int replicas,
                        double audits_per_year, const CostAssumptions& assumptions);

// Units (drives or cartridges) needed to hold the archive.
int UnitsForArchive(const DriveSpec& drive, double archive_gb);

}  // namespace longstore

#endif  // LONGSTORE_SRC_DRIVES_COST_MODEL_H_
