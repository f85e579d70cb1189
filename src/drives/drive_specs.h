// Drive specification database seeded with the figures the paper quotes in
// §5.4 and §6.1 (Seagate spec sheets and June 2005 TigerDirect prices).
//
// The analysis consumes only (capacity, bandwidth, in-service fault
// probability, irrecoverable-bit-error rate, price), all of which the paper
// states explicitly, so this catalog substitutes fully for the 2005 spec
// sheets.

#ifndef LONGSTORE_SRC_DRIVES_DRIVE_SPECS_H_
#define LONGSTORE_SRC_DRIVES_DRIVE_SPECS_H_

#include <string>
#include <vector>

#include "src/util/units.h"

namespace longstore {

enum class MediaClass {
  kConsumerDisk,
  kEnterpriseDisk,
  kTapeCartridge,
  // Write-once etched media rated for geological retention (the
  // silicon-nitride/tungsten "gigayear" disc, arXiv:1310.2961): vaulted like
  // tape, read via a lab instrument, media faults dominated by handling.
  kEtchedMedium,
};

// Off-line (vaulted) media: no power or per-drive admin while shelved; pay
// per-cartridge vault storage and per-audit retrieval/handling instead. The
// cost model and the frontier's parameter derivation (DeriveParams) branch
// on this.
bool IsOfflineMedia(MediaClass klass);

struct DriveSpec {
  std::string model;
  MediaClass media = MediaClass::kConsumerDisk;
  double capacity_gb = 0.0;
  // Effective sustained transfer rate used for rebuild-time and bit-error
  // arithmetic. For the Cheetah the paper itself uses 300 MB/s (§5.4).
  double bandwidth_mb_per_s = 0.0;
  // Probability of an in-service (visible) fault over a 5-year service life
  // (§6.1: 7% Barracuda, 3% Cheetah).
  double five_year_fault_probability = 0.0;
  // Irrecoverable bit error rate per bit transferred (§6.1: 1e-14 / 1e-15).
  double uber = 0.0;
  double price_usd = 0.0;
  int catalog_year = 2005;

  double price_per_gb() const { return price_usd / capacity_gb; }

  // MTTF under the memoryless assumption: p5 = 1 - exp(-5y / MTTF), so
  // MTTF = -5y / ln(1 - p5). The Cheetah's 3% gives 1.44e6 h, matching the
  // paper's quoted MV = 1.4e6 h.
  Duration Mttf() const;

  // Full-capacity rebuild time at the spec bandwidth (the paper's MRV
  // derivation).
  Duration RebuildTime() const;
};

// §6.1 catalog entries.
//
// Barracuda ST3200822A: 200 GB consumer ATA drive, $0.57/GB. The 65 MB/s
// effective bandwidth is the spec-sheet sustained rate; with the paper's
// 99%-idle 5-year scenario it yields the "about 8" irrecoverable bit errors.
DriveSpec SeagateBarracuda200Gb();

// Cheetah 15K.4: 146 GB enterprise SCSI drive, $8.20/GB, quoted at 300 MB/s
// in §5.4 (the interface rate; the paper's own MRV = 20 min corresponds to
// ~122 MB/s effective rebuild bandwidth).
DriveSpec SeagateCheetah146Gb();

// A contemporary (2005) LTO-3 tape cartridge for the §6.2 off-line
// comparison: 400 GB native, 80 MB/s, low media cost. The 5-year fault
// probability reflects the CD-ROM/tape shelf-degradation evidence the paper
// cites (media rated for decades often failing within 2-5 years).
DriveSpec Lto3TapeCartridge();

// A QR-coded silicon-nitride/tungsten sample disc per de Vries et al.
// (arXiv:1310.2961): accelerated aging projects media lifetimes beyond a
// million years, so the five-year fault probability models handling and
// encapsulation defects rather than media wear. Write-once, low capacity,
// high per-GB capex, read on a lab bench — an endpoint for the frontier's
// media-mix search, not a 2005 catalog part.
DriveSpec GigayearEtchedDisc();

const std::vector<DriveSpec>& DriveCatalog();

// Expected irrecoverable bit errors over a service life in which the drive
// is active `duty_cycle` of the time, transferring at its spec bandwidth
// (§6.1: "Even if the drives spend their 5 year life 99% idle ...").
double ExpectedIrrecoverableBitErrors(const DriveSpec& drive, double duty_cycle,
                                      Duration service_life);

// Expected irrecoverable bit errors incurred by reading the full capacity
// once (the per-scrub-pass error exposure).
double BitErrorsPerFullRead(const DriveSpec& drive);

}  // namespace longstore

#endif  // LONGSTORE_SRC_DRIVES_DRIVE_SPECS_H_
