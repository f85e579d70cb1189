#include "src/drives/drive_specs.h"

#include <cmath>
#include <stdexcept>

namespace longstore {

bool IsOfflineMedia(MediaClass klass) {
  return klass == MediaClass::kTapeCartridge ||
         klass == MediaClass::kEtchedMedium;
}

Duration DriveSpec::Mttf() const {
  if (!(five_year_fault_probability > 0.0)) {
    return Duration::Infinite();
  }
  if (five_year_fault_probability >= 1.0) {
    return Duration::Zero();
  }
  return Duration::Hours(-Duration::Years(5.0).hours() /
                         std::log1p(-five_year_fault_probability));
}

Duration DriveSpec::RebuildTime() const {
  if (!(bandwidth_mb_per_s > 0.0)) {
    throw std::logic_error("DriveSpec::RebuildTime: zero bandwidth");
  }
  return Duration::Seconds(capacity_gb * 1000.0 / bandwidth_mb_per_s);
}

DriveSpec SeagateBarracuda200Gb() {
  DriveSpec d;
  d.model = "Seagate Barracuda ST3200822A";
  d.media = MediaClass::kConsumerDisk;
  d.capacity_gb = 200.0;
  d.bandwidth_mb_per_s = 65.0;
  d.five_year_fault_probability = 0.07;
  d.uber = 1e-14;
  d.price_usd = 0.57 * 200.0;  // $0.57/GB (TigerDirect, June 2005)
  d.catalog_year = 2005;
  return d;
}

DriveSpec SeagateCheetah146Gb() {
  DriveSpec d;
  d.model = "Seagate Cheetah 15K.4";
  d.media = MediaClass::kEnterpriseDisk;
  d.capacity_gb = 146.0;
  d.bandwidth_mb_per_s = 300.0;  // the figure §5.4 uses
  d.five_year_fault_probability = 0.03;
  d.uber = 1e-15;
  d.price_usd = 8.20 * 146.0;  // $8.20/GB
  d.catalog_year = 2005;
  return d;
}

DriveSpec Lto3TapeCartridge() {
  DriveSpec d;
  d.model = "LTO-3 cartridge";
  d.media = MediaClass::kTapeCartridge;
  d.capacity_gb = 400.0;
  d.bandwidth_mb_per_s = 80.0;
  // Shelf media sold as decades-durable often degrades within a few years
  // ([20], [31]); 10% over five years is a mid-range reading of that
  // evidence for professionally stored tape.
  d.five_year_fault_probability = 0.10;
  d.uber = 1e-17;  // on-tape ECC gives very low per-bit read error rates
  d.price_usd = 80.0;
  d.catalog_year = 2005;
  return d;
}

DriveSpec GigayearEtchedDisc() {
  DriveSpec d;
  d.model = "SiN-W gigayear disc";
  d.media = MediaClass::kEtchedMedium;
  d.capacity_gb = 100.0;
  // Optical readout of etched QR patterns: bench-instrument rates, not a
  // drive interface.
  d.bandwidth_mb_per_s = 10.0;
  // Accelerated aging puts media wear beyond 1e6 years; what remains over a
  // service interval is encapsulation/handling defects. 0.01% over five
  // years keeps the MTTF finite (the loss-probability math stays nonzero via
  // expm1) while sitting orders of magnitude below every 2005 part.
  d.five_year_fault_probability = 1e-4;
  d.uber = 1e-19;  // per-bit readout errors bounded by the etched geometry
  d.price_usd = 2000.0;  // $20/GB wafer-scale fabrication
  d.catalog_year = 2013;
  return d;
}

const std::vector<DriveSpec>& DriveCatalog() {
  static const std::vector<DriveSpec> catalog = {
      SeagateBarracuda200Gb(),
      SeagateCheetah146Gb(),
      Lto3TapeCartridge(),
      GigayearEtchedDisc(),
  };
  return catalog;
}

double ExpectedIrrecoverableBitErrors(const DriveSpec& drive, double duty_cycle,
                                      Duration service_life) {
  if (duty_cycle < 0.0 || duty_cycle > 1.0) {
    throw std::invalid_argument("duty_cycle must lie in [0, 1]");
  }
  const double active_seconds = service_life.seconds() * duty_cycle;
  const double bits = active_seconds * drive.bandwidth_mb_per_s * 1e6 * 8.0;
  return bits * drive.uber;
}

double BitErrorsPerFullRead(const DriveSpec& drive) {
  return drive.capacity_gb * 1e9 * 8.0 * drive.uber;
}

}  // namespace longstore
