#include "src/drives/offline_media.h"

#include <stdexcept>

namespace longstore {

FaultParams OfflineReplicaParams(const DriveSpec& medium, double audits_per_year,
                                 const OfflineHandlingModel& handling) {
  if (audits_per_year < 0.0) {
    throw std::invalid_argument("audits_per_year must be >= 0");
  }
  FaultParams p;

  // Intrinsic visible-fault rate plus audit-induced handling/read faults.
  const double intrinsic_per_year =
      Rate::InverseOf(medium.Mttf()).per_year();
  const double audit_induced_per_year =
      audits_per_year * (handling.handling_fault_probability +
                         handling.read_degradation_probability);
  const double visible_per_year = intrinsic_per_year + audit_induced_per_year;
  p.mv = visible_per_year > 0.0 ? Duration::Years(1.0 / visible_per_year)
                                : Duration::Infinite();
  p.ml = Duration::Hours(p.mv.hours() / kLatentToVisibleRatio);

  // Repair and audit latency both pay retrieval + mount + full read.
  const Duration access_overhead =
      handling.retrieval_time + handling.mount_time + medium.RebuildTime();
  p.mrv = access_overhead;
  p.mrl = access_overhead;
  p.mdl = audits_per_year > 0.0
              ? Duration::Years(1.0 / audits_per_year) / 2.0
              : Duration::Infinite();
  p.alpha = 1.0;
  return p;
}

FaultParams OnlineReplicaParams(const DriveSpec& drive, const ScrubPolicy& scrub) {
  FaultParams p;
  p.mv = drive.Mttf();
  p.ml = Duration::Hours(p.mv.hours() / kLatentToVisibleRatio);
  p.mrv = drive.RebuildTime();
  p.mrl = drive.RebuildTime();
  p.mdl = scrub.MeanDetectionLatency();
  p.alpha = 1.0;
  return p;
}

}  // namespace longstore
