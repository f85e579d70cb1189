// Off-line replica modelling for the §6.2 disk-vs-tape comparison.
//
// The paper's argument: off-line copies are expensive to audit (retrieval,
// mounting, human handling), the audit process itself injects correlated
// faults (media lost in transit [46], read-induced degradation [3]), and
// repair from off-line media is slow. This module turns those observations
// into effective FaultParams so the same analytic/CTMC/MC machinery can
// compare on-line and off-line replication.

#ifndef LONGSTORE_SRC_DRIVES_OFFLINE_MEDIA_H_
#define LONGSTORE_SRC_DRIVES_OFFLINE_MEDIA_H_

#include "src/drives/drive_specs.h"
#include "src/model/fault_params.h"
#include "src/model/strategies.h"
#include "src/util/units.h"

namespace longstore {

// Latent faults arrive this many times as often as visible ones on every
// medium: ML = MV / kLatentToVisibleRatio (Schwarz et al.'s 5x, the paper's
// ratio).
inline constexpr double kLatentToVisibleRatio = 5.0;

struct OfflineHandlingModel {
  // Fetch from off-site vault + mount before any read or repair can start.
  Duration retrieval_time = Duration::Hours(24.0);
  Duration mount_time = Duration::Minutes(10.0);
  // Probability that one handling round-trip damages or loses the medium
  // (Time Warner's tapes lost in transit are the paper's example [46]).
  double handling_fault_probability = 2e-3;
  // Probability that one full read pass degrades the medium ([3]).
  double read_degradation_probability = 5e-4;

  static OfflineHandlingModel Defaults() { return OfflineHandlingModel{}; }
};

// Builds effective fault parameters for a replica kept off-line and audited
// `audits_per_year` times:
//  - MRV/MRL grow by retrieval + mount + full-read time (repair must fetch
//    and read the medium);
//  - MV shrinks because each audit's handling and read pass add an extra
//    visible-fault rate of audits_per_year * (handling + degradation) per
//    year on top of the medium's intrinsic rate;
//  - MDL is the usual half audit interval;
//  - ML = MV / kLatentToVisibleRatio.
FaultParams OfflineReplicaParams(const DriveSpec& medium, double audits_per_year,
                                 const OfflineHandlingModel& handling);

// On-line counterpart: MRV/MRL from the drive's rebuild time, MDL from the
// scrub policy, intrinsic MV from the spec's five-year fault probability,
// ML = MV / kLatentToVisibleRatio.
FaultParams OnlineReplicaParams(const DriveSpec& drive, const ScrubPolicy& scrub);

}  // namespace longstore

#endif  // LONGSTORE_SRC_DRIVES_OFFLINE_MEDIA_H_
