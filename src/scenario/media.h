// Media-aware ReplicaSpec factories: the bridge from the drive catalog
// (src/drives) to per-replica scenario specs. These wrap the §6.1/§6.2
// parameter derivations (OnlineReplicaParams / OfflineReplicaParams) so a
// mixed disk/tape fleet is one builder expression:
//
//   ScenarioBuilder()
//       .Replicas(2, DiskSpec(SeagateBarracuda200Gb(),
//                             ScrubPolicy::PeriodicPerYear(52.0)))
//       .AddReplica(TapeSpec(Lto3TapeCartridge(), /*audits_per_year=*/4.0))
//       .Build();

#ifndef LONGSTORE_SRC_SCENARIO_MEDIA_H_
#define LONGSTORE_SRC_SCENARIO_MEDIA_H_

#include "src/drives/drive_specs.h"
#include "src/drives/offline_media.h"
#include "src/model/fault_params.h"
#include "src/model/strategies.h"
#include "src/scenario/scenario.h"

namespace longstore {

// An on-line replica on `drive`: intrinsic MV from the spec's five-year
// fault probability, ML = MV / kLatentToVisibleRatio, repair at the drive's
// full-capacity rebuild time, audited by `scrub`.
ReplicaSpec DiskSpec(const DriveSpec& drive, ScrubPolicy scrub);

// An off-line (vaulted) replica on `medium`, audited `audits_per_year`
// times: each audit pays retrieval + mount + full read and risks handling
// faults (which inflate the visible-fault rate, §6.2), repair pays the same
// round trip, and detection is the periodic audit. audits_per_year == 0
// models write-and-forget (no detection process at all).
ReplicaSpec TapeSpec(const DriveSpec& medium, double audits_per_year,
                     const OfflineHandlingModel& handling = OfflineHandlingModel::Defaults());

// Generic adapter: a ReplicaSpec from already-derived effective FaultParams
// (threat-profile compositions, the frontier's DeriveParams). `params.mdl` is
// realized as an exponential scrub with mean interval MDL — the memoryless
// detection process the CTMC models exactly; infinite MDL means no scrub.
// `params.alpha` is scenario-level and therefore ignored here.
ReplicaSpec SpecFromParams(const FaultParams& params, std::string media = "replica");

}  // namespace longstore

#endif  // LONGSTORE_SRC_SCENARIO_MEDIA_H_
