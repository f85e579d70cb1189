#include "src/scenario/media.h"

namespace longstore {

ReplicaSpec DiskSpec(const DriveSpec& drive, ScrubPolicy scrub) {
  const FaultParams params = OnlineReplicaParams(drive, scrub);
  ReplicaSpec spec;
  spec.media = drive.model;
  spec.mv = params.mv;
  spec.ml = params.ml;
  spec.mrv = params.mrv;
  spec.mrl = params.mrl;
  spec.scrub = scrub;
  return spec;
}

ReplicaSpec TapeSpec(const DriveSpec& medium, double audits_per_year,
                     const OfflineHandlingModel& handling) {
  const FaultParams params = OfflineReplicaParams(medium, audits_per_year, handling);
  ReplicaSpec spec;
  spec.media = medium.model;
  spec.mv = params.mv;
  spec.ml = params.ml;
  spec.mrv = params.mrv;
  spec.mrl = params.mrl;
  // The periodic audit is the detection process; its mean detection latency
  // (half the interval) is exactly the MDL OfflineReplicaParams derives.
  spec.scrub = audits_per_year > 0.0
                   ? ScrubPolicy::Periodic(Duration::Years(1.0 / audits_per_year))
                   : ScrubPolicy::None();
  return spec;
}

ReplicaSpec SpecFromParams(const FaultParams& params, std::string media) {
  ReplicaSpec spec;
  spec.media = std::move(media);
  spec.mv = params.mv;
  spec.ml = params.ml;
  spec.mrv = params.mrv;
  spec.mrl = params.mrl;
  spec.scrub = params.mdl.is_infinite() ? ScrubPolicy::None()
                                        : ScrubPolicy::Exponential(params.mdl);
  return spec;
}

}  // namespace longstore
