// Event trace recording and ASCII timeline rendering.
//
// The recorder captures the fault/detect/repair history of a simulation run:
// one event per replica state transition, plus common-mode events and data
// loss. The renderer draws it as a per-replica timeline, the executable
// analogue of the paper's Figure 1 (visible vs latent fault lifecycles).

#ifndef LONGSTORE_SRC_SIM_TRACE_H_
#define LONGSTORE_SRC_SIM_TRACE_H_

#include <string>
#include <string_view>
#include <vector>

#include "src/util/units.h"

namespace longstore {

enum class TraceEventKind {
  kVisibleFault,    // fault occurs and is detected immediately
  kLatentFault,     // fault occurs silently
  kLatentDetected,  // audit/scrub/access discovers a latent fault
  kRepairStarted,
  kRepairCompleted,
  kCommonModeEvent,  // shared-risk-group event (power, admin, disaster, ...)
  kDataLoss,         // no intact replica remains
};

// Single-character glyph used in timeline rendering.
char TraceEventGlyph(TraceEventKind kind);
std::string_view TraceEventName(TraceEventKind kind);

struct TraceEvent {
  Duration time;
  TraceEventKind kind = TraceEventKind::kVisibleFault;
  // Replica index, or -1 for system-wide events (common-mode, data loss).
  int replica = -1;
  std::string detail;
};

// Collects every recorded event. A ReplicatedStorageSystem records only when
// a recorder is attached; Monte Carlo trials attach none.
class TraceRecorder {
 public:
  void Record(Duration time, TraceEventKind kind, int replica, std::string detail = {});
  void Clear() { events_.clear(); }

  const std::vector<TraceEvent>& events() const { return events_; }

  // Counts events of one kind.
  size_t CountKind(TraceEventKind kind) const;

 private:
  std::vector<TraceEvent> events_;
};

// Renders a per-replica ASCII timeline over [0, horizon], `width` columns.
// Each replica gets one lane; faulty intervals are drawn with '~' (latent,
// undetected) or '=' (detected/under repair), healthy time with '-'.
// Point events appear as glyphs (see TraceEventGlyph). A legend and an event
// log in time order follow the lanes.
std::string RenderTimeline(const std::vector<TraceEvent>& events, int replica_count,
                           Duration horizon, int width);

}  // namespace longstore

#endif  // LONGSTORE_SRC_SIM_TRACE_H_
