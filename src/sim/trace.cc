#include "src/sim/trace.h"

#include <algorithm>

namespace longstore {

char TraceEventGlyph(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kVisibleFault:
      return 'V';
    case TraceEventKind::kLatentFault:
      return 'L';
    case TraceEventKind::kLatentDetected:
      return 'D';
    case TraceEventKind::kRepairStarted:
      return 'r';
    case TraceEventKind::kRepairCompleted:
      return 'R';
    case TraceEventKind::kCommonModeEvent:
      return '!';
    case TraceEventKind::kDataLoss:
      return 'X';
  }
  return '?';
}

std::string_view TraceEventName(TraceEventKind kind) {
  switch (kind) {
    case TraceEventKind::kVisibleFault:
      return "visible fault";
    case TraceEventKind::kLatentFault:
      return "latent fault";
    case TraceEventKind::kLatentDetected:
      return "latent fault detected";
    case TraceEventKind::kRepairStarted:
      return "repair started";
    case TraceEventKind::kRepairCompleted:
      return "repair completed";
    case TraceEventKind::kCommonModeEvent:
      return "common-mode event";
    case TraceEventKind::kDataLoss:
      return "DATA LOSS";
  }
  return "?";
}

void TraceRecorder::Record(Duration time, TraceEventKind kind, int replica,
                           std::string detail) {
  events_.push_back(TraceEvent{time, kind, replica, std::move(detail)});
}

size_t TraceRecorder::CountKind(TraceEventKind kind) const {
  return static_cast<size_t>(
      std::count_if(events_.begin(), events_.end(),
                    [kind](const TraceEvent& e) { return e.kind == kind; }));
}

namespace {

int ColumnFor(Duration t, Duration horizon, int width) {
  if (horizon.hours() <= 0.0) {
    return 0;
  }
  const double frac = t.hours() / horizon.hours();
  return std::clamp(static_cast<int>(frac * (width - 1)), 0, width - 1);
}

// Appends `text` padded with spaces to at least `width` columns, like
// printf's "%*s" (right-aligned) or "%-*s" (left-aligned). Longer text is
// appended whole.
void AppendPadded(std::string& out, std::string_view text, size_t width,
                  bool left_align) {
  const size_t pad = text.size() < width ? width - text.size() : 0;
  if (!left_align) {
    out.append(pad, ' ');
  }
  out += text;
  if (left_align) {
    out.append(pad, ' ');
  }
}

}  // namespace

std::string RenderTimeline(const std::vector<TraceEvent>& events, int replica_count,
                           Duration horizon, int width) {
  width = std::max(width, 10);
  // Lane backgrounds: '-' healthy, '~' latent-undetected, '=' detected/repair.
  std::vector<std::string> lanes(static_cast<size_t>(replica_count),
                                 std::string(static_cast<size_t>(width), '-'));

  // First pass: paint state intervals. Track per-replica state transitions.
  std::vector<Duration> fault_since(static_cast<size_t>(replica_count), Duration::Zero());
  std::vector<char> state(static_cast<size_t>(replica_count), 'H');

  auto paint = [&](int replica, Duration from, Duration to, char fill) {
    if (replica < 0 || replica >= replica_count) {
      return;
    }
    const int c0 = ColumnFor(from, horizon, width);
    const int c1 = ColumnFor(to, horizon, width);
    auto& lane = lanes[static_cast<size_t>(replica)];
    for (int c = c0; c <= c1; ++c) {
      lane[static_cast<size_t>(c)] = fill;
    }
  };

  for (const TraceEvent& e : events) {
    if (e.replica < 0 || e.replica >= replica_count) {
      continue;
    }
    auto idx = static_cast<size_t>(e.replica);
    switch (e.kind) {
      case TraceEventKind::kLatentFault:
        state[idx] = 'L';
        fault_since[idx] = e.time;
        break;
      case TraceEventKind::kVisibleFault:
      case TraceEventKind::kLatentDetected:
        if (state[idx] == 'L') {
          paint(e.replica, fault_since[idx], e.time, '~');
        }
        state[idx] = 'F';
        fault_since[idx] = e.time;
        break;
      case TraceEventKind::kRepairCompleted:
        if (state[idx] == 'F') {
          paint(e.replica, fault_since[idx], e.time, '=');
        } else if (state[idx] == 'L') {
          paint(e.replica, fault_since[idx], e.time, '~');
        }
        state[idx] = 'H';
        break;
      default:
        break;
    }
  }
  // Paint unterminated faulty intervals up to the horizon.
  for (int r = 0; r < replica_count; ++r) {
    auto idx = static_cast<size_t>(r);
    if (state[idx] == 'L') {
      paint(r, fault_since[idx], horizon, '~');
    } else if (state[idx] == 'F') {
      paint(r, fault_since[idx], horizon, '=');
    }
  }

  // Second pass: overlay point-event glyphs (after interval fill so they stay
  // visible).
  for (const TraceEvent& e : events) {
    const char glyph = TraceEventGlyph(e.kind);
    const int col = ColumnFor(e.time, horizon, width);
    if (e.replica >= 0 && e.replica < replica_count) {
      lanes[static_cast<size_t>(e.replica)][static_cast<size_t>(col)] = glyph;
    } else {
      for (auto& lane : lanes) {
        lane[static_cast<size_t>(col)] = glyph;
      }
    }
  }

  std::string out;
  for (int r = 0; r < replica_count; ++r) {
    out += "replica ";
    AppendPadded(out, std::to_string(r), 2, /*left_align=*/true);
    out += " |";
    out += lanes[static_cast<size_t>(r)];
    out += "|\n";
  }
  out.append(11, ' ');
  out += " 0";
  AppendPadded(out, "t=" + horizon.ToString(), static_cast<size_t>(width - 1),
               /*left_align=*/false);
  out += '\n';
  out +=
      "legend: V visible fault, L latent fault, D latent detected, R repair done,\n"
      "        X data loss, ! common-mode event; lanes: - healthy, ~ latent "
      "(undetected), = under repair\n";

  out += "\nevent log:\n";
  for (const TraceEvent& e : events) {
    out += "  ";
    AppendPadded(out, e.time.ToString(), 12, /*left_align=*/false);
    out += "  replica ";
    AppendPadded(out, std::to_string(e.replica), 2, /*left_align=*/true);
    out += "  ";
    AppendPadded(out, TraceEventName(e.kind), 22, /*left_align=*/true);
    out += ' ';
    out += e.detail;
    out += '\n';
  }
  return out;
}

}  // namespace longstore
