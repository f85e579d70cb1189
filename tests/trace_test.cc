#include "src/sim/trace.h"

#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

namespace longstore {
namespace {

TEST(TraceEventTest, GlyphsAreDistinctForFaultLifecycle) {
  EXPECT_EQ(TraceEventGlyph(TraceEventKind::kVisibleFault), 'V');
  EXPECT_EQ(TraceEventGlyph(TraceEventKind::kLatentFault), 'L');
  EXPECT_EQ(TraceEventGlyph(TraceEventKind::kLatentDetected), 'D');
  EXPECT_EQ(TraceEventGlyph(TraceEventKind::kDataLoss), 'X');
  EXPECT_EQ(TraceEventGlyph(TraceEventKind::kCommonModeEvent), '!');
}

TEST(TraceEventTest, NamesAreHumanReadable) {
  EXPECT_EQ(TraceEventName(TraceEventKind::kLatentFault), "latent fault");
  EXPECT_EQ(TraceEventName(TraceEventKind::kDataLoss), "DATA LOSS");
}

TEST(TraceRecorderTest, RecordsEveryEvent) {
  TraceRecorder recorder;
  recorder.Record(Duration::Hours(1.0), TraceEventKind::kVisibleFault, 0);
  recorder.Record(Duration::Hours(2.0), TraceEventKind::kLatentFault, 1, "bit rot");
  ASSERT_EQ(recorder.events().size(), 2u);
  EXPECT_EQ(recorder.events()[1].detail, "bit rot");
  EXPECT_EQ(recorder.CountKind(TraceEventKind::kLatentFault), 1u);
  EXPECT_EQ(recorder.CountKind(TraceEventKind::kDataLoss), 0u);
}

TEST(TraceRecorderTest, ClearEmpties) {
  TraceRecorder recorder;
  recorder.Record(Duration::Hours(1.0), TraceEventKind::kRepairStarted, 0);
  recorder.Clear();
  EXPECT_TRUE(recorder.events().empty());
}

TEST(RenderTimelineTest, ShowsLanesGlyphsAndLegend) {
  std::vector<TraceEvent> events;
  events.push_back({Duration::Years(1.0), TraceEventKind::kLatentFault, 0, ""});
  events.push_back({Duration::Years(2.0), TraceEventKind::kLatentDetected, 0, ""});
  events.push_back({Duration::Years(2.5), TraceEventKind::kRepairCompleted, 0, ""});
  events.push_back({Duration::Years(3.0), TraceEventKind::kVisibleFault, 1, ""});
  const std::string timeline =
      RenderTimeline(events, 2, Duration::Years(4.0), 60);
  EXPECT_NE(timeline.find("replica 0"), std::string::npos);
  EXPECT_NE(timeline.find("replica 1"), std::string::npos);
  EXPECT_NE(timeline.find('L'), std::string::npos);
  EXPECT_NE(timeline.find('V'), std::string::npos);
  EXPECT_NE(timeline.find('~'), std::string::npos);  // latent-undetected interval
  EXPECT_NE(timeline.find("legend"), std::string::npos);
  EXPECT_NE(timeline.find("event log"), std::string::npos);
}

TEST(RenderTimelineTest, SystemWideEventsMarkAllLanes) {
  std::vector<TraceEvent> events;
  events.push_back({Duration::Years(1.0), TraceEventKind::kDataLoss, -1, ""});
  const std::string timeline =
      RenderTimeline(events, 3, Duration::Years(2.0), 40);
  // The X glyph appears in each of the three lanes.
  size_t count = 0;
  for (char c : timeline) {
    count += c == 'X' ? 1 : 0;
  }
  EXPECT_GE(count, 3u);
}

TEST(RenderTimelineTest, LongLinesAreNeverCut) {
  // A wide axis and a long detail (common-mode source names come from
  // scenario JSON) must each stay on one whole line, never cut short or
  // glued onto the next line.
  const int width = 200;
  const Duration horizon = Duration::Years(4.0);
  const std::string source(100, 's');
  std::vector<TraceEvent> events;
  events.push_back({Duration::Years(1.0), TraceEventKind::kCommonModeEvent, -1, source});
  events.push_back({Duration::Years(2.0), TraceEventKind::kVisibleFault, 0, "disk"});
  std::istringstream timeline(RenderTimeline(events, 1, horizon, width));
  std::vector<std::string> lines;
  for (std::string line; std::getline(timeline, line);) {
    lines.push_back(line);
  }
  // One lane, the axis, two legend lines, a blank, the log header, two events.
  ASSERT_EQ(lines.size(), 8u);
  EXPECT_EQ(lines[0].size(), std::string("replica 0  |").size() + width + 1);
  const std::string label = "t=" + horizon.ToString();
  EXPECT_EQ(lines[1], std::string(11, ' ') + " 0" +
                          std::string(static_cast<size_t>(width - 1) - label.size(), ' ') +
                          label);
  EXPECT_EQ(lines[2].rfind("legend: ", 0), 0u);
  EXPECT_EQ(lines[5], "event log:");
  EXPECT_EQ(lines[6].rfind("  ", 0), 0u);
  EXPECT_NE(lines[6].find("common-mode event"), std::string::npos);
  EXPECT_EQ(lines[6].substr(lines[6].size() - source.size() - 1), " " + source);
  EXPECT_NE(lines[7].find("visible fault"), std::string::npos);
  EXPECT_EQ(lines[7].substr(lines[7].size() - 5), " disk");
}

}  // namespace
}  // namespace longstore
