// MetricsSnapshot: the portable form of a process's telemetry registry that
// the fleet driver harvests from worker processes and element-wise merges
// into its own --metrics-out document. The round-trip and merge semantics
// here are what make cross-process aggregation lossless.

#include "src/obs/metrics.h"

#include <gtest/gtest.h>

#include <stdexcept>

namespace longstore::obs {
namespace {

MetricsSnapshot SampleSnapshot() {
  MetricsSnapshot snap;
  snap.counters["sweep.cells"] = 12;
  snap.counters["sweep.trials"] = 48000;
  HistogramState h;
  h.count = 3;
  h.sum = 14;
  h.min = 2;
  h.max = 8;
  h.buckets[1] = 1;  // 2
  h.buckets[2] = 1;  // 4
  h.buckets[3] = 1;  // 8
  snap.histograms["sweep.cell_trials"] = h;
  snap.histograms["sweep.empty"] = HistogramState{};
  return snap;
}

TEST(MetricsSnapshotTest, JsonRoundTripIsByteStable) {
  const MetricsSnapshot snap = SampleSnapshot();
  const std::string json = snap.ToJson();
  const MetricsSnapshot parsed = MetricsSnapshot::FromJson(json);
  EXPECT_EQ(parsed.ToJson(), json);
  EXPECT_EQ(parsed.counters.at("sweep.cells"), 12);
  ASSERT_EQ(parsed.histograms.count("sweep.cell_trials"), 1u);
  const HistogramState& h = parsed.histograms.at("sweep.cell_trials");
  EXPECT_EQ(h.count, 3);
  EXPECT_EQ(h.sum, 14);
  EXPECT_EQ(h.min, 2);
  EXPECT_EQ(h.max, 8);
  EXPECT_EQ(h.buckets[2], 1);
  EXPECT_EQ(h.buckets[0], 0);
}

TEST(MetricsSnapshotTest, MergeSumsCountersAndUnionsNames) {
  MetricsSnapshot a = SampleSnapshot();
  MetricsSnapshot b;
  b.counters["sweep.cells"] = 5;
  b.counters["fleet.retries"] = 2;
  a.MergeFrom(b);
  EXPECT_EQ(a.counters.at("sweep.cells"), 17);
  EXPECT_EQ(a.counters.at("sweep.trials"), 48000);
  EXPECT_EQ(a.counters.at("fleet.retries"), 2);
}

TEST(MetricsSnapshotTest, MergeCombinesHistogramExtremaEmptyAware) {
  MetricsSnapshot a = SampleSnapshot();
  MetricsSnapshot b;
  HistogramState h;
  h.count = 1;
  h.sum = 1024;
  h.min = 1024;
  h.max = 1024;
  h.buckets[10] = 1;
  b.histograms["sweep.cell_trials"] = h;
  // Merging into an *empty* histogram must adopt the other's min, not keep
  // the empty sentinel 0 as a spurious minimum.
  b.histograms["sweep.empty"] = h;
  a.MergeFrom(b);

  const HistogramState& merged = a.histograms.at("sweep.cell_trials");
  EXPECT_EQ(merged.count, 4);
  EXPECT_EQ(merged.sum, 14 + 1024);
  EXPECT_EQ(merged.min, 2);
  EXPECT_EQ(merged.max, 1024);
  EXPECT_EQ(merged.buckets[10], 1);

  const HistogramState& adopted = a.histograms.at("sweep.empty");
  EXPECT_EQ(adopted.count, 1);
  EXPECT_EQ(adopted.min, 1024);
  EXPECT_EQ(adopted.max, 1024);
}

TEST(MetricsSnapshotTest, MergeIntoEmptySnapshotCopies) {
  MetricsSnapshot a;
  a.MergeFrom(SampleSnapshot());
  EXPECT_EQ(a.ToJson(), SampleSnapshot().ToJson());
}

TEST(MetricsSnapshotTest, FromJsonRejectsWrongVersionAndGarbage) {
  EXPECT_THROW(MetricsSnapshot::FromJson(
                   "{\"obs_version\":2,\"counters\":{},\"histograms\":{}}"),
               std::invalid_argument);
  EXPECT_THROW(MetricsSnapshot::FromJson("not json"), std::invalid_argument);
  EXPECT_THROW(MetricsSnapshot::FromJson("[]"), std::invalid_argument);
}

TEST(MetricsSnapshotTest, RegistrySnapshotMatchesSnapshotJson) {
  // Snapshot().ToJson() and SnapshotJson() are the same canonical document —
  // the property the fleet merge path relies on when it re-emits a merged
  // snapshot in place of the registry's own.
  Registry& registry = Registry::Global();
  const bool was_enabled = Enabled();
  SetEnabled(true);
  registry.counter("test.snapshot_counter").Add(3);
  registry.histogram("test.snapshot_histogram").Record(7);
  const std::string direct = registry.SnapshotJson();
  EXPECT_EQ(registry.Snapshot().ToJson(), direct);
  EXPECT_NE(direct.find("\"test.snapshot_counter\":3"), std::string::npos);
  SetEnabled(was_enabled);
}

}  // namespace
}  // namespace longstore::obs
