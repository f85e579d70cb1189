// Unit tests for the out-of-band telemetry layer (src/obs/): histogram
// bucket geometry, snapshot canonical-JSON byte stability, and the runtime
// enable switch. The cross-process contracts (byte-identity of results with
// telemetry on and off, snapshot merging, journal contents under
// fault injection, the `metrics` service request) live in
// fleet_recovery_test, service_e2e_test, and CI's telemetry-identity job.

#include <cstdint>
#include <limits>
#include <string>

#include <gtest/gtest.h>

#include "src/obs/metrics.h"
#include "src/obs/trace.h"

namespace longstore::obs {
namespace {

TEST(HistogramBuckets, GeometryCoversTheFullRange) {
  // Bucket 0 holds exactly 0 (and clamped negatives); bucket i >= 1 holds
  // [2^(i-1), 2^i).
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(-7), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 1);
  EXPECT_EQ(Histogram::BucketIndex(2), 2);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 3);
  EXPECT_EQ(Histogram::BucketIndex(7), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 4);
  EXPECT_EQ(Histogram::BucketIndex((int64_t{1} << 62) - 1), 62);
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 62), 63);
  EXPECT_EQ(Histogram::BucketIndex(std::numeric_limits<int64_t>::max()), 63);

  // Every bucket's bounds agree with BucketIndex on both edges.
  for (int i = 0; i < Histogram::kBuckets; ++i) {
    EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketLow(i)), i) << i;
    if (i < Histogram::kBuckets - 1) {
      EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketHigh(i) - 1), i) << i;
      EXPECT_EQ(Histogram::BucketIndex(Histogram::BucketHigh(i)), i + 1) << i;
    }
  }
  EXPECT_EQ(Histogram::BucketHigh(Histogram::kBuckets - 1),
            std::numeric_limits<int64_t>::max());
}

TEST(HistogramBuckets, RecordTracksCountSumMinMax) {
  Histogram histogram;
  EXPECT_EQ(histogram.count(), 0);
  EXPECT_EQ(histogram.min(), 0);  // empty: min/max report 0, not sentinels
  EXPECT_EQ(histogram.max(), 0);

  histogram.Record(5);
  histogram.Record(5);
  histogram.Record(1000);
  histogram.Record(-3);  // clamps to 0
  EXPECT_EQ(histogram.count(), 4);
  EXPECT_EQ(histogram.sum(), 1010);
  EXPECT_EQ(histogram.min(), 0);
  EXPECT_EQ(histogram.max(), 1000);
  EXPECT_EQ(histogram.bucket(Histogram::BucketIndex(5)), 2);
  EXPECT_EQ(histogram.bucket(Histogram::BucketIndex(1000)), 1);
  EXPECT_EQ(histogram.bucket(0), 1);
}

TEST(HistogramBuckets, TopBucketAbsorbsOverflowByConstruction) {
  Histogram histogram;
  histogram.Record(std::numeric_limits<int64_t>::max());
  histogram.Record(int64_t{1} << 62);
  EXPECT_EQ(histogram.bucket(Histogram::kBuckets - 1), 2);
}

TEST(Snapshot, ByteStableAcrossRegistrationOrder) {
  // Same metrics, same values, opposite registration order: the canonical
  // snapshot must be byte-identical (sorted names, shared emitters).
  Registry forward;
  forward.counter("a.count").Add(3);
  forward.counter("z.count").Add(9);
  forward.histogram("m.lat").Record(100);

  Registry backward;
  backward.histogram("m.lat").Record(100);
  backward.counter("z.count").Add(9);
  backward.counter("a.count").Add(3);

  EXPECT_EQ(forward.SnapshotJson(), backward.SnapshotJson());
}

TEST(Snapshot, CanonicalFormElidesEmptyBuckets) {
  Registry registry;
  registry.counter("only.counter").Add(2);
  Histogram& histogram = registry.histogram("only.histogram");
  histogram.Record(0);
  histogram.Record(6);  // bucket 3
  EXPECT_EQ(registry.SnapshotJson(),
            "{\"obs_version\":1,\"counters\":{\"only.counter\":2},"
            "\"histograms\":{\"only.histogram\":{\"count\":2,\"sum\":6,"
            "\"min\":0,\"max\":6,\"buckets\":[[0,1],[3,1]]}}}");
}

TEST(RuntimeSwitch, SetEnabledGatesRecordingNotRegistration) {
  Registry registry;
  Counter& counter = registry.counter("gated");
  SetEnabled(false);
  counter.Add(5);
  EXPECT_EQ(counter.value(), 0);
  SetEnabled(true);
  counter.Add(5);
  EXPECT_EQ(counter.value(), 5);
}

TEST(TraceJournal, UnopenedJournalIsInert) {
  TraceJournal journal;
  EXPECT_FALSE(journal.active());
  journal.Emit(TraceEvent("ignored").Int("x", 1));
  EXPECT_EQ(journal.event_count(), 0u);
  EXPECT_TRUE(journal.Flush());  // no-op, no file
}

TEST(TraceEvent, FieldsRenderCanonically) {
  TraceEvent event("check");
  event.Str("s", "a\"b").Int("i", -4).Hex("h", 0xbeef).Dbl("d", 0.5);
  EXPECT_EQ(event.name(), "check");
  EXPECT_EQ(event.fields(),
            ",\"s\":\"a\\\"b\",\"i\":-4,\"h\":\"0xbeef\",\"d\":0.5");
}

}  // namespace
}  // namespace longstore::obs
