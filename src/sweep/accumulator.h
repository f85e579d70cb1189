// The sweep engine's per-block trial accumulator, and its exact JSON
// serialization for the shard protocol (src/shard/).
//
// One accumulator type serves every estimand (only the active estimand's
// fields are touched); keeping a single type lets every sweep share the
// block executor (RunCellTrialRanges, src/sweep/sweep.h) and gives the
// shard protocol one wire format. Blocks are folded in trial order
// (MergeFrom), which together with the index-aligned block partition makes
// aggregates bit-identical for any thread count and lane schedule.
//
// Serialization is *exact*: int64 counters as decimal integers, doubles in
// round-trip %.17g form, RunningStats as their raw Welford state
// (count/mean/m2/min/max). A deserialized accumulator folds and finalizes to
// the same bits as the in-process original — the property that lets a
// ShardMerger reproduce a single-process SweepResult byte for byte.

#ifndef LONGSTORE_SRC_SWEEP_ACCUMULATOR_H_
#define LONGSTORE_SRC_SWEEP_ACCUMULATOR_H_

#include <cstdint>
#include <string>

#include "src/storage/metrics.h"
#include "src/util/stats.h"

namespace longstore {

namespace json {
struct Value;  // parsed JSON tree (src/util/json.h)
}

struct TrialAccumulator {
  // Estimand::kMttdl
  RunningStats loss_years;
  int64_t censored = 0;
  // Estimand::kLossProbability (also: hit count for kWeightedLossProbability)
  int64_t losses = 0;
  // Estimand::kCensoredMttdl
  double observed_years = 0.0;
  // Estimand::kWeightedLossProbability: per-trial w·1{loss} over every
  // trial, zeros included, so mean() is the importance-sampled probability.
  RunningStats weighted;

  SimMetrics metrics;

  void MergeFrom(const TrialAccumulator& other) {
    loss_years.Merge(other.loss_years);
    censored += other.censored;
    losses += other.losses;
    observed_years += other.observed_years;
    weighted.Merge(other.weighted);
    metrics.Merge(other.metrics);
  }
};

// Appends the accumulator as a canonical JSON object (fixed key order, every
// field emitted, exact values).
void AppendTrialAccumulatorJson(std::string& out, const TrialAccumulator& acc);

// Strict inverse of AppendTrialAccumulatorJson over a parsed value tree.
// `context` prefixes error messages (e.g. "ShardResult::FromJson"); unknown,
// missing and mistyped keys throw std::invalid_argument.
TrialAccumulator TrialAccumulatorFromJsonValue(const json::Value& value,
                                               const std::string& context);

}  // namespace longstore

#endif  // LONGSTORE_SRC_SWEEP_ACCUMULATOR_H_
