// Pins the storage engine's trial trajectories to one number.
//
// 300 seeded scenarios span the branches of the replica state machine:
// 1-6 replicas, Weibull clocks with initial age, hazard-multiplier
// correlation (alpha < 1), 1-3 common-mode sources with partial membership,
// every scrub kind with aligned and staggered phases, a shared 100 h scrub
// period (so that detections fall due at equal times and the engine's
// tie-break decides their order), deterministic and zero-length repairs, and
// required_intact up to the replica count. They are the first 300
// physical-convention cases of the draw stream: the paper-convention cases
// it also draws are passed over, since the simulator runs the physical
// convention only. Each scenario runs
// through TrialRunner::Run, RunCounter, an importance-sampling runner and one
// traced ReplicatedStorageSystem run, and every outcome folds into one
// FNV-1a digest: loss-time bits, every SimMetrics field (both RunningStats
// by their raw state), the log weight, and the traced run's events. A
// change to any draw, any firing order or any equal-time tie-break moves
// the digest, so an engine refactor that must keep every result byte passes
// only if it leaves the digest as pinned.
//
// The fault and repair draws route through libm (log, pow), so the exact pin
// honors LONGSTORE_SKIP_EXACT_GOLDENS like the paper-figure goldens do; the
// coverage checks run everywhere.

#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/rare/biased_sampler.h"
#include "src/scenario/scenario.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/storage/replicated_system.h"
#include "src/util/random.h"

namespace longstore {
namespace {

bool SkipExactGoldens() {
  const char* flag = std::getenv("LONGSTORE_SKIP_EXACT_GOLDENS");
  return flag != nullptr && flag[0] != '\0' && flag[0] != '0';
}

class Fnv1a {
 public:
  void Add(uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xff;
      h_ *= 0x100000001b3ULL;
    }
  }
  void Add(int64_t v) { Add(static_cast<uint64_t>(v)); }
  void Add(double d) {
    uint64_t bits;
    std::memcpy(&bits, &d, sizeof(bits));
    Add(bits);
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 0xcbf29ce484222325ULL;
};

void FoldStats(Fnv1a& h, const RunningStats& stats) {
  const RunningStats::Raw raw = stats.raw();
  h.Add(raw.count);
  h.Add(raw.mean);
  h.Add(raw.m2);
  h.Add(raw.min);
  h.Add(raw.max);
}

void FoldMetrics(Fnv1a& h, const SimMetrics& m) {
  h.Add(m.visible_faults);
  h.Add(m.latent_faults);
  h.Add(m.latent_detections);
  h.Add(m.repairs_completed);
  h.Add(m.common_mode_events);
  h.Add(m.common_mode_faults);
  for (int i = 0; i < 2; ++i) {
    h.Add(m.windows_opened[i]);
    h.Add(m.windows_survived[i]);
    for (int j = 0; j < 2; ++j) {
      h.Add(m.second_faults[i][j]);
    }
  }
  FoldStats(h, m.detection_latency_hours);
  FoldStats(h, m.repair_duration_hours);
}

void FoldOutcome(Fnv1a& h, const RunOutcome& outcome) {
  h.Add(uint64_t{outcome.loss_time.has_value() ? 1u : 0u});
  h.Add(outcome.loss_time ? outcome.loss_time->hours() : 0.0);
  FoldMetrics(h, outcome.metrics);
  h.Add(outcome.log_weight);
}

// Local SplitMix64 stream, so the population does not depend on
// src/util/random.h's samplers.
class Draw {
 public:
  explicit Draw(uint64_t seed) : state_(seed) {}

  uint64_t Next() {
    state_ += 0x9e3779b97f4a7c15ULL;
    uint64_t z = state_;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  int Below(int n) { return static_cast<int>(Next() % static_cast<uint64_t>(n)); }
  bool OneIn(int n) { return Below(n) == 0; }
  template <size_t N>
  double Pick(const double (&values)[N]) {
    return values[Below(static_cast<int>(N))];
  }

 private:
  uint64_t state_;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

ReplicaSpec RandomSpec(Draw& draw, bool allow_weibull, bool allow_periodic,
                       bool shared_period) {
  static constexpr double kVisibleMeans[] = {kInf, 800.0, 2000.0, 6000.0, 20000.0,
                                             3000.0, 9000.0, 1200.0};
  static constexpr double kLatentMeans[] = {kInf, 500.0, 1500.0, 5000.0, 15000.0,
                                            2500.0, 700.0, 8000.0};
  static constexpr double kVisibleRepairs[] = {0.0, 2.0, 6.0, 24.0};
  static constexpr double kLatentRepairs[] = {2.0, 12.0, 48.0};
  static constexpr double kScrubIntervals[] = {50.0, 300.0, 1000.0, 4000.0};
  ReplicaSpec spec;
  spec.FaultTimes(Duration::Hours(draw.Pick(kVisibleMeans)),
                  Duration::Hours(draw.Pick(kLatentMeans)));
  if (allow_weibull && draw.OneIn(4)) {
    static constexpr double kShapes[] = {0.7, 1.5, 3.0};
    static constexpr double kAges[] = {500.0, 5000.0, 30000.0};
    spec.Weibull(draw.Pick(kShapes));
    if (draw.OneIn(2)) {
      spec.InitialAge(Duration::Hours(draw.Pick(kAges)));
    }
  }
  spec.RepairTimes(Duration::Hours(draw.Pick(kVisibleRepairs)),
                   Duration::Hours(draw.Pick(kLatentRepairs)));
  if (draw.OneIn(4)) {
    spec.DeterministicRepair();
  }
  if (shared_period && allow_periodic) {
    spec.ScrubWith(ScrubPolicy::Periodic(Duration::Hours(100.0)));
    return spec;
  }
  const Duration interval =
      Duration::Hours(shared_period ? 100.0 : draw.Pick(kScrubIntervals));
  switch (draw.Below(4)) {
    case 0:
      spec.ScrubWith(ScrubPolicy::None());
      break;
    case 1:
      spec.ScrubWith(allow_periodic ? ScrubPolicy::Periodic(interval)
                                    : ScrubPolicy::Exponential(interval));
      break;
    case 2:
      spec.ScrubWith(ScrubPolicy::Exponential(interval));
      break;
    default:
      spec.ScrubWith(ScrubPolicy::OnAccess(interval));
      break;
  }
  return spec;
}

struct DigestCase {
  Scenario scenario;
  Duration horizon;
  FaultBias bias;
};

// The case at `index` of the draw stream, or nullopt when its convention
// draw picks the paper's rate convention, which the simulator does not run.
// Such a case is passed over before its scenario is built, so every other
// case keeps its own draws.
std::optional<DigestCase> RandomCase(uint64_t index) {
  Draw draw(0x7ea1ec70ULL + index * 0x2545f4914f6cdd1dULL);
  DigestCase out;
  Scenario& s = out.scenario;
  const int replicas = 1 + draw.Below(6);
  if (draw.OneIn(5)) {
    return std::nullopt;
  }
  const bool shared_period = draw.OneIn(4);
  static constexpr double kAlphas[] = {0.25, 0.5, 0.8};
  s.alpha = draw.OneIn(3) ? draw.Pick(kAlphas) : 1.0;
  s.scrub_staggered = !draw.OneIn(2);
  for (int i = 0; i < replicas; ++i) {
    s.replicas.push_back(RandomSpec(draw, /*allow_weibull=*/s.alpha == 1.0,
                                    /*allow_periodic=*/true, shared_period));
  }
  static constexpr double kRates[] = {1.0 / 3000.0, 1.0 / 20000.0, 1.0 / 100000.0};
  static constexpr double kHits[] = {1.0, 0.5, 0.2};
  static constexpr double kVisibleFractions[] = {1.0, 0.5, 0.0};
  const int sources = draw.Below(4);
  for (int k = 0; k < sources; ++k) {
    CommonModeSource source;
    source.name = "source" + std::to_string(k);
    source.event_rate = Rate::PerHour(draw.Pick(kRates));
    for (int i = 0; i < replicas; ++i) {
      if (!draw.OneIn(3)) {
        source.members.push_back(i);
      }
    }
    source.hit_probability = draw.Pick(kHits);
    source.visible_fraction = draw.Pick(kVisibleFractions);
    s.common_mode.push_back(std::move(source));
  }
  s.required_intact = draw.OneIn(3) ? 1 + draw.Below(replicas) : 1;
  static constexpr double kHorizons[] = {20000.0, 100000.0, 400000.0};
  out.horizon = Duration::Hours(draw.Pick(kHorizons));
  static constexpr double kThetas[] = {1.0, 2.0, 5.0};
  static constexpr double kForce[] = {0.0, 0.5};
  out.bias.theta_visible = draw.Pick(kThetas);
  out.bias.theta_latent = draw.Pick(kThetas);
  out.bias.tilt_probability = 0.9;
  out.bias.force_probability = draw.Pick(kForce);
  return out;
}

constexpr int kScenarios = 300;

struct DigestRun {
  uint64_t digest = 0;
  int weibull_aged = 0;
  int correlated = 0;
  int common_mode = 0;
  int aligned_shared_period = 0;
  int erasure = 0;
  int losses = 0;
  int censored = 0;
  int64_t events = 0;
  // Traced detections that fired at the same time as the previous
  // detection of another replica: distinct clocks due at equal times.
  int tied_detections = 0;
};

// Folds the first kScenarios physical-convention cases of the draw stream.
void RunDigest(DigestRun& run) {
  Fnv1a h;
  int folded = 0;
  for (int index = 0; folded < kScenarios; ++index) {
    const std::optional<DigestCase> next = RandomCase(static_cast<uint64_t>(index));
    if (!next) {
      continue;
    }
    ++folded;
    const DigestCase& c = *next;
    const Scenario& s = c.scenario;
    ASSERT_FALSE(s.Validate().has_value()) << "case " << index << ": " << *s.Validate();
    run.correlated += s.alpha < 1.0 ? 1 : 0;
    run.common_mode += s.common_mode.empty() ? 0 : 1;
    run.erasure += s.required_intact > 1 ? 1 : 0;
    bool aged = false;
    bool shared = !s.scrub_staggered;
    for (const ReplicaSpec& spec : s.replicas) {
      aged |= spec.initial_age_hours > 0.0;
      shared &= spec.scrub.kind == ScrubPolicy::Kind::kPeriodic &&
                spec.scrub.interval.hours() == 100.0;
    }
    run.weibull_aged += aged ? 1 : 0;
    run.aligned_shared_period += shared && s.replica_count() > 1 ? 1 : 0;

    const uint64_t seed = DeriveSeed(0xd16e57, static_cast<uint64_t>(index));
    TrialRunner runner(s);
    for (uint64_t trial = 0; trial < 2; ++trial) {
      const RunOutcome outcome = runner.Run(seed + trial, c.horizon);
      run.losses += outcome.loss_time ? 1 : 0;
      run.censored += outcome.loss_time ? 0 : 1;
      FoldOutcome(h, outcome);
    }
    for (uint64_t trial = 0; trial < 2; ++trial) {
      FoldOutcome(h, runner.RunCounter(seed, trial, c.horizon));
    }
    TrialRunner biased(s, ConfigValidation::kValidate, c.bias);
    FoldOutcome(h, biased.Run(seed, c.horizon));

    Simulator sim;
    Rng rng(seed);
    TraceRecorder trace;
    ReplicatedStorageSystem system(&sim, &rng, s, &trace);
    system.Start();
    sim.RunUntil(c.horizon);
    h.Add(sim.now().hours());
    h.Add(sim.processed_count());
    h.Add(uint64_t{system.lost() ? 1u : 0u});
    h.Add(system.lost() ? system.loss_time().hours() : 0.0);
    FoldMetrics(h, system.metrics());
    run.events += static_cast<int64_t>(sim.processed_count());
    const TraceEvent* last_detection = nullptr;
    for (const TraceEvent& event : trace.events()) {
      h.Add(event.time.hours());
      h.Add(static_cast<uint64_t>(event.kind));
      h.Add(static_cast<int64_t>(event.replica));
      h.Add(static_cast<uint64_t>(event.detail.size()));
      if (event.kind == TraceEventKind::kLatentDetected) {
        if (last_detection != nullptr && last_detection->time == event.time &&
            last_detection->replica != event.replica) {
          ++run.tied_detections;
        }
        last_detection = &event;
      }
    }
  }
  run.digest = h.value();
}

TEST(TrajectoryDigestTest, EveryOutcomeMatchesThePinnedDigest) {
  DigestRun run;
  ASSERT_NO_FATAL_FAILURE(RunDigest(run));

  // The population reaches every branch the digest is meant to guard.
  EXPECT_GE(run.weibull_aged, 30);
  EXPECT_GE(run.correlated, 70);
  EXPECT_GE(run.common_mode, 120);
  EXPECT_GE(run.aligned_shared_period, 20);
  EXPECT_GE(run.erasure, 30);
  EXPECT_GE(run.losses, 200);
  EXPECT_GE(run.censored, 80);
  EXPECT_GE(run.events, 50000);
  EXPECT_GE(run.tied_detections, 200);

  if (SkipExactGoldens()) {
    GTEST_SKIP() << "LONGSTORE_SKIP_EXACT_GOLDENS set (uncontrolled toolchain)";
  }
  EXPECT_EQ(run.digest, 0xf703eafa1cb5c64aULL) << std::hex << "digest 0x" << run.digest;
}

}  // namespace
}  // namespace longstore
