#include "src/storage/replicated_system.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "src/rare/biased_sampler.h"

namespace longstore {

ReplicatedStorageSystem::ReplicatedStorageSystem(Simulator* sim, Rng* rng,
                                                 Scenario scenario,
                                                 TraceRecorder* trace,
                                                 ConfigValidation validation)
    : sim_(sim), rng_(rng), scenario_(std::move(scenario)), trace_(trace) {
  if (validation == ConfigValidation::kValidate) {
    if (auto error = scenario_.Validate()) {
      throw std::invalid_argument("Scenario: " + *error);
    }
  } else {
#ifndef NDEBUG
    // The caller promised it validated already; cross-check in debug builds.
    if (auto error = scenario_.Validate()) {
      throw std::logic_error("Scenario passed as pre-validated but invalid: " + *error);
    }
#endif
  }
  replica_count_ = scenario_.replica_count();
  required_intact_ = scenario_.required_intact;
  alpha_ = scenario_.alpha;
  sim_->Attach(this, replica_count_ + static_cast<int>(scenario_.common_mode.size()));
  replicas_.resize(static_cast<size_t>(replica_count_));
  ResolveSpecs();
  InitializeState();
  BuildInitialDrawPlan();
}

void ReplicatedStorageSystem::ResolveSpecs() {
  resolved_.resize(static_cast<size_t>(replica_count_));
  for (int i = 0; i < replica_count_; ++i) {
    const ReplicaSpec& spec = scenario_.replicas[static_cast<size_t>(i)];
    ResolvedReplica& r = resolved_[static_cast<size_t>(i)];
    r.mv = spec.mv;
    r.ml = spec.ml;
    r.mrv = spec.mrv;
    r.mrl = spec.mrl;
    r.fault_distribution = spec.fault_distribution;
    r.repair_distribution = spec.repair_distribution;
    r.weibull_shape = spec.weibull_shape;
    if (spec.fault_distribution == FaultDistribution::kWeibull) {
      const double gamma = std::tgamma(1.0 + 1.0 / spec.weibull_shape);
      r.weibull_scale_mv = spec.mv / gamma;
      r.weibull_scale_ml = spec.ml / gamma;
    } else {
      r.weibull_scale_mv = Duration::Infinite();
      r.weibull_scale_ml = Duration::Infinite();
    }
    r.initial_age = Duration::Hours(spec.initial_age_hours);
    r.scrub = spec.scrub;
    if (spec.scrub.kind == ScrubPolicy::Kind::kPeriodic &&
        scenario_.scrub_staggered) {
      r.scrub_phase =
          spec.scrub.interval * (static_cast<double>(i) / replica_count_);
    } else {
      r.scrub_phase = Duration::Zero();
    }
  }
}

void ReplicatedStorageSystem::InitializeState() {
  for (int i = 0; i < replica_count_; ++i) {
    auto& replica = replicas_[static_cast<size_t>(i)];
    replica.state = ReplicaState::kHealthy;
    replica.current_fault = FaultKind::kVisible;
    replica.fault_time = Duration::Zero();
    // A pre-aged replica has a birth time in the (virtual) past.
    replica.birth_time =
        Duration::Zero() - resolved_[static_cast<size_t>(i)].initial_age;
  }
  faulty_count_ = 0;
  lost_ = false;
  loss_time_ = Duration::Zero();
  metrics_ = SimMetrics{};
  window_open_ = false;
  window_first_fault_ = FaultKind::kVisible;
  started_ = false;
}

void ReplicatedStorageSystem::BuildInitialDrawPlan() {
  // Mirrors Start()'s draw sequence exactly; see the scheduling helpers for
  // the arithmetic being replicated. Any change to the initial scheduling
  // order must be reflected here (the prefilter tests cross-check).
  initial_draw_sites_.clear();
  const auto add_exponential = [&](Duration mean) {
    if (mean.is_infinite()) {
      return;  // never fires; the engine draws nothing (NextExponential guard)
    }
    InitialDrawSite site;
    site.mean_hours = mean.hours();  // CorrelationMultiplier() == 1 at start
    initial_draw_sites_.push_back(site);
  };
  const auto add_fault_site = [&](const ResolvedReplica& rp, FaultKind kind) {
    const Duration mean = kind == FaultKind::kVisible ? rp.mv : rp.ml;
    if (mean.is_infinite()) {
      return;  // ScheduleReplicaFaults skips the draw entirely
    }
    if (rp.fault_distribution != FaultDistribution::kWeibull) {
      add_exponential(mean);
      return;
    }
    InitialDrawSite site;
    site.weibull = true;
    site.shape = rp.weibull_shape;
    site.inv_shape = 1.0 / rp.weibull_shape;
    const Duration scale =
        kind == FaultKind::kVisible ? rp.weibull_scale_mv : rp.weibull_scale_ml;
    site.scale_hours = scale.hours();
    site.age0 = rp.initial_age.hours() / scale.hours();
    site.age0_pow_shape = std::pow(site.age0, rp.weibull_shape);
    initial_draw_sites_.push_back(site);
  };
  for (const ResolvedReplica& rp : resolved_) {
    add_fault_site(rp, FaultKind::kVisible);
    add_fault_site(rp, FaultKind::kLatent);
  }
  for (const CommonModeSource& source : scenario_.common_mode) {
    add_exponential(source.event_rate.MeanInterval());
  }
}

// Why the bounds never change a verdict. Write x = H/m for horizon H and
// mean m, c = exp(-x), and u = (k + 1) * 2^-53, which is exact for every
// 53-bit k. The exact verdict -log(u) * m > H says -ln u > x, i.e. u < e^-x.
// With β = 2^-20, lo = floor(c(1-β)2^53) - 1 and hi = ceil(c(1+β)2^53),
// clamped to [0, 2^53 - 1], a draw outside [lo, hi] misses the threshold by
// far more than the arithmetic can err:
//   * c·2^53 >= 1, so x <= 36.8 and c is a normal double. Computing x, c and
//     the bounds errs by a relative 2^-46 at most. So k < lo gives
//     u < c(1-β)(1+2^-46), hence -ln u > x + β/2; k > hi gives
//     u > c(1+β)(1-2^-46), hence -ln u < x - β/2. The true delay then
//     differs from H by more than β·m/2 = H·β/(2x), a relative margin above
//     2^-27. The computed delay (a log and a product, each within about one
//     rounding) is within a relative 2^-51 of the true one, so it lands on
//     the same side of H.
//   * c·2^53 < 1 (this includes c underflowing to 0), so x > 36.7 and
//     lo = 0. Any k > hi >= 0 has k >= 1, so u >= 2^-52 and the delay is at
//     most 52·ln2·m < 36.1·m, more than 1.5% below H.
// Draws inside the band — about 2β of them, i.e. 2^-19 — take the exact
// expression. A NaN bound (from a NaN horizon) widens the band to every k.
ReplicatedStorageSystem::HorizonVerdict::HorizonVerdict(double mean_hours,
                                                        double horizon_hours)
    : mean_hours_(mean_hours), horizon_hours_(horizon_hours) {
  constexpr double kBeta = 0x1.0p-20;
  constexpr double kMaxDraw = 0x1.0p53 - 1.0;
  const double c = std::exp(-horizon_hours / mean_hours);
  const double lo = std::floor(c * (1.0 - kBeta) * 0x1.0p53) - 1.0;
  const double hi = std::ceil(c * (1.0 + kBeta) * 0x1.0p53);
  lo_ = static_cast<uint64_t>(lo > 0.0 ? std::min(lo, kMaxDraw) : 0.0);
  hi_ = static_cast<uint64_t>(hi < kMaxDraw ? hi : kMaxDraw);
}

bool ReplicatedStorageSystem::HorizonVerdict::ExactOutlasts(uint64_t k) const {
  // The engine's arithmetic: Rng::NextDoubleOpen, then NextExponential.
  const double u = (static_cast<double>(k) + 1.0) * 0x1.0p-53;
  return -std::log(u) * mean_hours_ > horizon_hours_;
}

void ReplicatedStorageSystem::Reset() { InitializeState(); }

void ReplicatedStorageSystem::Start() {
  if (started_) {
    throw std::logic_error("ReplicatedStorageSystem::Start called twice");
  }
  started_ = true;
  for (int i = 0; i < replica_count_; ++i) {
    ScheduleReplicaFaults(i);
  }
  for (size_t s = 0; s < scenario_.common_mode.size(); ++s) {
    ScheduleCommonModeSource(s);
  }
}

void ReplicatedStorageSystem::OnSimEvent(uint16_t tag, int clock) {
  switch (static_cast<EventTag>(tag)) {
    case kEvVisibleFault:
      OnVisibleFault(clock);
      return;
    case kEvLatentFault:
      OnLatentFault(clock);
      return;
    case kEvDetect:
      OnDetect(clock);
      return;
    case kEvRepairComplete:
      OnRepairComplete(clock);
      return;
    case kEvCommonMode:
      OnCommonModeEvent(static_cast<size_t>(clock - replica_count_));
      return;
  }
  throw std::logic_error("ReplicatedStorageSystem: unknown event tag");
}

double ReplicatedStorageSystem::CorrelationMultiplier() const {
  return faulty_count_ > 0 ? 1.0 / alpha_ : 1.0;
}

Duration ReplicatedStorageSystem::DrawFaultDelay(int i, FaultKind kind) const {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  if (rp.fault_distribution == FaultDistribution::kWeibull) {
    // Exact residual-lifetime draw, conditioned on survival to the replica's
    // current age: with S(x) = exp(-(x/scale)^k), inverting
    // u = S(x)/S(age) gives x = scale * ((age/scale)^k - ln u)^(1/k).
    // One uniform, O(1), no rejection loop.
    const double shape = rp.weibull_shape;
    const Duration scale =
        kind == FaultKind::kVisible ? rp.weibull_scale_mv : rp.weibull_scale_ml;
    const Replica& replica = replicas_[static_cast<size_t>(i)];
    const double age = (sim_->now() - replica.birth_time).hours() / scale.hours();
    if (fault_sampler_ != nullptr) {
      return fault_sampler_->DrawWeibullResidualFault(
          *rng_, shape, scale, age, kind, /*forcing_eligible=*/sim_->now().is_zero());
    }
    const double u = rng_->NextDoubleOpen();
    const double life = std::pow(std::pow(age, shape) - std::log(u), 1.0 / shape);
    const double residual_hours = (life - age) * scale.hours();
    // Guard both floating-point boundaries: life == age can round the
    // residual to zero, and (age/scale)^shape can overflow to infinity for
    // extreme age/shape combinations. Either way the hazard is astronomical
    // at this age — fail soon, matching the old rejection loop's fallback.
    if (!(residual_hours > 0.0) ||
        residual_hours == std::numeric_limits<double>::infinity()) {
      return Duration::Hours(1e-9);
    }
    return Duration::Hours(residual_hours);
  }
  const Duration mean = kind == FaultKind::kVisible ? rp.mv : rp.ml;
  if (fault_sampler_ != nullptr) {
    return fault_sampler_->DrawExponentialFault(
        *rng_, mean / CorrelationMultiplier(), kind,
        /*forcing_eligible=*/sim_->now().is_zero());
  }
  return rng_->NextExponential(mean / CorrelationMultiplier());
}

Duration ReplicatedStorageSystem::DrawRepairDuration(int i, FaultKind kind) const {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  const Duration mean = kind == FaultKind::kVisible ? rp.mrv : rp.mrl;
  if (rp.repair_distribution == RepairDistribution::kDeterministic) {
    return mean;
  }
  return rng_->NextExponential(mean);
}

Duration ReplicatedStorageSystem::NextScrubTick(int i) const {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  const Duration period = rp.scrub.interval;
  const Duration now = sim_->now();
  const double periods_elapsed =
      std::floor((now - rp.scrub_phase).hours() / period.hours()) + 1.0;
  Duration tick = rp.scrub_phase + period * periods_elapsed;
  if (tick <= now) {
    tick += period;  // floating-point boundary guard
  }
  return tick;
}

void ReplicatedStorageSystem::ScheduleReplicaFaults(int i) {
  if (replicas_[static_cast<size_t>(i)].state != ReplicaState::kHealthy) {
    return;  // the replica's clock holds its detection or repair
  }
  // Both fault draws are always redrawn together (on a repair or a
  // correlation change), so only the earlier of the two can ever fire: draw
  // both delays (keeping the random stream unchanged) but arm the clock with
  // just the winner. Visible wins ties, matching the old visible-first
  // scheduling order.
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  const bool has_visible = !rp.mv.is_infinite();
  const bool has_latent = !rp.ml.is_infinite();
  const Duration visible_delay =
      has_visible ? DrawFaultDelay(i, FaultKind::kVisible) : Duration::Zero();
  const Duration latent_delay =
      has_latent ? DrawFaultDelay(i, FaultKind::kLatent) : Duration::Zero();
  if (has_visible && (!has_latent || visible_delay <= latent_delay)) {
    sim_->ArmAfter(i, visible_delay, kEvVisibleFault);
  } else if (has_latent) {
    sim_->ArmAfter(i, latent_delay, kEvLatentFault);
  } else {
    sim_->Disarm(i);
  }
}

void ReplicatedStorageSystem::RescheduleFaultsForCorrelationChange() {
  if (alpha_ >= 1.0) {
    return;  // no hazard change; exponential clocks stay valid (memoryless)
  }
  for (int i = 0; i < replica_count_; ++i) {
    ScheduleReplicaFaults(i);
  }
}

void ReplicatedStorageSystem::ScheduleDetection(int i) {
  const ResolvedReplica& rp = resolved_[static_cast<size_t>(i)];
  switch (rp.scrub.kind) {
    case ScrubPolicy::Kind::kNone:
      return;
    case ScrubPolicy::Kind::kPeriodic:
      sim_->ArmAt(i, NextScrubTick(i), kEvDetect);
      return;
    case ScrubPolicy::Kind::kExponential:
    case ScrubPolicy::Kind::kOnAccess:
      sim_->ArmAfter(i, rng_->NextExponential(rp.scrub.interval), kEvDetect);
      return;
  }
}

void ReplicatedStorageSystem::ScheduleCommonModeSource(size_t source_index) {
  const CommonModeSource& source = scenario_.common_mode[source_index];
  const Duration delay = rng_->NextExponential(source.event_rate);
  sim_->ArmAfter(replica_count_ + static_cast<int>(source_index), delay,
                 kEvCommonMode);
}

void ReplicatedStorageSystem::OnVisibleFault(int i) {
  if (replicas_[static_cast<size_t>(i)].state != ReplicaState::kHealthy) {
    return;
  }
  metrics_.visible_faults++;
  RecordTrace(TraceEventKind::kVisibleFault, i);
  InflictFault(i, FaultKind::kVisible, /*detected=*/true);
}

void ReplicatedStorageSystem::OnLatentFault(int i) {
  if (replicas_[static_cast<size_t>(i)].state != ReplicaState::kHealthy) {
    return;
  }
  metrics_.latent_faults++;
  RecordTrace(TraceEventKind::kLatentFault, i);
  InflictFault(i, FaultKind::kLatent, /*detected=*/false);
}

void ReplicatedStorageSystem::OnDetect(int i) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  if (replica.state != ReplicaState::kLatentFaulty) {
    return;
  }
  metrics_.latent_detections++;
  metrics_.detection_latency_hours.Add((sim_->now() - replica.fault_time).hours());
  RecordTrace(TraceEventKind::kLatentDetected, i);
  replica.state = ReplicaState::kFaultyDetected;
  StartRepair(i);
}

void ReplicatedStorageSystem::InflictFault(int i, FaultKind kind, bool detected) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  sim_->Disarm(i);  // a healthy replica's clock holds its fault clock

  const int previously_faulty = faulty_count_;
  if (window_open_ && previously_faulty >= 1) {
    // Second fault inside an open window: Figure 2 bookkeeping. Only the
    // second fault is classified; the window then closes for counting.
    metrics_.second_faults[static_cast<int>(window_first_fault_)]
                          [static_cast<int>(kind)]++;
    window_open_ = false;
  } else if (previously_faulty == 0) {
    window_open_ = true;
    window_first_fault_ = kind;
    metrics_.windows_opened[static_cast<int>(kind)]++;
  }

  ++faulty_count_;
  replica.state = detected ? ReplicaState::kFaultyDetected : ReplicaState::kLatentFaulty;
  replica.current_fault = kind;
  replica.fault_time = sim_->now();

  if (replica_count_ - faulty_count_ < required_intact_) {
    lost_ = true;
    loss_time_ = sim_->now();
    RecordTrace(TraceEventKind::kDataLoss, -1);
    sim_->Stop();
    return;
  }

  if (detected) {
    StartRepair(i);
  } else {
    ScheduleDetection(i);
  }

  if (previously_faulty == 0) {
    RescheduleFaultsForCorrelationChange();
  }
}

void ReplicatedStorageSystem::StartRepair(int i) {
  const Duration duration =
      DrawRepairDuration(i, replicas_[static_cast<size_t>(i)].current_fault);
  RecordTrace(TraceEventKind::kRepairStarted, i);
  sim_->ArmAfter(i, duration, kEvRepairComplete);
}

void ReplicatedStorageSystem::OnRepairComplete(int i) {
  auto& replica = replicas_[static_cast<size_t>(i)];
  metrics_.repairs_completed++;
  metrics_.repair_duration_hours.Add((sim_->now() - replica.fault_time).hours());
  RecordTrace(TraceEventKind::kRepairCompleted, i);

  replica.state = ReplicaState::kHealthy;
  replica.birth_time = sim_->now();
  --faulty_count_;

  if (faulty_count_ == 0 && window_open_) {
    metrics_.windows_survived[static_cast<int>(window_first_fault_)]++;
    window_open_ = false;
  }

  if (faulty_count_ == 0 && alpha_ < 1.0) {
    // Correlation relaxes: redraw every healthy replica, including this one.
    RescheduleFaultsForCorrelationChange();
  } else {
    ScheduleReplicaFaults(i);
  }
}

void ReplicatedStorageSystem::OnCommonModeEvent(size_t source_index) {
  if (lost_) {
    return;
  }
  const CommonModeSource& source = scenario_.common_mode[source_index];
  metrics_.common_mode_events++;
  RecordTrace(TraceEventKind::kCommonModeEvent, -1, source.name);
  for (int member : source.members) {
    if (lost_) {
      break;  // a hit mid-event may already have destroyed the last replica
    }
    const auto& replica = replicas_[static_cast<size_t>(member)];
    if (replica.state != ReplicaState::kHealthy) {
      continue;
    }
    if (!rng_->NextBernoulli(source.hit_probability)) {
      continue;
    }
    const bool visible = rng_->NextBernoulli(source.visible_fraction);
    metrics_.common_mode_faults++;
    if (visible) {
      metrics_.visible_faults++;
      RecordTrace(TraceEventKind::kVisibleFault, member, source.name);
      InflictFault(member, FaultKind::kVisible, /*detected=*/true);
    } else {
      metrics_.latent_faults++;
      RecordTrace(TraceEventKind::kLatentFault, member, source.name);
      InflictFault(member, FaultKind::kLatent, /*detected=*/false);
    }
  }
  if (!lost_) {
    ScheduleCommonModeSource(source_index);
  }
}

void ReplicatedStorageSystem::RecordTraceImpl(TraceEventKind kind, int replica,
                                              std::string detail) {
  trace_->Record(sim_->now(), kind, replica, std::move(detail));
}

TrialRunner::TrialRunner(const Scenario& scenario, ConfigValidation validation)
    : rng_(0), system_(&sim_, &rng_, scenario, /*trace=*/nullptr, validation) {}

TrialRunner::TrialRunner(const Scenario& scenario, ConfigValidation validation,
                         const FaultBias& bias)
    : rng_(0),
      system_(&sim_, &rng_, scenario, /*trace=*/nullptr, validation),
      sampler_(std::make_unique<BiasedFaultSampler>(bias)) {
  system_.set_fault_sampler(sampler_.get());
}

TrialRunner::~TrialRunner() = default;

RunOutcome TrialRunner::Run(uint64_t seed, Duration horizon) {
  rng_.Reseed(seed);
  return RunReseeded(horizon);
}

RunOutcome TrialRunner::RunCounter(uint64_t key, uint64_t trial, Duration horizon) {
  rng_.ReseedCounter(key, trial);
  return RunReseeded(horizon);
}

RunOutcome TrialRunner::RunReseeded(Duration horizon) {
  // Neither Reset draws from rng_, so reseeding first moves no stream.
  sim_.Reset();
  system_.Reset();
  if (sampler_ != nullptr) {
    // The forcing window is the trial horizon: for mission-loss estimation
    // the first fault is pulled into the mission itself.
    sampler_->BeginTrial(horizon);
  }
  system_.Start();
  sim_.RunUntil(horizon);
  RunOutcome outcome;
  outcome.metrics = system_.metrics();
  if (system_.lost()) {
    outcome.loss_time = system_.loss_time();
  }
  if (sampler_ != nullptr) {
    outcome.log_weight = sampler_->log_weight();
  }
  return outcome;
}

bool TrialRunner::PrefilterCensoredBlock(uint64_t key, int64_t begin_trial,
                                         int count, Duration horizon,
                                         uint8_t* skip) {
  if (sampler_ != nullptr || horizon.is_infinite()) {
    return false;  // biased draws / unbounded runs: every trial must execute
  }
  if (count <= 0 || count > kTrialPrefilterMaxBlock) {
    return false;
  }
  const std::vector<ReplicatedStorageSystem::InitialDrawSite>& sites =
      system_.initial_draw_sites();
  const double horizon_hours = horizon.hours();
  // Structure-of-arrays sweep: sites outer, trials inner, so each site's
  // parameters stay in registers while the counter streams advance across
  // the block. Draw j of trial t is CounterMix(key, t, j) — exactly the
  // uniform RunCounter's Start() would consume at that site. A trial is
  // skipped iff every site's delay lands strictly after the horizon, so its
  // skip byte is the AND of its site verdicts. Exponential sites decide on
  // the raw 53-bit draw (HorizonVerdict); Weibull sites map the uniform
  // through DrawFaultDelay's arithmetic.
  for (int i = 0; i < count; ++i) {
    skip[i] = 1;
  }
  uint64_t draw_index = 0;
  for (const auto& site : sites) {
    if (site.weibull) {
      for (int i = 0; i < count; ++i) {
        const uint64_t bits =
            CounterMix(key, static_cast<uint64_t>(begin_trial + i), draw_index);
        const double u = (static_cast<double>(bits >> 11) + 1.0) * 0x1.0p-53;
        const double life =
            std::pow(site.age0_pow_shape - std::log(u), site.inv_shape);
        double delay = (life - site.age0) * site.scale_hours;
        if (!(delay > 0.0) || delay == std::numeric_limits<double>::infinity()) {
          delay = 1e-9;  // DrawFaultDelay's floating-point boundary guard
        }
        skip[i] &= delay > horizon_hours ? 1 : 0;
      }
    } else {
      const ReplicatedStorageSystem::HorizonVerdict verdict(site.mean_hours,
                                                            horizon_hours);
      for (int i = 0; i < count; ++i) {
        const uint64_t k =
            CounterMix(key, static_cast<uint64_t>(begin_trial + i), draw_index) >>
            11;
        skip[i] &= verdict.Outlasts(k) ? 1 : 0;
      }
    }
    ++draw_index;
  }
  return true;
}

RunOutcome RunToLossOrHorizon(const Scenario& scenario, uint64_t seed,
                              Duration horizon) {
  TrialRunner runner(scenario);
  return runner.Run(seed, horizon);
}

}  // namespace longstore
