// Discrete-event model of an r-way replicated archive subject to visible and
// latent faults, audited by a scrub policy, repaired from intact peers, with
// correlated faults via the paper's hazard multiplier and/or shared-risk
// common-mode events.
//
// The system is described by a Scenario (src/scenario/scenario.h): one
// ReplicaSpec per replica, so fleets may mix media, fault distributions,
// scrub cadences, repair processes and initial ages. At construction the
// specs are resolved into flat per-replica parameter arrays; the event loop
// reads only those arrays and never allocates (see src/sim/README.md for
// the reuse contract).
//
// Each replica runs the state machine of the exact chain
// (src/model/replica_ctmc.h): healthy -> latent -> detected -> repaired, and
// a visible fault goes straight to repair. A replica never has more than one
// event pending, so it owns one simulator clock: its fault clock while
// healthy (the earlier of the visible and latent draws), its detection while
// latent, its repair while detected. Each common-mode source owns one clock.
//
// The simulator runs the physical rate convention only: every healthy
// replica has its own fault clock and repairs proceed in parallel. The
// paper's convention of equations 7-12 (system-level fault clocks at
// single-unit rates, serial repair) exists only in the exact chain
// (src/model/replica_ctmc.h), whose values the paper-figure benches print.
//
// Data loss (the paper's "double-fault" generalized to r replicas) occurs the
// moment no intact replica remains — whether or not the outstanding faults
// were detected, matching the paper's data-centric reliability perspective
// (§5.3: "our reliability analysis is from the perspective of the data").

#ifndef LONGSTORE_SRC_STORAGE_REPLICATED_SYSTEM_H_
#define LONGSTORE_SRC_STORAGE_REPLICATED_SYSTEM_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "src/scenario/scenario.h"
#include "src/sim/simulator.h"
#include "src/sim/trace.h"
#include "src/storage/metrics.h"
#include "src/util/random.h"

namespace longstore {

// Importance-sampling change of measure (src/rare/biased_sampler.h). The
// storage layer only holds a pointer; the rare-event subsystem owns the
// math.
class BiasedFaultSampler;
struct FaultBias;

enum class ReplicaState {
  kHealthy,
  kLatentFaulty,     // fault present, undetected
  kFaultyDetected,   // visible fault, or detected latent fault; under repair
};

// Largest trial block the batch prefilter processes per call; sized to match
// the sweep layer's trial block (kTrialBlockSize in src/sweep/sweep.h,
// which static_asserts the two agree) so scratch arrays live on the stack.
inline constexpr int kTrialPrefilterMaxBlock = 256;

// Whether the constructor re-validates the scenario. Callers that already
// ran Scenario::Validate() (the Monte Carlo drivers validate once per
// estimate) pass kPreValidated to skip the per-construction throw path; a
// debug build still cross-checks.
enum class ConfigValidation { kValidate, kPreValidated };

class ReplicatedStorageSystem : public SimClient {
 public:
  // `sim`, `rng` and `trace` must outlive the system. `trace` may be null.
  // Attaches itself as `sim`'s client: one system per simulator.
  ReplicatedStorageSystem(Simulator* sim, Rng* rng, Scenario scenario,
                          TraceRecorder* trace = nullptr,
                          ConfigValidation validation = ConfigValidation::kValidate);

  // Schedules the initial fault and common-mode events. Call once per run,
  // before running the simulator.
  void Start();

  // Returns the system to its initial (all-healthy, time-zero) state so the
  // same instance can run another trial. The caller must Reset() the
  // simulator and reseed the Rng first; see src/sim/README.md for the reuse
  // contract. No buffer is reallocated.
  void Reset();

  // Attaches an importance-sampling fault sampler: all *fault-time* draws
  // (exponential and Weibull) go through it and accumulate the trial's
  // likelihood ratio; repair, scrub/detection, and common-mode draws stay
  // unbiased. Must be set before Start(); nullptr (the default) keeps the
  // unbiased path, bit for bit. The sampler must outlive the system; the
  // caller resets it per trial.
  void set_fault_sampler(BiasedFaultSampler* sampler) { fault_sampler_ = sampler; }

  // Event dispatch from the simulator; not for direct use.
  void OnSimEvent(uint16_t tag, int clock) override;

  bool lost() const { return lost_; }
  // Valid only when lost().
  Duration loss_time() const { return loss_time_; }

  const SimMetrics& metrics() const { return metrics_; }
  const Scenario& scenario() const { return scenario_; }

  // One uniform draw Start() consumes, with the parameters needed to map
  // that uniform to the initial event delay using the engine's exact
  // arithmetic. Built once at construction, in draw order: per-replica
  // visible then latent fault clocks, then one per common-mode source. Sites whose process never fires (infinite mean)
  // consume no draw and are omitted, mirroring the scheduling guards.
  struct InitialDrawSite {
    bool weibull = false;
    double mean_hours = 0.0;  // exponential: delay = -log(u) * mean_hours
    // Weibull residual-lifetime parameters (see DrawFaultDelay).
    double shape = 0.0;
    double inv_shape = 0.0;
    double scale_hours = 0.0;
    double age0 = 0.0;            // initial age in scale units
    double age0_pow_shape = 0.0;  // pow(age0, shape), hoisted out of the loop
  };
  const std::vector<InitialDrawSite>& initial_draw_sites() const {
    return initial_draw_sites_;
  }

  // The prefilter's verdict rule for one exponential site: does the draw
  // with raw 53-bit value k (CounterMix(...) >> 11, so u = (k + 1) * 2^-53)
  // land strictly after the horizon, i.e. is
  //   -std::log((k + 1) * 2^-53) * mean_hours > horizon_hours ?
  // The delay falls as k grows, so two integer bounds computed once per site
  // decide every draw below lo() (true) or above hi() (false) without a log.
  // Only draws inside the guard band [lo(), hi()] — about 2^-19 of them —
  // evaluate the expression above. Every verdict equals that expression's;
  // the argument is beside the constructor in replicated_system.cc.
  class HorizonVerdict {
   public:
    HorizonVerdict(double mean_hours, double horizon_hours);

    bool Outlasts(uint64_t k) const {
      // Unsigned wrap-around: k < lo lands above the band width too.
      if (k - lo_ > hi_ - lo_) {
        return k < lo_;
      }
      return ExactOutlasts(k);
    }
    uint64_t lo() const { return lo_; }
    uint64_t hi() const { return hi_; }

   private:
    bool ExactOutlasts(uint64_t k) const;

    double mean_hours_;
    double horizon_hours_;
    uint64_t lo_ = 0;
    uint64_t hi_ = 0;
  };

  ReplicaState replica_state(int i) const {
    return replicas_[static_cast<size_t>(i)].state;
  }
  int replica_count() const { return replica_count_; }
  int faulty_count() const { return faulty_count_; }
  int intact_count() const { return replica_count_ - faulty_count_; }

 private:
  struct Replica {
    ReplicaState state = ReplicaState::kHealthy;
    FaultKind current_fault = FaultKind::kVisible;
    Duration fault_time;
    Duration birth_time;   // last replacement; Weibull age reference
  };

  // A ReplicaSpec resolved to the flat values the event loop reads: means,
  // precomputed Weibull scales, concrete scrub phase. Built once at
  // construction (specs are immutable for the system's lifetime), indexed
  // like `replicas_`, and never touched by Reset or the hot path beyond
  // loads.
  struct ResolvedReplica {
    Duration mv = Duration::Infinite();
    Duration ml = Duration::Infinite();
    Duration mrv = Duration::Zero();
    Duration mrl = Duration::Zero();
    FaultDistribution fault_distribution = FaultDistribution::kExponential;
    RepairDistribution repair_distribution = RepairDistribution::kExponential;
    double weibull_shape = 1.0;
    // Weibull scales matching the configured means, precomputed once (the
    // draw path runs on every fault reschedule).
    Duration weibull_scale_mv = Duration::Infinite();
    Duration weibull_scale_ml = Duration::Infinite();
    Duration initial_age = Duration::Zero();
    ScrubPolicy scrub = ScrubPolicy::None();
    Duration scrub_phase = Duration::Zero();  // periodic-scrub phase offset
  };

  // Simulator event tags. Clock i < replica_count_ is replica i's; clock
  // replica_count_ + s is common-mode source s's.
  enum EventTag : uint16_t {
    kEvVisibleFault,
    kEvLatentFault,
    kEvDetect,
    kEvRepairComplete,
    kEvCommonMode,
  };

  // --- initialization ---
  void ResolveSpecs();
  void InitializeState();
  void BuildInitialDrawPlan();

  // --- scheduling helpers ---
  double CorrelationMultiplier() const;
  Duration DrawFaultDelay(int i, FaultKind kind) const;
  Duration DrawRepairDuration(int i, FaultKind kind) const;
  Duration NextScrubTick(int i) const;
  void ScheduleReplicaFaults(int i);
  void RescheduleFaultsForCorrelationChange();
  void ScheduleDetection(int i);
  void ScheduleCommonModeSource(size_t source_index);

  // --- event handlers ---
  void OnVisibleFault(int i);
  void OnLatentFault(int i);
  void OnDetect(int i);
  void OnRepairComplete(int i);
  void OnCommonModeEvent(size_t source_index);

  // --- state transitions ---
  void InflictFault(int i, FaultKind kind, bool detected);
  void StartRepair(int i);
  // Inline null check: Monte Carlo trials run without a recorder, and the
  // hot path must not pay for a std::string argument per event.
  void RecordTrace(TraceEventKind kind, int replica) {
    if (trace_ != nullptr) {
      RecordTraceImpl(kind, replica, {});
    }
  }
  void RecordTrace(TraceEventKind kind, int replica, std::string detail) {
    if (trace_ != nullptr) {
      RecordTraceImpl(kind, replica, std::move(detail));
    }
  }
  void RecordTraceImpl(TraceEventKind kind, int replica, std::string detail);

  Simulator* sim_;
  Rng* rng_;
  Scenario scenario_;
  TraceRecorder* trace_;
  BiasedFaultSampler* fault_sampler_ = nullptr;

  // Shared scenario structure, flattened for the hot path.
  int replica_count_ = 0;
  int required_intact_ = 1;
  double alpha_ = 1.0;

  std::vector<ResolvedReplica> resolved_;
  std::vector<InitialDrawSite> initial_draw_sites_;
  std::vector<Replica> replicas_;
  int faulty_count_ = 0;
  bool lost_ = false;
  Duration loss_time_;
  SimMetrics metrics_;

  // Window-of-vulnerability bookkeeping (Figure 2 measurements).
  bool window_open_ = false;
  FaultKind window_first_fault_ = FaultKind::kVisible;

  bool started_ = false;
};

// Convenience one-shot runs used by the Monte Carlo harness and examples.
struct RunOutcome {
  // Time of data loss; nullopt if the system survived the horizon (censored).
  std::optional<Duration> loss_time;
  SimMetrics metrics;
  // Log-likelihood ratio of the trial under the attached importance-sampling
  // measure; exactly 0 (weight 1) for unbiased runs.
  double log_weight = 0.0;
};

// Owns one Simulator + Rng + ReplicatedStorageSystem and reuses them across
// trials: Run() reseeds the rng, resets the other two, and runs to loss or
// `horizon`.
// Construction validates the scenario once (unless told it is pre-validated);
// the per-trial path performs no validation and no steady-state allocation.
// A trial's outcome is bit-identical to a freshly constructed run with the
// same seed.
class TrialRunner {
 public:
  explicit TrialRunner(const Scenario& scenario,
                       ConfigValidation validation = ConfigValidation::kValidate);

  // Importance-sampling variants: fault-time draws are tilted by `bias` and
  // each outcome carries the trial's exact log-likelihood ratio
  // (RunOutcome::log_weight). The forcing window is the horizon passed to
  // Run(). An identity bias reproduces the unbiased runner bit for bit.
  TrialRunner(const Scenario& scenario, ConfigValidation validation,
              const FaultBias& bias);

  // Self-referential (the system holds pointers to the simulator and rng).
  TrialRunner(const TrialRunner&) = delete;
  TrialRunner& operator=(const TrialRunner&) = delete;
  ~TrialRunner();

  RunOutcome Run(uint64_t seed, Duration horizon);

  // Counter-mode trial: like Run(), but the generator is reseeded with
  // ReseedCounter(key, trial) so draw #n of the trial is the pure function
  // CounterMix(key, trial, n). Used by SeedMode::kCounterV1 sweeps; the
  // per-draw addressability is what makes the batch prefilter below
  // deterministic.
  RunOutcome RunCounter(uint64_t key, uint64_t trial, Duration horizon);

  // Batch censored-trial prefilter for counter-mode trials. For `count`
  // consecutive trials starting at `begin_trial` (count <=
  // kTrialPrefilterMaxBlock), reads each trial's initial fault/common-mode
  // draws directly from CounterMix — the exact draws RunCounter would
  // consume — and sets skip[i] = 1 when the trial provably processes no
  // event within `horizon`. Every initial event is one of those randomized
  // draws, so the rule is one: skip exactly when every initial draw lands
  // strictly after the horizon. skip[i] is the AND of the trial's per-site
  // verdicts. An exponential site decides in the integer domain
  // (HorizonVerdict): its raw 53-bit draw is compared with two bounds
  // computed once per call, and only draws inside a guard band of about
  // 2^-19 of them evaluate the engine's log-based delay. Weibull sites map
  // the draw through the engine's exact pow/log arithmetic. Either way every
  // verdict equals the engine's. A skipped trial's outcome is exactly
  // RunOutcome{} (censored, zero metrics). Returns false (skip[] untouched)
  // when the prefilter cannot apply: an importance sampler is attached, or
  // the horizon is infinite.
  bool PrefilterCensoredBlock(uint64_t key, int64_t begin_trial, int count,
                              Duration horizon, uint8_t* skip);

  const ReplicatedStorageSystem& system() const { return system_; }

 private:
  // The one trial body behind Run() and RunCounter(), which differ only in
  // how they reseed rng_ before calling it.
  RunOutcome RunReseeded(Duration horizon);

  Simulator sim_;
  Rng rng_;
  ReplicatedStorageSystem system_;
  std::unique_ptr<BiasedFaultSampler> sampler_;  // null = unbiased
};

// Runs a fresh system until data loss or `horizon`, whichever comes first.
RunOutcome RunToLossOrHorizon(const Scenario& scenario, uint64_t seed,
                              Duration horizon);

}  // namespace longstore

#endif  // LONGSTORE_SRC_STORAGE_REPLICATED_SYSTEM_H_
