// The exact continuous-time Markov chain for replicated data: one builder,
// ReplicatedChainBuilder, translates FaultParams into the chain for r-way
// replication or m-of-n erasure coding. The mirrored-pair functions below
// are its r = 2 entry points, kept for the paper's vocabulary; the Scenario,
// sensitivity and frontier answers solve the same chain.
//
// These give the *exact* MTTDL / loss probability for the stochastic process
// the paper's equations approximate, under two conventions:
//
//  kPaper    — fault clocks tick at the single-unit rates regardless of how
//              many replicas are healthy, and repair is serial. This is the
//              convention implicit in equations 7–12 ("the first fault occurs
//              with rate 1/MV"), so the chain converges to the paper's closed
//              forms in their validity regime.
//  kPhysical — each healthy replica has its own fault clock (rate scales with
//              the number of healthy replicas) and failed replicas repair in
//              parallel. This is what a real mirrored system experiences.
//
// kPaper exists only here: the discrete-event simulator and Scenario (and so
// ScenarioCtmcMttdl) are physical. bench_model_validation,
// bench_scrubbing_effect and bench_replication_vs_correlation print the
// paper convention's values from this chain beside the physical ones.

#ifndef LONGSTORE_SRC_MODEL_REPLICA_CTMC_H_
#define LONGSTORE_SRC_MODEL_REPLICA_CTMC_H_

#include <optional>

#include "src/model/ctmc.h"
#include "src/model/fault_params.h"

namespace longstore {

enum class RateConvention {
  kPaper,
  kPhysical,
};

// Where eventual data loss comes from, split by the faults the system carried
// when it was lost: every faulty replica had failed visibly, or at least one
// carried a latent fault (detected or not). At r = 2 this is Figure 2's split
// by the type of the first fault, which opened the fatal window.
struct LossPathBreakdown {
  double from_visible_window = 0.0;
  double from_latent_window = 0.0;
};

// r-way replication, generalized to (n, m) erasure coding. State =
// (nv, nl, nd): fragments visibly failed, with undetected latent faults, and
// with detected latent faults under repair. Data loss when fewer than
// `required_intact` fragments remain (m = 1 is whole-data replication, the
// paper's setting; m > 1 is OceanStore-style m-of-n sharing, §7). While any
// fragment is faulty, fault rates on survivors are scaled by 1/α. Repair of
// a fragment needs m intact peers, which every transient state guarantees.
// Loss is two absorbing states, one per LossPathBreakdown path. The split
// does not touch the transient system, so MTTDL and loss probability are
// those of a single loss state.
class ReplicatedChainBuilder {
 public:
  ReplicatedChainBuilder(const FaultParams& params, int replicas,
                         RateConvention convention, int required_intact = 1);

  // Exact MTTDL from the all-healthy state.
  std::optional<Duration> Mttdl() const;

  // Exact P(data loss by `mission`) from the all-healthy state.
  std::optional<double> LossProbability(Duration mission) const;

  // Probability that eventual data loss from the all-healthy state takes
  // each path. nullopt if the absorption system is singular.
  std::optional<LossPathBreakdown> LossPaths() const;

  int state_count() const { return chain_.state_count(); }

 private:
  void Build();
  int StateIndex(int nv, int nl, int nd) const;

  FaultParams params_;
  int replicas_;
  RateConvention convention_;
  int required_intact_;
  Ctmc chain_;
  int start_state_ = -1;
  int loss_visible_ = -1;  // entered with no latent fault outstanding
  int loss_latent_ = -1;   // entered with at least one
  std::vector<int> index_;  // dense (nv, nl, nd) -> state id map
};

// The mirrored pair of the paper's §5 model, as ReplicatedChainBuilder(p, 2,
// convention): exact MTTDL (nullopt only if parameters make loss
// unreachable), exact mission loss probability, and the loss-path split —
// the measurable counterpart of Figure 2's double-fault matrix.
std::optional<Duration> MirroredMttdl(const FaultParams& p, RateConvention convention);
std::optional<double> MirroredLossProbability(const FaultParams& p, Duration mission,
                                              RateConvention convention);
std::optional<LossPathBreakdown> MirroredLossPathBreakdown(const FaultParams& p,
                                                           RateConvention convention);

}  // namespace longstore

#endif  // LONGSTORE_SRC_MODEL_REPLICA_CTMC_H_
