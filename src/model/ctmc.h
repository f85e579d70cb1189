// Generic continuous-time Markov chain with absorbing states.
//
// Used to compute *exact* MTTDL and mission-loss probabilities for the
// stochastic process the paper approximates with equations 7–12 (exponential
// fault, detection and repair times; hazard-multiplier correlation). State
// spaces here are tiny (4 transient states for a mirrored pair; O(r³) for r
// replicas), so dense linear algebra suffices.

#ifndef LONGSTORE_SRC_MODEL_CTMC_H_
#define LONGSTORE_SRC_MODEL_CTMC_H_

#include <optional>
#include <vector>

#include "src/util/linalg.h"
#include "src/util/units.h"

namespace longstore {

class Ctmc {
 public:
  // Returns the index of the new state.
  int AddState(bool absorbing = false);

  // Adds a transition; rate must be positive and finite. Self-loops and
  // transitions out of absorbing states are rejected.
  void AddTransition(int from, int to, Rate rate);

  int state_count() const { return static_cast<int>(absorbing_.size()); }
  int transient_count() const;

  // Expected time to absorption from each transient state, in the order the
  // transient states were added. A state that may never be absorbed (it can
  // reach a state with no path to absorption) gets an infinite time; the
  // others come from one GTH solve of Q_TT · τ = -1 over the states absorbed
  // almost surely. Returns nullopt only when that solve fails.
  std::optional<std::vector<Duration>> ExpectedTimeToAbsorption() const;

  // Expected absorption time from one state: zero for an absorbing state,
  // infinite for a state that may never be absorbed, and nullopt only when
  // the solve fails.
  std::optional<Duration> ExpectedTimeToAbsorptionFrom(int from) const;

  // Probability that, starting from `from`, the chain is eventually absorbed
  // in `target_absorbing` (vs. other absorbing states).
  std::optional<double> AbsorptionProbability(int from, int target_absorbing) const;

  // Probability that absorption (into any absorbing state) has occurred by
  // `horizon`, starting from `from`. Computed as 1 - 1ᵀ·exp(Q_TT·t)·e_from
  // via scaling-and-squaring matrix exponential; exact up to roundoff.
  std::optional<double> AbsorptionProbabilityBy(int from, Duration horizon) const;

  // The generator matrix Q (rows sum to zero; absorbing rows are zero).
  Matrix Generator() const;

 private:
  struct Transition {
    int from;
    int to;
    double rate_per_hour;
  };

  // Maps state index -> row in the transient submatrix (or -1).
  std::vector<int> TransientIndex() const;
  Matrix TransientGenerator(const std::vector<int>& tindex) const;
  // Per-state flags: can the state reach any absorbing state / is it
  // absorbed with probability one (i.e. cannot wander into a trap)?
  std::vector<bool> CanReachAbsorbing() const;
  std::vector<bool> AbsorbedAlmostSurely() const;

  std::vector<bool> absorbing_;
  std::vector<Transition> transitions_;
};

// Matrix exponential exp(A) by scaling and squaring with a Taylor kernel.
// Stable for the substochastic matrices produced by transient generators
// (entries of exp(Q_TT·t) stay in [0, 1]). Exposed for testing.
Matrix MatrixExponential(const Matrix& a);

}  // namespace longstore

#endif  // LONGSTORE_SRC_MODEL_CTMC_H_
