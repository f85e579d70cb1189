#include "src/model/ctmc.h"

#include <cmath>
#include <stdexcept>

namespace longstore {

int Ctmc::AddState(bool absorbing) {
  absorbing_.push_back(absorbing);
  return state_count() - 1;
}

void Ctmc::AddTransition(int from, int to, Rate rate) {
  if (from < 0 || from >= state_count() || to < 0 || to >= state_count()) {
    throw std::out_of_range("Ctmc::AddTransition: state index out of range");
  }
  if (from == to) {
    throw std::invalid_argument("Ctmc::AddTransition: self-loops are not allowed");
  }
  if (absorbing_[static_cast<size_t>(from)]) {
    throw std::invalid_argument("Ctmc::AddTransition: transitions out of absorbing state");
  }
  if (!(rate.per_hour() > 0.0) || std::isinf(rate.per_hour())) {
    throw std::invalid_argument("Ctmc::AddTransition: rate must be positive and finite");
  }
  transitions_.push_back(Transition{from, to, rate.per_hour()});
}

int Ctmc::transient_count() const {
  int n = 0;
  for (bool a : absorbing_) {
    n += a ? 0 : 1;
  }
  return n;
}

std::vector<int> Ctmc::TransientIndex() const {
  std::vector<int> tindex(absorbing_.size(), -1);
  int next = 0;
  for (size_t i = 0; i < absorbing_.size(); ++i) {
    if (!absorbing_[i]) {
      tindex[i] = next++;
    }
  }
  return tindex;
}

Matrix Ctmc::TransientGenerator(const std::vector<int>& tindex) const {
  const auto n = static_cast<size_t>(transient_count());
  Matrix q(n, n, 0.0);
  for (const Transition& t : transitions_) {
    const int fi = tindex[static_cast<size_t>(t.from)];
    const int ti = tindex[static_cast<size_t>(t.to)];
    // Diagonal always accumulates the full outflow, including flow into
    // absorbing states; off-diagonals only for transient targets.
    q.At(static_cast<size_t>(fi), static_cast<size_t>(fi)) -= t.rate_per_hour;
    if (ti >= 0) {
      q.At(static_cast<size_t>(fi), static_cast<size_t>(ti)) += t.rate_per_hour;
    }
  }
  return q;
}

std::vector<bool> Ctmc::CanReachAbsorbing() const {
  // Reverse BFS from the absorbing states.
  const auto n = static_cast<size_t>(state_count());
  std::vector<std::vector<int>> reverse_adj(n);
  for (const Transition& t : transitions_) {
    reverse_adj[static_cast<size_t>(t.to)].push_back(t.from);
  }
  std::vector<bool> reach(n, false);
  std::vector<int> frontier;
  for (size_t i = 0; i < n; ++i) {
    if (absorbing_[i]) {
      reach[i] = true;
      frontier.push_back(static_cast<int>(i));
    }
  }
  while (!frontier.empty()) {
    const int s = frontier.back();
    frontier.pop_back();
    for (int pred : reverse_adj[static_cast<size_t>(s)]) {
      if (!reach[static_cast<size_t>(pred)]) {
        reach[static_cast<size_t>(pred)] = true;
        frontier.push_back(pred);
      }
    }
  }
  return reach;
}

std::vector<bool> Ctmc::AbsorbedAlmostSurely() const {
  // A transient state is absorbed almost surely iff it cannot reach the
  // "trap" set (transient states with no path to absorption). States that can
  // wander into a trap have absorption probability < 1 and therefore infinite
  // expected absorption time.
  const std::vector<bool> reach = CanReachAbsorbing();
  const auto n = static_cast<size_t>(state_count());
  std::vector<std::vector<int>> reverse_adj(n);
  for (const Transition& t : transitions_) {
    reverse_adj[static_cast<size_t>(t.to)].push_back(t.from);
  }
  std::vector<bool> can_reach_trap(n, false);
  std::vector<int> frontier;
  for (size_t i = 0; i < n; ++i) {
    if (!absorbing_[i] && !reach[i]) {
      can_reach_trap[i] = true;
      frontier.push_back(static_cast<int>(i));
    }
  }
  while (!frontier.empty()) {
    const int s = frontier.back();
    frontier.pop_back();
    for (int pred : reverse_adj[static_cast<size_t>(s)]) {
      if (!can_reach_trap[static_cast<size_t>(pred)]) {
        can_reach_trap[static_cast<size_t>(pred)] = true;
        frontier.push_back(pred);
      }
    }
  }
  std::vector<bool> sure(n, false);
  for (size_t i = 0; i < n; ++i) {
    sure[i] = !absorbing_[i] && !can_reach_trap[i];
  }
  return sure;
}

std::optional<std::vector<Duration>> Ctmc::ExpectedTimeToAbsorption() const {
  const auto n_all = static_cast<size_t>(state_count());
  const std::vector<bool> sure = AbsorbedAlmostSurely();

  // Index only the surely-absorbed transient states; others get infinity.
  std::vector<int> solve_index(n_all, -1);
  int solve_count = 0;
  for (size_t i = 0; i < n_all; ++i) {
    if (sure[i]) {
      solve_index[i] = solve_count++;
    }
  }

  std::vector<Duration> times;
  times.reserve(static_cast<size_t>(transient_count()));

  if (solve_count > 0) {
    // GTH-form system: inter-state rates, per-state absorption rate, rhs 1.
    // States in the sure set only flow to each other or to absorbing states.
    const auto n = static_cast<size_t>(solve_count);
    Matrix rates(n, n, 0.0);
    std::vector<double> absorption(n, 0.0);
    for (const Transition& t : transitions_) {
      const int fi = solve_index[static_cast<size_t>(t.from)];
      if (fi < 0) {
        continue;
      }
      const int ti = solve_index[static_cast<size_t>(t.to)];
      if (ti >= 0) {
        rates.At(static_cast<size_t>(fi), static_cast<size_t>(ti)) += t.rate_per_hour;
      } else {
        absorption[static_cast<size_t>(fi)] += t.rate_per_hour;
      }
    }
    std::vector<double> rhs(n, 1.0);
    auto solution =
        SolveMarkovAbsorbing(std::move(rates), std::move(absorption), std::move(rhs));
    if (!solution) {
      return std::nullopt;
    }
    for (size_t i = 0; i < n_all; ++i) {
      if (absorbing_[i]) {
        continue;
      }
      if (solve_index[i] >= 0) {
        const double hours = (*solution)[static_cast<size_t>(solve_index[i])];
        if (!(hours >= 0.0) || !std::isfinite(hours)) {
          return std::nullopt;
        }
        times.push_back(Duration::Hours(hours));
      } else {
        times.push_back(Duration::Infinite());
      }
    }
  } else {
    times.assign(static_cast<size_t>(transient_count()), Duration::Infinite());
  }
  return times;
}

std::optional<Duration> Ctmc::ExpectedTimeToAbsorptionFrom(int from) const {
  if (from < 0 || from >= state_count()) {
    throw std::out_of_range("Ctmc: state index out of range");
  }
  if (absorbing_[static_cast<size_t>(from)]) {
    return Duration::Zero();
  }
  auto times = ExpectedTimeToAbsorption();
  if (!times) {
    return std::nullopt;
  }
  const std::vector<int> tindex = TransientIndex();
  return (*times)[static_cast<size_t>(tindex[static_cast<size_t>(from)])];
}

std::optional<double> Ctmc::AbsorptionProbability(int from, int target_absorbing) const {
  if (from < 0 || from >= state_count() || target_absorbing < 0 ||
      target_absorbing >= state_count()) {
    throw std::out_of_range("Ctmc: state index out of range");
  }
  if (!absorbing_[static_cast<size_t>(target_absorbing)]) {
    throw std::invalid_argument("Ctmc::AbsorptionProbability: target must be absorbing");
  }
  if (from == target_absorbing) {
    return 1.0;
  }
  if (absorbing_[static_cast<size_t>(from)]) {
    return 0.0;
  }
  // Solve Q_AA · h = -R_target over the states that can reach absorption
  // (others have hitting probability 0 and would make the system singular).
  const std::vector<bool> reach = CanReachAbsorbing();
  const auto n_all = static_cast<size_t>(state_count());
  std::vector<int> solve_index(n_all, -1);
  int solve_count = 0;
  for (size_t i = 0; i < n_all; ++i) {
    if (!absorbing_[i] && reach[i]) {
      solve_index[i] = solve_count++;
    }
  }
  if (solve_index[static_cast<size_t>(from)] < 0) {
    return 0.0;
  }
  // GTH-form system over the can-reach set: flows to absorbing states and to
  // trap states both count as "absorption" (traps never hit the target); the
  // rhs carries the rate into the target alone.
  const auto n = static_cast<size_t>(solve_count);
  Matrix rates(n, n, 0.0);
  std::vector<double> absorption(n, 0.0);
  std::vector<double> rhs(n, 0.0);
  for (const Transition& t : transitions_) {
    const int fi = solve_index[static_cast<size_t>(t.from)];
    if (fi < 0) {
      continue;
    }
    const int ti = solve_index[static_cast<size_t>(t.to)];
    if (ti >= 0) {
      rates.At(static_cast<size_t>(fi), static_cast<size_t>(ti)) += t.rate_per_hour;
    } else {
      absorption[static_cast<size_t>(fi)] += t.rate_per_hour;
    }
    if (t.to == target_absorbing) {
      rhs[static_cast<size_t>(fi)] += t.rate_per_hour;
    }
  }
  auto solution =
      SolveMarkovAbsorbing(std::move(rates), std::move(absorption), std::move(rhs));
  if (!solution) {
    return std::nullopt;
  }
  const double p = (*solution)[static_cast<size_t>(solve_index[static_cast<size_t>(from)])];
  return ClampProbability(p);
}

std::optional<double> Ctmc::AbsorptionProbabilityBy(int from, Duration horizon) const {
  if (from < 0 || from >= state_count()) {
    throw std::out_of_range("Ctmc: state index out of range");
  }
  if (absorbing_[static_cast<size_t>(from)]) {
    return 1.0;
  }
  if (horizon.is_negative()) {
    throw std::invalid_argument("Ctmc::AbsorptionProbabilityBy: negative horizon");
  }
  if (horizon.is_zero()) {
    return 0.0;
  }
  const std::vector<int> tindex = TransientIndex();
  const auto n = static_cast<size_t>(transient_count());
  Matrix q = TransientGenerator(tindex);
  // Scale Q by t: survivor mass is the row of exp(Q·t) for `from`.
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      q.At(r, c) *= horizon.hours();
    }
  }
  const Matrix exp_qt = MatrixExponential(q);
  const auto row = static_cast<size_t>(tindex[static_cast<size_t>(from)]);
  double survive = 0.0;
  for (size_t c = 0; c < n; ++c) {
    survive += exp_qt.At(row, c);
  }
  return ClampProbability(1.0 - survive);
}

Matrix Ctmc::Generator() const {
  const auto n = static_cast<size_t>(state_count());
  Matrix q(n, n, 0.0);
  for (const Transition& t : transitions_) {
    q.At(static_cast<size_t>(t.from), static_cast<size_t>(t.to)) += t.rate_per_hour;
    q.At(static_cast<size_t>(t.from), static_cast<size_t>(t.from)) -= t.rate_per_hour;
  }
  return q;
}

Matrix MatrixExponential(const Matrix& a) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("MatrixExponential: matrix must be square");
  }
  const size_t n = a.rows();
  // Scaling: bring the norm under 0.25 so the Taylor series converges in a
  // handful of terms, then square back up.
  const double norm = a.InfNorm();
  int squarings = 0;
  double scale = 1.0;
  if (norm > 0.25) {
    squarings = static_cast<int>(std::ceil(std::log2(norm / 0.25)));
    // Cap squarings: beyond ~60 the scale underflows; norm would have to be
    // absurd (1e18) for that, which indicates bad inputs anyway.
    squarings = std::min(squarings, 60);
    scale = std::ldexp(1.0, -squarings);
  }

  Matrix scaled(n, n);
  for (size_t r = 0; r < n; ++r) {
    for (size_t c = 0; c < n; ++c) {
      scaled.At(r, c) = a.At(r, c) * scale;
    }
  }

  // Taylor series: I + A + A²/2! + ... until terms vanish.
  Matrix result = Matrix::Identity(n);
  Matrix term = Matrix::Identity(n);
  for (int k = 1; k <= 40; ++k) {
    term = term * scaled;
    double term_norm = 0.0;
    for (size_t r = 0; r < n; ++r) {
      for (size_t c = 0; c < n; ++c) {
        term.At(r, c) /= static_cast<double>(k);
        result.At(r, c) += term.At(r, c);
        term_norm = std::max(term_norm, std::fabs(term.At(r, c)));
      }
    }
    if (term_norm < 1e-18) {
      break;
    }
  }

  for (int s = 0; s < squarings; ++s) {
    result = result * result;
  }
  return result;
}

}  // namespace longstore
