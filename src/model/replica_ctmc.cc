#include "src/model/replica_ctmc.h"

#include <stdexcept>

namespace longstore {
namespace {

void CheckValid(const FaultParams& p) {
  if (auto error = p.Validate()) {
    throw std::invalid_argument("FaultParams: " + *error);
  }
}

double RatePerHourOf(Duration mean) {
  if (mean.is_infinite()) {
    return 0.0;
  }
  return 1.0 / mean.hours();
}

}  // namespace

ReplicatedChainBuilder::ReplicatedChainBuilder(const FaultParams& params, int replicas,
                                               RateConvention convention,
                                               int required_intact)
    : params_(params),
      replicas_(replicas),
      convention_(convention),
      required_intact_(required_intact) {
  CheckValid(params_);
  if (replicas_ < 1) {
    throw std::invalid_argument("ReplicatedChainBuilder: replicas must be >= 1");
  }
  if (required_intact_ < 1 || required_intact_ > replicas_) {
    throw std::invalid_argument(
        "ReplicatedChainBuilder: required_intact must lie in [1, replicas]");
  }
  Build();
}

int ReplicatedChainBuilder::StateIndex(int nv, int nl, int nd) const {
  const int stride = replicas_ + 1;
  return index_[static_cast<size_t>((nv * stride + nl) * stride + nd)];
}

void ReplicatedChainBuilder::Build() {
  const int r = replicas_;
  const int stride = r + 1;
  index_.assign(static_cast<size_t>(stride * stride * stride), -1);

  loss_visible_ = chain_.AddState(/*absorbing=*/true);
  loss_latent_ = chain_.AddState(/*absorbing=*/true);

  // Create all transient states (at least required_intact_ intact
  // fragments, so reconstruction is always possible outside the loss states).
  const int max_faulty = r - required_intact_;
  for (int nv = 0; nv <= max_faulty; ++nv) {
    for (int nl = 0; nl + nv <= max_faulty; ++nl) {
      for (int nd = 0; nd + nl + nv <= max_faulty; ++nd) {
        index_[static_cast<size_t>((nv * stride + nl) * stride + nd)] =
            chain_.AddState();
      }
    }
  }
  start_state_ = StateIndex(0, 0, 0);

  const double lv = RatePerHourOf(params_.mv);
  const double ll = RatePerHourOf(params_.ml);
  const bool physical = convention_ == RateConvention::kPhysical;
  const bool instant_visible_repair = !(params_.mrv.hours() > 0.0);
  const bool instant_detection = !(params_.mdl.hours() > 0.0);
  const bool instant_latent_repair = !(params_.mrl.hours() > 0.0);
  // Detection rate; zero when never (MDL = ∞) and unused when instant
  // (MDL = 0, in which case no nl > 0 state is reachable).
  const double detect = (params_.mdl.is_infinite() || instant_detection)
                            ? 0.0
                            : RatePerHourOf(params_.mdl);

  for (int nv = 0; nv <= max_faulty; ++nv) {
    for (int nl = 0; nl + nv <= max_faulty; ++nl) {
      for (int nd = 0; nd + nl + nv <= max_faulty; ++nd) {
        const int from = StateIndex(nv, nl, nd);
        const int healthy = r - nv - nl - nd;
        const int faulty = nv + nl + nd;
        const double corr = faulty > 0 ? 1.0 / params_.alpha : 1.0;
        const double fault_mult = physical ? static_cast<double>(healthy) : 1.0;
        // One more fault below this margin leaves < required_intact_
        // fragments: data loss, on the path this state's faults select.
        const bool at_margin = healthy == required_intact_;
        const int loss = nl + nd > 0 ? loss_latent_ : loss_visible_;

        // Visible fault on a healthy replica.
        if (lv > 0.0) {
          const Rate rate = Rate::PerHour(fault_mult * lv * corr);
          if (at_margin) {
            chain_.AddTransition(from, loss, rate);
          } else if (!instant_visible_repair) {
            chain_.AddTransition(from, StateIndex(nv + 1, nl, nd), rate);
          }
        }

        // Latent fault on a healthy replica.
        if (ll > 0.0) {
          const Rate rate = Rate::PerHour(fault_mult * ll * corr);
          if (at_margin) {
            chain_.AddTransition(from, loss, rate);
          } else if (!instant_detection) {
            chain_.AddTransition(from, StateIndex(nv, nl + 1, nd), rate);
          } else if (!instant_latent_repair) {
            chain_.AddTransition(from, StateIndex(nv, nl, nd + 1), rate);
          }
          // else: instantly detected and repaired; harmless.
        }

        // Detection of latent faults (per-replica scrub processes run in
        // parallel under the physical convention).
        if (nl > 0 && detect > 0.0) {
          const double mult = physical ? static_cast<double>(nl) : 1.0;
          const Rate rate = Rate::PerHour(mult * detect);
          if (instant_latent_repair) {
            chain_.AddTransition(from, StateIndex(nv, nl - 1, nd), rate);
          } else {
            chain_.AddTransition(from, StateIndex(nv, nl - 1, nd + 1), rate);
          }
        }

        // Repairs (a healthy source exists in every transient state).
        if (nv > 0 && !instant_visible_repair) {
          const double mult = physical ? static_cast<double>(nv) : 1.0;
          chain_.AddTransition(from, StateIndex(nv - 1, nl, nd),
                               Rate::PerHour(mult / params_.mrv.hours()));
        }
        if (nd > 0 && !instant_latent_repair) {
          const double mult = physical ? static_cast<double>(nd) : 1.0;
          chain_.AddTransition(from, StateIndex(nv, nl, nd - 1),
                               Rate::PerHour(mult / params_.mrl.hours()));
        }
      }
    }
  }
}

std::optional<Duration> ReplicatedChainBuilder::Mttdl() const {
  return chain_.ExpectedTimeToAbsorptionFrom(start_state_);
}

std::optional<double> ReplicatedChainBuilder::LossProbability(Duration mission) const {
  return chain_.AbsorptionProbabilityBy(start_state_, mission);
}

std::optional<LossPathBreakdown> ReplicatedChainBuilder::LossPaths() const {
  const auto visible = chain_.AbsorptionProbability(start_state_, loss_visible_);
  const auto latent = chain_.AbsorptionProbability(start_state_, loss_latent_);
  if (!visible || !latent) {
    return std::nullopt;
  }
  return LossPathBreakdown{*visible, *latent};
}

std::optional<Duration> MirroredMttdl(const FaultParams& p, RateConvention convention) {
  return ReplicatedChainBuilder(p, 2, convention).Mttdl();
}

std::optional<double> MirroredLossProbability(const FaultParams& p, Duration mission,
                                              RateConvention convention) {
  return ReplicatedChainBuilder(p, 2, convention).LossProbability(mission);
}

std::optional<LossPathBreakdown> MirroredLossPathBreakdown(const FaultParams& p,
                                                           RateConvention convention) {
  return ReplicatedChainBuilder(p, 2, convention).LossPaths();
}

}  // namespace longstore
