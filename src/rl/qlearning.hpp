// The model-based one-step Q backup the paper uses (Eq. 15): the agent
// knows/estimates transition probabilities (from ACK statistics) and
// computes Q*(s,a) = R_t + gamma * sum_s' P(s'|s,a) V*(s') directly instead
// of sampling. QLEC's MDP has exactly two successors per action (delivery
// succeeded -> h_j, failed -> stay at b_i), captured by
// TwoOutcomeTransition; expected_q is the general form it specialises.
#pragma once

#include <vector>

namespace qlec {

/// A (probability, reward, next-state-value) successor branch.
struct Branch {
  double probability = 0.0;
  double reward = 0.0;
  double next_value = 0.0;  // V*(s') estimate
};

/// Eq. 15 backup for an arbitrary successor set:
/// Q = sum_i p_i r_i + gamma * sum_i p_i v_i.
inline double expected_q(const std::vector<Branch>& branches, double gamma) {
  double r = 0.0;
  double v = 0.0;
  for (const Branch& b : branches) {
    r += b.probability * b.reward;
    v += b.probability * b.next_value;
  }
  return r + gamma * v;
}

/// The QLEC special case: one action, two outcomes (success / stay-put).
struct TwoOutcomeTransition {
  double p_success = 1.0;     ///< P^{a_j}_{b_i h_j}
  double reward_success = 0;  ///< R^{a_j}_{b_i h_j} (Eq. 17 / 19)
  double reward_failure = 0;  ///< R^{a_j}_{b_i b_i} (Eq. 20)
  double v_success = 0;       ///< V*(h_j)
  double v_failure = 0;       ///< V*(b_i)

  /// Q = R_t + gamma (p V(h_j) + (1-p) V(b_i)) with
  /// R_t = p r_s + (1-p) r_f   (Eq. 16 substituted into Eq. 15).
  double q_value(double gamma) const noexcept {
    const double p = p_success;
    const double rt = p * reward_success + (1.0 - p) * reward_failure;
    return rt + gamma * (p * v_success + (1.0 - p) * v_failure);
  }
};

}  // namespace qlec
