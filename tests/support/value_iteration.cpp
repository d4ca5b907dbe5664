#include "support/value_iteration.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace qlec {

Mdp Mdp::make(std::size_t states, std::size_t actions) {
  Mdp m;
  m.states = states;
  m.actions = actions;
  m.transitions.assign(
      states, std::vector<std::vector<MdpBranch>>(actions));
  m.terminal.assign(states, false);
  return m;
}

void Mdp::add_transition(std::size_t s, std::size_t a, std::size_t s2,
                         double probability, double reward) {
  transitions.at(s).at(a).push_back(MdpBranch{s2, probability, reward});
}

double q_from_values(const Mdp& mdp, const std::vector<double>& v,
                     std::size_t s, std::size_t a, double gamma) {
  double q = 0.0;
  for (const MdpBranch& b : mdp.transitions[s][a]) {
    const double v_next = mdp.terminal[b.next_state] ? 0.0 : v[b.next_state];
    q += b.probability * (b.reward + gamma * v_next);
  }
  return q;
}

ValueIterationResult value_iteration(const Mdp& mdp, double gamma,
                                     double tolerance, int max_iterations) {
  ValueIterationResult result;
  result.v.assign(mdp.states, 0.0);
  result.policy.assign(mdp.states, 0);

  for (int iter = 0; iter < max_iterations; ++iter) {
    result.iterations = iter + 1;
    double max_delta = 0.0;
    for (std::size_t s = 0; s < mdp.states; ++s) {
      if (mdp.terminal[s]) continue;
      double best = -std::numeric_limits<double>::infinity();
      std::size_t best_a = 0;
      bool any = false;
      for (std::size_t a = 0; a < mdp.actions; ++a) {
        if (mdp.transitions[s][a].empty()) continue;
        const double q = q_from_values(mdp, result.v, s, a, gamma);
        if (q > best) {
          best = q;
          best_a = a;
        }
        any = true;
      }
      if (!any) continue;  // absorbing non-terminal state
      max_delta = std::max(max_delta, std::fabs(best - result.v[s]));
      result.v[s] = best;
      result.policy[s] = best_a;
    }
    result.residual = max_delta;
    if (max_delta < tolerance) break;
  }
  return result;
}

}  // namespace qlec
