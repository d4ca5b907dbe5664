// Cross-validation of the QLEC router's online backups against exact
// dynamic programming: the Data Transmission Phase MDP (Section 4.2) built
// explicitly and solved with value iteration must agree with the router's
// converged V values and greedy choices.
#include <gtest/gtest.h>

#include "core/qlec_routing.hpp"
#include "support/value_iteration.hpp"

namespace qlec {
namespace {

// Member at the origin-ish, two heads, BS far above. Head values are held
// fixed (heads only change via uplink updates, which we do not run here),
// so the member's MDP has |A| = 3 actions, each a two-outcome transition.
struct Fixture {
  Network net{std::vector<Vec3>{{100, 100, 50},
                                {120, 100, 50},
                                {100, 150, 50}},
              5.0,
              Vec3{100, 100, 200},
              Aabb::cube(200.0)};
  QlecParams params = [] {
    QlecParams p;
    p.epsilon = 0.0;
    return p;
  }();
  RadioModel radio{};
};

TEST(QlecMdpValidation, RouterConvergesToValueIterationFixedPoint) {
  Fixture f;
  QlecRouter router(f.params, f.radio, f.net.size());
  router.begin_round(f.net, {1, 2});

  // Pin link estimates by feeding the estimator a long deterministic
  // history: p(0->1) ~ 0.75, p(0->2) ~ 0.5, p(0->BS) ~ 0.25.
  for (int i = 0; i < 64; ++i) {
    router.record_outcome(0, 1, i % 4 != 3);
    router.record_outcome(0, 2, i % 2 == 0);
    router.record_outcome(0, kBaseStationId, i % 4 == 0);
  }
  const double p1 = router.estimator().estimate(0, 1);
  const double p2 = router.estimator().estimate(0, 2);
  const double pb = router.estimator().estimate(0, kBaseStationId);

  // Run Send-Data until V(b_0) converges.
  Rng rng(1);
  double prev = 1e18;
  int chosen = -1;
  for (int iter = 0; iter < 500; ++iter) {
    chosen = router.choose_target(f.net, 0, 4000.0, rng);
    if (std::abs(router.v(0) - prev) < 1e-12) break;
    prev = router.v(0);
  }

  // Build the same MDP exactly: state 0 = member, states 1..3 = absorbing
  // action outcomes (heads have fixed V = 0 here, folded into rewards).
  const double gamma = f.params.gamma;
  Mdp mdp = Mdp::make(2, 3);
  mdp.terminal[1] = true;
  const int targets[3] = {1, 2, kBaseStationId};
  const double probs[3] = {p1, p2, pb};
  for (int a = 0; a < 3; ++a) {
    const double r_s =
        router.reward_success(f.net, 0, targets[a], 4000.0) +
        gamma * router.v(targets[a]);
    const double r_f = router.reward_failure(f.net, 0, targets[a], 4000.0);
    mdp.add_transition(0, static_cast<std::size_t>(a), 1, probs[a], r_s);
    mdp.add_transition(0, static_cast<std::size_t>(a), 0, 1.0 - probs[a],
                       r_f);
  }
  const ValueIterationResult exact = value_iteration(mdp, gamma);

  EXPECT_NEAR(router.v(0), exact.v[0], 1e-9);
  EXPECT_EQ(chosen, targets[exact.policy[0]]);
}

TEST(QlecMdpValidation, QValuesMatchBellmanBackup) {
  Fixture f;
  QlecRouter router(f.params, f.radio, f.net.size());
  router.begin_round(f.net, {1, 2});
  for (int i = 0; i < 32; ++i) router.record_outcome(0, 1, i % 3 != 0);

  const double gamma = f.params.gamma;
  for (const int target : {1, 2, kBaseStationId}) {
    const double p = router.estimator().estimate(0, target);
    const double expect =
        p * (router.reward_success(f.net, 0, target, 4000.0) +
             gamma * router.v(target)) +
        (1.0 - p) * (router.reward_failure(f.net, 0, target, 4000.0) +
                     gamma * router.v(0));
    EXPECT_NEAR(router.q_value(f.net, 0, target, 4000.0), expect, 1e-12)
        << "target " << target;
  }
}

TEST(QlecMdpValidation, HeadValueRecursionMatchesClosedForm) {
  Fixture f;
  QlecRouter router(f.params, f.radio, f.net.size());
  router.begin_round(f.net, {1});
  // Pin the uplink success probability.
  for (int i = 0; i < 64; ++i)
    router.record_outcome(1, kBaseStationId, i % 2 == 0);
  const double p = router.estimator().estimate(1, kBaseStationId);

  // Iterate Algorithm 1 line 15 until fixed point.
  for (int i = 0; i < 2000; ++i) router.update_head_value(f.net, 1, 4000.0);

  // Closed form: V = Rt / (1 - gamma (1 - P)) with V(BS) = 0 and
  // Rt = P r_s + (1-P) r_f; r_s here is the head's (penalty-free) uplink
  // reward, which for a full-battery head equals the member formula + l.
  const double gamma = f.params.gamma;
  const double r_s =
      router.reward_success(f.net, 1, kBaseStationId, 4000.0) + f.params.l;
  const double r_f = router.reward_failure(f.net, 1, kBaseStationId, 4000.0);
  const double rt = p * r_s + (1.0 - p) * r_f;
  EXPECT_NEAR(router.v(1), rt / (1.0 - gamma * (1.0 - p)), 1e-9);
}

}  // namespace
}  // namespace qlec
