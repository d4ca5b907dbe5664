#include "core/qlec_routing.hpp"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <numeric>
#include <vector>

namespace qlec {
namespace {

// Geometry: node 0 (member) between two heads; head 1 near, head 2 far.
Network routing_net() {
  const std::vector<Vec3> pts{
      {100, 100, 50},   // 0: member
      {110, 100, 50},   // 1: near head (d = 10)
      {180, 100, 50},   // 2: far head (d = 80)
      {100, 180, 50},   // 3: spare
  };
  return Network(pts, 5.0, /*bs=*/{100, 100, 200}, Aabb::cube(200.0));
}

QlecParams base_params() {
  QlecParams p;
  p.epsilon = 0.0;  // deterministic argmax for tests
  return p;
}

TEST(QlecRouter, InitialValuesAreZero) {
  const QlecRouter router(base_params(), RadioModel{}, 4);
  EXPECT_DOUBLE_EQ(router.v(0), 0.0);
  EXPECT_DOUBLE_EQ(router.v(kBaseStationId), 0.0);
}

TEST(QlecRouter, RewardSuccessStructure) {
  const Network net = routing_net();
  QlecParams p = base_params();
  const QlecRouter router(p, RadioModel{}, net.size());
  const double r_near = router.reward_success(net, 0, 1, 4000.0);
  const double r_far = router.reward_success(net, 0, 2, 4000.0);
  // Nearer head costs less energy => strictly better reward (same x terms).
  EXPECT_GT(r_near, r_far);
  // With full batteries, x terms are 1 each: -g + a1*2 - a2*y.
  const RadioModel radio;
  const double y_near = radio.amp_energy(4000.0, 10.0) /
                        radio.amp_energy(4000.0, radio.d0());
  EXPECT_NEAR(r_near, -p.g + p.alpha1 * 2.0 - p.alpha2 * y_near, 1e-12);
}

TEST(QlecRouter, DirectToBsCarriesPenalty) {
  const Network net = routing_net();
  QlecParams p = base_params();
  const QlecRouter router(p, RadioModel{}, net.size());
  const double r_bs = router.reward_success(net, 0, kBaseStationId, 4000.0);
  const double r_head = router.reward_success(net, 0, 1, 4000.0);
  EXPECT_LT(r_bs, r_head - p.l * 0.5);  // dominated by the -l penalty
}

TEST(QlecRouter, RewardFailureUsesBetaWeights) {
  const Network net = routing_net();
  QlecParams p = base_params();
  const QlecRouter router(p, RadioModel{}, net.size());
  const RadioModel radio;
  const double y = radio.amp_energy(4000.0, 10.0) /
                   radio.amp_energy(4000.0, radio.d0());
  EXPECT_NEAR(router.reward_failure(net, 0, 1, 4000.0),
              -p.g + p.beta1 * 1.0 - p.beta2 * y, 1e-12);
}

TEST(QlecRouter, ChoosesNearHeadInitially) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(1);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
}

TEST(QlecRouter, NeverChoosesBsWhenHeadsExist) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(2);
  for (int i = 0; i < 20; ++i)
    EXPECT_NE(router.choose_target(net, 0, 4000.0, rng), kBaseStationId);
}

TEST(QlecRouter, BsIsOnlyOptionWithoutHeads) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {});
  Rng rng(3);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), kBaseStationId);
}

TEST(QlecRouter, SelfExcludedFromActions) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {0, 2});  // src itself is a listed head
  Rng rng(4);
  const int target = router.choose_target(net, 0, 4000.0, rng);
  EXPECT_NE(target, 0);
}

TEST(QlecRouter, VUpdatedToMaxQ) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(5);
  router.choose_target(net, 0, 4000.0, rng);
  const double q1 = router.q_value(net, 0, 1, 4000.0);
  // After the update, V(0) equals max_a Q which recursively references
  // V(0) itself; verify it equals the best action's *current* Q.
  EXPECT_NEAR(router.v(0), q1, std::fabs(q1) * 0.5 + 1e-6);
  EXPECT_NE(router.v(0), 0.0);
}

TEST(QlecRouter, FailedAcksLowerLinkEstimateAndFlipChoice) {
  // Heads at 10 m and 40 m: close enough in transmission cost that link
  // quality decides, far enough that the choice starts at the near head.
  const std::vector<Vec3> pts{
      {100, 100, 50}, {110, 100, 50}, {140, 100, 50}};
  Network net(pts, 5.0, {100, 100, 200}, Aabb::cube(200.0));
  QlecParams p = base_params();
  QlecRouter router(p, RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(6);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
  // Hammer the near link with failures and reinforce the far link. The
  // flip also needs V(b_0) to relax through a few Send-Data sweeps (the
  // self-transition compounds the expected retry cost).
  for (int i = 0; i < 64; ++i) router.record_outcome(0, 1, false);
  for (int i = 0; i < 8; ++i) router.record_outcome(0, 2, true);
  int chosen = -1;
  for (int sweep = 0; sweep < 20; ++sweep)
    chosen = router.choose_target(net, 0, 4000.0, rng);
  EXPECT_EQ(chosen, 2);
}

TEST(QlecRouter, QValueUsesEstimatedLinkProbability) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1});
  const double q_before = router.q_value(net, 0, 1, 4000.0);
  for (int i = 0; i < 32; ++i) router.record_outcome(0, 1, false);
  const double q_after = router.q_value(net, 0, 1, 4000.0);
  EXPECT_LT(q_after, q_before);
}

TEST(QlecRouter, HeadValueUpdateReflectsUplinkCost) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  // Head 1 is ~100 m from the BS; head 2 is ~sqrt(80^2+150^2) ~ 170 m.
  router.update_head_value(net, 1, 2000.0);
  router.update_head_value(net, 2, 2000.0);
  EXPECT_GT(router.v(1), router.v(2));
}

TEST(QlecRouter, HeadValuesInfluenceMemberChoice) {
  // Make the near head's V strongly negative; a sufficiently close far
  // head race shows the gamma*V(h) term at work.
  const std::vector<Vec3> pts{
      {100, 100, 50}, {110, 100, 50}, {112, 100, 50}};
  Network net(pts, 5.0, {100, 100, 200}, Aabb::cube(200.0));
  QlecParams p = base_params();
  QlecRouter router(p, RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(7);
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 1);
  // Drive V(1) down via repeated failed uplinks.
  for (int i = 0; i < 64; ++i) {
    router.record_outcome(1, kBaseStationId, false);
    router.update_head_value(net, 1, 4000.0);
  }
  EXPECT_EQ(router.choose_target(net, 0, 4000.0, rng), 2);
}

TEST(QlecRouter, QEvaluationsCountKPlusOnePerSendData) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(8);
  const std::size_t before = router.q_evaluations();
  router.choose_target(net, 0, 4000.0, rng);
  // Algorithm 4 evaluates each head + the BS: k + 1 = 3.
  EXPECT_EQ(router.q_evaluations() - before, 3u);
}

TEST(QlecRouter, EpsilonExploresNonGreedyActions) {
  const Network net = routing_net();
  QlecParams p = base_params();
  p.epsilon = 1.0;  // always explore
  QlecRouter router(p, RadioModel{}, net.size());
  router.begin_round(net, {1, 2});
  Rng rng(9);
  bool saw_other = false;
  for (int i = 0; i < 64 && !saw_other; ++i)
    saw_other = router.choose_target(net, 0, 4000.0, rng) != 1;
  EXPECT_TRUE(saw_other);
}

TEST(QlecRouter, RawJoulesModeMatchesPaperFormulas) {
  // With x_scale = y_scale = 1 the rewards use raw joules (paper-literal).
  const Network net = routing_net();
  QlecParams p = base_params();
  p.x_scale = 1.0;
  p.y_scale = 1.0;
  const QlecRouter router(p, RadioModel{}, net.size());
  const RadioModel radio;
  const double expect = -p.g + p.alpha1 * (5.0 + 5.0) -
                        p.alpha2 * radio.amp_energy(4000.0, 10.0);
  EXPECT_NEAR(router.reward_success(net, 0, 1, 4000.0), expect, 1e-12);
}

TEST(QlecRouter, MaxVDeltaResetsEachRound) {
  const Network net = routing_net();
  QlecRouter router(base_params(), RadioModel{}, net.size());
  router.begin_round(net, {1});
  Rng rng(10);
  router.choose_target(net, 0, 4000.0, rng);
  EXPECT_GT(router.max_v_delta_this_round(), 0.0);
  router.begin_round(net, {1});
  EXPECT_DOUBLE_EQ(router.max_v_delta_this_round(), 0.0);
}

TEST(QlecRouter, ChooseTargetMatchesQValueOracleAcrossHeadCounts) {
  // choose_target scores up to 7 head actions scalar and 8 or more through
  // the per-decision SIMD y row and Q-scan. Either way it must return the
  // first strict argmax of q_value() over [heads \ src..., BS] and store
  // that max in V(src) bit for bit. k = 8 with src a listed head leaves 7
  // head actions, so both sides of the threshold are crossed.
  constexpr std::size_t kNodes = 200;
  constexpr double kBits = 4000.0;
  Rng rng(11);
  std::vector<Vec3> pts(kNodes);
  std::vector<double> e0(kNodes);
  for (std::size_t i = 0; i < kNodes; ++i) {
    pts[i] = {rng.uniform(0, 200), rng.uniform(0, 200), rng.uniform(0, 200)};
    e0[i] = rng.uniform(2.0, 5.0);
  }
  Network net(pts, e0, /*bs=*/{100, 100, 250}, Aabb::cube(200.0));
  for (std::size_t i = 0; i < kNodes; ++i)
    net.node(static_cast<int>(i)).battery.consume(rng.uniform(0.0, 1.5));
  QlecRouter router(base_params(), RadioModel{}, net.size());
  std::vector<int> ids(kNodes);
  std::iota(ids.begin(), ids.end(), 0);

  for (const std::size_t k : {7, 8, 9, 16, 33}) {
    // Two rounds with different head sets: the per-round head SoA must
    // follow the installed set.
    for (int round = 0; round < 2; ++round) {
      rng.shuffle(ids);
      const std::vector<int> heads(
          ids.begin(), ids.begin() + static_cast<std::ptrdiff_t>(k));
      router.begin_round(net, heads);
      for (const int h : heads) {
        for (int t = 0; t < 4; ++t)
          router.record_outcome(h, kBaseStationId, rng.bernoulli(0.7));
        router.update_head_value(net, h, kBits);
      }
      const int member = ids[k];
      const int listed_head = heads[k / 2];
      for (const int src : {member, listed_head}) {
        for (const int h : heads)
          for (int t = 0; t < 3; ++t)
            router.record_outcome(src, h, rng.bernoulli(0.6));
        router.record_outcome(src, kBaseStationId, rng.bernoulli(0.5));
        // Two decisions per source: the second scans with V(src) != 0.
        for (int decision = 0; decision < 2; ++decision) {
          int want = kBaseStationId;
          double want_q = -std::numeric_limits<double>::infinity();
          std::vector<int> candidates;
          for (const int h : heads)
            if (h != src) candidates.push_back(h);
          candidates.push_back(kBaseStationId);
          for (const int a : candidates) {
            const double q = router.q_value(net, src, a, kBits);
            if (q > want_q) {
              want_q = q;
              want = a;
            }
          }
          const int got = router.choose_target(net, src, kBits, rng);
          EXPECT_EQ(got, want) << "k=" << k << " round=" << round
                               << " src=" << src;
          EXPECT_EQ(std::bit_cast<std::uint64_t>(router.v(src)),
                    std::bit_cast<std::uint64_t>(want_q))
              << "k=" << k << " round=" << round << " src=" << src;
        }
      }
    }
  }
}

}  // namespace
}  // namespace qlec
