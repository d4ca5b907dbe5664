// Additional property sweeps: radio-model laws, HEED coverage across
// ranges, Q-learning vs exact DP on random MDPs, and QLEC's paper-literal
// (raw-joules) reward mode.
#include <gtest/gtest.h>

#include <cmath>

#include "cluster/heed.hpp"
#include "core/qlec_routing.hpp"
#include "geom/sampling.hpp"
#include "support/value_iteration.hpp"
#include "sim/experiment.hpp"

namespace qlec {
namespace {

// --- Radio model laws over a (bits, distance) grid -----------------------

class RadioLaw
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(RadioLaw, TxDecomposesIntoElectronicsPlusAmp) {
  const auto [bits, d] = GetParam();
  const RadioModel m;
  EXPECT_NEAR(m.tx_energy(bits, d),
              bits * m.params().e_elec + m.amp_energy(bits, d), 1e-18);
}

TEST_P(RadioLaw, AmpRegimeMatchesDistance) {
  const auto [bits, d] = GetParam();
  const RadioModel m;
  const double amp = m.amp_energy(bits, d);
  if (d < m.d0()) {
    EXPECT_NEAR(amp, bits * m.params().eps_fs * d * d, 1e-18);
  } else {
    EXPECT_NEAR(amp, bits * m.params().eps_mp * std::pow(d, 4), 1e-18);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Grid, RadioLaw,
    ::testing::Combine(::testing::Values(500.0, 4000.0, 20000.0),
                       ::testing::Values(1.0, 50.0, 87.0, 88.0, 200.0)));

// --- HEED coverage across cluster ranges ---------------------------------

class HeedRange : public ::testing::TestWithParam<double> {};

TEST_P(HeedRange, EveryNodeWithinTwoRangesOfAHead) {
  const double range = GetParam();
  Rng rng(11);
  const Aabb box = Aabb::cube(100.0);
  Network net(sample_uniform(120, box, rng), 5.0, box.center(), box);
  HeedConfig cfg;
  cfg.cluster_range = range;
  const HeedResult r = heed_elect(net, cfg, 0, rng, 0.0);
  ASSERT_FALSE(r.heads.empty());
  for (const SensorNode& n : net.nodes()) {
    double best = 1e18;
    for (const int h : r.heads) best = std::min(best, net.dist(n.id, h));
    EXPECT_LE(best, 2.0 * range + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Ranges, HeedRange,
                         ::testing::Values(10.0, 20.0, 35.0, 60.0, 120.0));

// --- Q-learning vs exact DP on random MDPs --------------------------------

Mdp random_mdp(Rng& rng, std::size_t states, std::size_t actions) {
  Mdp m = Mdp::make(states, actions);
  m.terminal[states - 1] = true;
  for (std::size_t s = 0; s + 1 < states; ++s) {
    for (std::size_t a = 0; a < actions; ++a) {
      // Two-branch stochastic transitions to random successors.
      const double p = rng.uniform(0.2, 0.8);
      const std::size_t s1 = rng.uniform_int(states);
      const std::size_t s2 = rng.uniform_int(states);
      m.add_transition(s, a, s1, p, rng.uniform(-1.0, 1.0));
      m.add_transition(s, a, s2, 1.0 - p, rng.uniform(-1.0, 1.0));
    }
  }
  return m;
}

class RandomMdp : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(RandomMdp, ValueIterationSatisfiesBellmanOptimality) {
  Rng rng(GetParam());
  const Mdp m = random_mdp(rng, 6, 3);
  const double gamma = 0.9;
  const ValueIterationResult r = value_iteration(m, gamma);
  for (std::size_t s = 0; s + 1 < m.states; ++s) {
    double best = -1e18;
    for (std::size_t a = 0; a < m.actions; ++a)
      best = std::max(best, q_from_values(m, r.v, s, a, gamma));
    EXPECT_NEAR(r.v[s], best, 1e-8) << "state " << s;
    // The recorded policy attains the max.
    EXPECT_NEAR(q_from_values(m, r.v, s, r.policy[s], gamma), best, 1e-8);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomMdp,
                         ::testing::Values(1u, 7u, 13u, 42u, 99u));

// --- Paper-literal raw-joules reward mode ---------------------------------

TEST(RawJoulesMode, FullPipelineStillConservesAndDelivers) {
  ExperimentConfig cfg;
  cfg.scenario.n = 50;
  cfg.sim.rounds = 8;
  cfg.sim.slots_per_round = 10;
  cfg.seeds = 2;
  cfg.protocol.qlec.total_rounds = 8;
  cfg.protocol.qlec.x_scale = 1.0;  // raw joules, as printed in the paper
  cfg.protocol.qlec.y_scale = 1.0;
  cfg.protocol.qlec.y_scale_bs = 1.0;
  for (const SimResult& r : run_replications("qlec", cfg)) {
    EXPECT_EQ(r.generated,
              r.delivered + r.lost_link + r.lost_queue + r.lost_dead);
    EXPECT_GT(r.pdr(), 0.5);
  }
}

TEST(RawJoulesMode, DistanceTermIsNumericallyInvisible) {
  // The documented pathology (DESIGN.md §6): with raw joules, y ~ 1e-5 J
  // cannot move a reward built from x ~ 5 J terms.
  const std::vector<Vec3> pts{{100, 100, 50}, {110, 100, 50},
                              {100, 180, 50}};
  const Network net(pts, 5.0, {100, 100, 200}, Aabb::cube(200.0));
  QlecParams p;
  p.x_scale = 1.0;
  p.y_scale = 1.0;
  p.y_scale_bs = 1.0;
  const QlecRouter router(p, RadioModel{}, net.size());
  const double near = router.reward_success(net, 0, 1, 4000.0);
  const double far = router.reward_success(net, 0, 2, 4000.0);
  EXPECT_NEAR(near, far, 1e-3);  // 10 m vs 80 m: nearly indistinguishable
  EXPECT_GT(near, far);          // ...though technically ordered
}

// --- Aggregation-mode invariants ------------------------------------------

class AggregationMode : public ::testing::TestWithParam<Aggregation> {};

TEST_P(AggregationMode, ConservationHoldsForAllProtocols) {
  ExperimentConfig cfg;
  cfg.scenario.n = 40;
  cfg.sim.rounds = 5;
  cfg.sim.slots_per_round = 10;
  cfg.sim.aggregation = GetParam();
  cfg.seeds = 1;
  cfg.protocol.qlec.total_rounds = 5;
  for (const char* name : {"qlec", "fcm", "tl-leach"}) {
    for (const SimResult& r : run_replications(name, cfg)) {
      EXPECT_EQ(r.generated,
                r.delivered + r.lost_link + r.lost_queue + r.lost_dead)
          << name;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Modes, AggregationMode,
                         ::testing::Values(Aggregation::kRatioCompress,
                                           Aggregation::kFixedSummary));

}  // namespace
}  // namespace qlec
