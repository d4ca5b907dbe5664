#include "rl/qlearning.hpp"

#include <gtest/gtest.h>

#include <vector>

namespace qlec {
namespace {

TEST(ExpectedQ, EmptyBranchesIsZero) {
  EXPECT_DOUBLE_EQ(expected_q({}, 0.9), 0.0);
}

TEST(ExpectedQ, SingleDeterministicBranch) {
  // Q = r + gamma * v.
  EXPECT_DOUBLE_EQ(expected_q({{1.0, 2.0, 10.0}}, 0.5), 2.0 + 5.0);
}

TEST(ExpectedQ, MixesBranchesByProbability) {
  const std::vector<Branch> b{{0.25, 4.0, 8.0}, {0.75, 0.0, 0.0}};
  // R = 0.25*4 = 1; V = 0.25*8 = 2; Q = 1 + 0.9*2.
  EXPECT_DOUBLE_EQ(expected_q(b, 0.9), 1.0 + 1.8);
}

TEST(TwoOutcomeTransition, MatchesPaperEq15Substitution) {
  const TwoOutcomeTransition t{
      .p_success = 0.8,
      .reward_success = 1.0,
      .reward_failure = -0.5,
      .v_success = 2.0,
      .v_failure = -1.0,
  };
  const double gamma = 0.95;
  const double rt = 0.8 * 1.0 + 0.2 * -0.5;
  const double expect = rt + gamma * (0.8 * 2.0 + 0.2 * -1.0);
  EXPECT_DOUBLE_EQ(t.q_value(gamma), expect);
}

TEST(TwoOutcomeTransition, CertainSuccessIgnoresFailureBranch) {
  const TwoOutcomeTransition t{
      .p_success = 1.0,
      .reward_success = 3.0,
      .reward_failure = -100.0,
      .v_success = 1.0,
      .v_failure = -100.0,
  };
  EXPECT_DOUBLE_EQ(t.q_value(0.5), 3.0 + 0.5);
}

TEST(TwoOutcomeTransition, EquivalentToGenericExpectedQ) {
  const TwoOutcomeTransition t{
      .p_success = 0.3,
      .reward_success = 0.7,
      .reward_failure = -0.2,
      .v_success = 1.5,
      .v_failure = 0.4,
  };
  const std::vector<Branch> branches{{0.3, 0.7, 1.5}, {0.7, -0.2, 0.4}};
  EXPECT_NEAR(t.q_value(0.9), expected_q(branches, 0.9), 1e-12);
}

}  // namespace
}  // namespace qlec
