// Network-structure properties of the P-DQN family critics and actors.
#include "rl/nets.h"

#include <gtest/gtest.h>

#include "rl/mp_dqn.h"

namespace head::rl {
namespace {

AugmentedState RandomState(Rng& rng) {
  AugmentedState s;
  s.h = nn::Tensor::Uniform(kStateHRows, kStateCols, -1.0, 1.0, rng);
  s.f = nn::Tensor::Uniform(kStateFRows, kStateCols, -1.0, 1.0, rng);
  return s;
}

TEST(BpXNetTest, OutputsBoundedByAMax) {
  Rng rng(1);
  BpXNet x(32, 3.0, rng);
  Rng srng(2);
  for (int i = 0; i < 20; ++i) {
    const AugmentedState s = RandomState(srng);
    const nn::Tensor out = x.ForwardBatch({&s}).value();
    ASSERT_EQ(out.cols(), kNumBehaviors);
    for (int c = 0; c < out.cols(); ++c) {
      EXPECT_GT(out.At(0, c), -3.0);
      EXPECT_LT(out.At(0, c), 3.0);
    }
  }
}

TEST(BpXNetTest, StartsNearZeroAcceleration) {
  // Small output init: the fresh actor must not begin saturated.
  Rng rng(3);
  BpXNet x(64, 3.0, rng);
  Rng srng(4);
  for (int i = 0; i < 10; ++i) {
    const AugmentedState s = RandomState(srng);
    const nn::Tensor out = x.ForwardBatch({&s}).value();
    for (int c = 0; c < out.cols(); ++c) {
      EXPECT_LT(std::fabs(out.At(0, c)), 1.5);
    }
  }
}

// Regression test for the Eq. (27) degeneracy: with a single linear merge
// the critic satisfies Q(s, x) − Q(s, x') = Q(t, x) − Q(t, x') for ALL
// states s, t — i.e., the optimal acceleration is state-independent. The
// fusion layer must break that additive separability.
TEST(BpQNetTest, QIsNotAdditivelySeparableInStateAndAction) {
  Rng rng(5);
  BpQNet q(32, rng);
  Rng srng(6);
  const AugmentedState s1 = RandomState(srng);
  const AugmentedState s2 = RandomState(srng);
  nn::Tensor xa(1, kNumBehaviors, {-3.0, 0.0, 3.0});
  nn::Tensor xb(1, kNumBehaviors, {3.0, 0.0, -3.0});
  auto delta = [&](const AugmentedState& s) {
    const nn::Tensor qa = q.ForwardBatch({&s}, nn::Var::Constant(xa)).value();
    const nn::Tensor qb = q.ForwardBatch({&s}, nn::Var::Constant(xb)).value();
    return qa.At(0, 0) - qb.At(0, 0);
  };
  EXPECT_NE(delta(s1), delta(s2))
      << "critic is additively separable — acceleration preferences cannot "
         "depend on the state";
}

TEST(BpQNetTest, BranchEncoderOutputsDependOnEveryVehicleRow) {
  Rng rng(7);
  BranchEncoder enc(kStateHRows, 32, rng);
  Rng srng(8);
  nn::Tensor block =
      nn::Tensor::Uniform(kStateHRows, kStateCols, -1.0, 1.0, srng);
  const nn::Tensor base = enc.ForwardStacked(block, /*batch=*/1).value();
  for (int r = 0; r < kStateHRows; ++r) {
    nn::Tensor perturbed = block;
    perturbed.At(r, 1) += 0.5;
    const nn::Tensor out = enc.ForwardStacked(perturbed, /*batch=*/1).value();
    // Only the per-vehicle scalar of the perturbed row may change.
    for (int c = 0; c < kStateHRows; ++c) {
      if (c == r) {
        EXPECT_NE(out.At(0, c), base.At(0, c)) << "dead unit in row " << r;
      } else {
        EXPECT_DOUBLE_EQ(out.At(0, c), base.At(0, c));
      }
    }
  }
}

TEST(FlatNetsTest, ShapesMatchContract) {
  Rng rng(9);
  FlatXNet x(32, 3.0, rng);
  FlatQNet q(32, rng);
  Rng srng(10);
  const AugmentedState s = RandomState(srng);
  const nn::Var xv = x.ForwardBatch({&s});
  EXPECT_EQ(xv.value().rows(), 1);
  EXPECT_EQ(xv.value().cols(), kNumBehaviors);
  const nn::Var qv = q.ForwardBatch({&s}, xv);
  EXPECT_EQ(qv.value().rows(), 1);
  EXPECT_EQ(qv.value().cols(), kNumBehaviors);
}

TEST(MultiPassTest, GradientOnlyFlowsThroughOwnParameter) {
  Rng rng(11);
  MultiPassQNet q(16, rng);
  Rng srng(12);
  const AugmentedState s0 = RandomState(srng);
  const AugmentedState s1 = RandomState(srng);
  // A 2-row batch: backprop only through Q of behavior 1 in row r. The x
  // gradients of behaviors 0 and 2 in that row, and every x gradient of the
  // other row, must be exactly zero (the multi-pass property, per row).
  for (int r = 0; r < 2; ++r) {
    SCOPED_TRACE(::testing::Message() << "row " << r);
    nn::Var x = nn::Var::Param(
        nn::Tensor(2, kNumBehaviors, {1.0, -1.0, 0.5, -0.5, 2.0, 0.25}));
    const nn::Var q_all = q.ForwardBatch({&s0, &s1}, x);
    ASSERT_EQ(q_all.value().rows(), 2);
    nn::Backward(nn::Sum(nn::SliceRows(nn::SliceCols(q_all, 1, 2), r, r + 1)));
    EXPECT_DOUBLE_EQ(x.grad().At(r, 0), 0.0);
    EXPECT_NE(x.grad().At(r, 1), 0.0);
    EXPECT_DOUBLE_EQ(x.grad().At(r, 2), 0.0);
    for (int c = 0; c < kNumBehaviors; ++c) {
      EXPECT_DOUBLE_EQ(x.grad().At(1 - r, c), 0.0);
    }
  }
}

}  // namespace
}  // namespace head::rl
