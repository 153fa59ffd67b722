// Property-based test suites: each TEST_P sweeps a family of inputs and
// checks an invariant that must hold for every member — round trips,
// adjointness, ranking equivalences, policy monotonicity, aggregation
// bounds.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "autograd/ops.hpp"
#include "core/aggregator.hpp"
#include "core/comm_cost.hpp"
#include "core/entropy.hpp"
#include "core/inference.hpp"
#include "gradcheck.hpp"
#include "tensor/bitpack.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor_ops.hpp"

namespace ddnn {
namespace {

using autograd::Variable;

// ------------------------------------------------------- bit-pack round trip

class BitpackRoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(BitpackRoundTrip, IsExactForAnySize) {
  const int n = GetParam();
  Rng rng(static_cast<std::uint64_t>(n) * 7919);
  const Tensor t = ops::sign(Tensor::randn(Shape{n}, rng));
  const auto bytes = pack_signs(t);
  EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), packed_size_bytes(n));
  EXPECT_TRUE(unpack_signs(bytes, Shape{n}).allclose(t, 0.0f));
}

INSTANTIATE_TEST_SUITE_P(Sizes, BitpackRoundTrip,
                         ::testing::Values(1, 2, 7, 8, 9, 15, 16, 17, 63, 64,
                                           65, 255, 256, 257, 1024, 4096));

// --------------------------------------------------------- im2col adjointness

struct Geometry {
  std::int64_t channels, h, w, kernel, stride, pad;
};

class Im2colAdjoint : public ::testing::TestWithParam<Geometry> {};

TEST_P(Im2colAdjoint, InnerProductIdentity) {
  const auto g = GetParam();
  const Conv2dGeometry geom{.in_channels = g.channels,
                            .in_h = g.h,
                            .in_w = g.w,
                            .kernel_h = g.kernel,
                            .kernel_w = g.kernel,
                            .stride = g.stride,
                            .pad = g.pad};
  Rng rng(3);
  const Tensor x = Tensor::randn(Shape{2, g.channels, g.h, g.w}, rng);
  const Tensor cols = im2col(x, geom);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = col2im(y, geom, 2);
  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-2 + 1e-4 * std::fabs(lhs));
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Im2colAdjoint,
    ::testing::Values(Geometry{1, 4, 4, 3, 1, 1}, Geometry{3, 8, 8, 3, 1, 1},
                      Geometry{2, 8, 8, 3, 2, 1}, Geometry{4, 16, 16, 3, 2, 1},
                      Geometry{2, 5, 7, 3, 1, 1}, Geometry{1, 6, 6, 1, 1, 0},
                      Geometry{2, 9, 9, 5, 2, 2}, Geometry{3, 32, 32, 3, 1, 1}));

// ------------------------------------------------------ conv gradient checks

class ConvGradCheck : public ::testing::TestWithParam<Geometry> {};

TEST_P(ConvGradCheck, AnalyticMatchesNumeric) {
  const auto g = GetParam();
  Rng rng(11);
  Variable x = Variable::parameter(
      Tensor::randn(Shape{1, g.channels, g.h, g.w}, rng));
  Variable w = Variable::parameter(
      Tensor::randn(Shape{2, g.channels, g.kernel, g.kernel}, rng));
  testing::expect_gradients_match(
      [&] {
        Variable y = autograd::conv2d(x, w, Variable(), g.stride, g.pad);
        Variable flat = autograd::reshape(y, Shape{1, y.numel()});
        return autograd::matmul(flat,
                                Variable(Tensor::ones(Shape{y.numel(), 1})));
      },
      {x, w}, 1e-2f, 3e-2f);
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, ConvGradCheck,
    ::testing::Values(Geometry{1, 4, 4, 3, 1, 1}, Geometry{2, 5, 5, 3, 1, 1},
                      Geometry{2, 6, 6, 3, 2, 1}, Geometry{3, 4, 4, 1, 1, 0}));

// ------------------------------------------------------- entropy properties

class EntropyProperties : public ::testing::TestWithParam<int> {};

std::vector<float> random_distribution(Rng& rng, int c) {
  std::vector<float> p(static_cast<std::size_t>(c));
  float sum = 0;
  for (auto& v : p) {
    v = static_cast<float>(rng.uniform(0.01, 1.0));
    sum += v;
  }
  for (auto& v : p) v /= sum;
  return p;
}

TEST_P(EntropyProperties, RangeAndPermutationInvariance) {
  Rng rng(static_cast<std::uint64_t>(GetParam()));
  for (int c : {2, 3, 5, 10}) {
    auto p = random_distribution(rng, c);
    const double h = core::normalized_entropy(p);
    EXPECT_GE(h, 0.0);
    EXPECT_LE(h, 1.0);
    auto q = p;
    rng.shuffle(q);
    EXPECT_NEAR(core::normalized_entropy(q), h, 1e-9);
    // Uniform maximizes.
    const std::vector<float> uniform(static_cast<std::size_t>(c),
                                     1.0f / static_cast<float>(c));
    EXPECT_LE(h, core::normalized_entropy(uniform) + 1e-9);
  }
}

TEST_P(EntropyProperties, NormalizedAndUnnormalizedRankIdentically) {
  // The paper's normalized entropy is BranchyNet's entropy divided by
  // log |C|: for a fixed class count the two criteria order samples the same
  // way, so switching criteria only rescales the threshold axis.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 1000);
  const auto a = random_distribution(rng, 3);
  const auto b = random_distribution(rng, 3);
  const auto norm = core::ConfidenceCriterion::kNormalizedEntropy;
  const auto raw = core::ConfidenceCriterion::kUnnormalizedEntropy;
  const double na = core::confidence_score(a, norm);
  const double nb = core::confidence_score(b, norm);
  const double ua = core::confidence_score(a, raw);
  const double ub = core::confidence_score(b, raw);
  EXPECT_EQ(na < nb, ua < ub);
  EXPECT_NEAR(ua, na * std::log(3.0), 1e-9);
}

TEST_P(EntropyProperties, AllCriteriaAgreeOnConfidentVsUniform) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 2000);
  const std::vector<float> confident{0.96f, 0.02f, 0.02f};
  const std::vector<float> uniform{1.0f / 3, 1.0f / 3, 1.0f / 3};
  for (const auto criterion :
       {core::ConfidenceCriterion::kNormalizedEntropy,
        core::ConfidenceCriterion::kUnnormalizedEntropy,
        core::ConfidenceCriterion::kMaxProbability}) {
    EXPECT_LT(core::confidence_score(confident, criterion),
              core::confidence_score(uniform, criterion));
    EXPECT_LE(core::confidence_score(uniform, criterion),
              core::max_confidence_score(3, criterion) + 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, EntropyProperties, ::testing::Range(0, 12));

// ------------------------------------------------------- policy invariants

class PolicyInvariants : public ::testing::TestWithParam<int> {};

core::ExitEval random_eval(Rng& rng, std::int64_t n) {
  core::ExitEval eval;
  eval.exit_names = {"local", "cloud"};
  for (int e = 0; e < 2; ++e) {
    Tensor probs(Shape{n, 3});
    for (std::int64_t i = 0; i < n; ++i) {
      const auto p = random_distribution(rng, 3);
      for (std::int64_t j = 0; j < 3; ++j) {
        probs.at(i, j) = p[static_cast<std::size_t>(j)];
      }
    }
    eval.exit_probs.push_back(probs);
  }
  for (std::int64_t i = 0; i < n; ++i) {
    eval.labels.push_back(static_cast<std::int64_t>(rng.uniform_index(3)));
  }
  return eval;
}

TEST_P(PolicyInvariants, FractionsSumToOneAndAreMonotone) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 31 + 7);
  const auto eval = random_eval(rng, 64);
  double prev_local = -1.0;
  for (double t = 0.0; t <= 1.0 + 1e-9; t += 0.1) {
    const auto r = core::apply_policy(eval, {t});
    double sum = 0;
    for (double f : r.exit_fraction) sum += f;
    EXPECT_NEAR(sum, 1.0, 1e-12);
    EXPECT_GE(r.local_exit_fraction() + 1e-12, prev_local);
    prev_local = r.local_exit_fraction();
    EXPECT_GE(r.overall_accuracy, 0.0);
    EXPECT_LE(r.overall_accuracy, 1.0);
    // Every decision's entropy must respect the exit rule.
    for (const auto& d : r.decisions) {
      if (d.exit_taken == 0) {
        EXPECT_LE(d.entropy, t + 1e-12);
      }
    }
  }
  EXPECT_DOUBLE_EQ(core::apply_policy(eval, {1.0}).local_exit_fraction(),
                   1.0);
  EXPECT_DOUBLE_EQ(
      core::apply_policy(eval, {1.0}).overall_accuracy,
      core::exit_accuracy(eval, 0));
  EXPECT_DOUBLE_EQ(
      core::apply_policy(eval, {0.0}).overall_accuracy,
      core::exit_accuracy(eval, 1));
}

TEST_P(PolicyInvariants, ThresholdSearchIsAtLeastAsGoodAsEndpoints) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) * 17 + 3);
  const auto eval = random_eval(rng, 48);
  const double t = core::search_threshold_best_overall(eval, 0.1);
  const double best = core::apply_policy(eval, {t}).overall_accuracy;
  EXPECT_GE(best + 1e-12, core::exit_accuracy(eval, 0));
  EXPECT_GE(best + 1e-12, core::exit_accuracy(eval, 1));
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyInvariants, ::testing::Range(0, 10));

// ---------------------------------------------------- aggregation properties

class AggregationProperties : public ::testing::TestWithParam<int> {};

TEST_P(AggregationProperties, MaxDominatesAndMeanIsBounded) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 99);
  std::vector<Variable> xs;
  for (int i = 0; i < 4; ++i) {
    xs.emplace_back(Tensor::randn(Shape{3, 5}, rng));
  }
  const Tensor mx = autograd::stack_max(xs).value();
  const Tensor mean = autograd::stack_mean(xs).value();
  for (std::int64_t j = 0; j < mx.numel(); ++j) {
    float lo = xs[0].value()[j], hi = xs[0].value()[j];
    for (const auto& x : xs) {
      lo = std::min(lo, x.value()[j]);
      hi = std::max(hi, x.value()[j]);
    }
    EXPECT_FLOAT_EQ(mx[j], hi);
    EXPECT_GE(mean[j], lo - 1e-6f);
    EXPECT_LE(mean[j], hi + 1e-6f);
  }
}

TEST_P(AggregationProperties, MaskedPoolingIgnoresInactiveValues) {
  // For MP/AP, the *content* of a failed branch must not affect the output.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 500);
  core::VectorAggregator mp(core::AggKind::kMaxPool, 3, 4, rng);
  core::VectorAggregator ap(core::AggKind::kAvgPool, 3, 4, rng);
  std::vector<Variable> a{Variable(Tensor::randn(Shape{2, 4}, rng)),
                          Variable(Tensor::randn(Shape{2, 4}, rng)),
                          Variable(Tensor::randn(Shape{2, 4}, rng))};
  auto b = a;
  b[1] = Variable(Tensor::full(Shape{2, 4}, 1e6f));  // garbage in failed slot
  const std::vector<bool> mask{true, false, true};
  EXPECT_TRUE(mp.forward(a, mask).value().allclose(
      mp.forward(b, mask).value(), 0.0f));
  EXPECT_TRUE(ap.forward(a, mask).value().allclose(
      ap.forward(b, mask).value(), 0.0f));
}

TEST_P(AggregationProperties, GatedSumIsConvexCombination) {
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 700);
  std::vector<Variable> xs;
  for (int i = 0; i < 3; ++i) {
    xs.emplace_back(Tensor::randn(Shape{2, 4}, rng));
  }
  Variable gates(Tensor::randn(Shape{3}, rng));
  const Tensor out =
      autograd::stack_gated_sum(xs, gates, {true, true, true}).value();
  for (std::int64_t j = 0; j < out.numel(); ++j) {
    float lo = xs[0].value()[j], hi = xs[0].value()[j];
    for (const auto& x : xs) {
      lo = std::min(lo, x.value()[j]);
      hi = std::max(hi, x.value()[j]);
    }
    EXPECT_GE(out[j], lo - 1e-5f);
    EXPECT_LE(out[j], hi + 1e-5f);
  }
}

TEST_P(AggregationProperties, GatedSumRenormalizesUnderFailure) {
  // With equal gates, GA over the active subset equals the masked mean.
  Rng rng(static_cast<std::uint64_t>(GetParam()) + 900);
  std::vector<Variable> xs;
  for (int i = 0; i < 3; ++i) {
    xs.emplace_back(Tensor::randn(Shape{2, 3}, rng));
  }
  Variable gates(Tensor::zeros(Shape{3}));
  const std::vector<bool> mask{true, false, true};
  const Tensor ga = autograd::stack_gated_sum(xs, gates, mask).value();
  const Tensor mean = autograd::stack_mean({xs[0], xs[2]}).value();
  EXPECT_TRUE(ga.allclose(mean, 1e-5f));
}

INSTANTIATE_TEST_SUITE_P(Seeds, AggregationProperties, ::testing::Range(0, 8));

// ----------------------------------------------------- comm cost properties

class CommCostProperties
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CommCostProperties, BoundsAndMonotonicity) {
  const auto [filters, classes] = GetParam();
  const core::CommParams p{.num_classes = classes,
                           .filters = filters,
                           .filter_output_bits = 256};
  const double floor = 4.0 * classes;
  const double ceil = floor + filters * 256.0 / 8.0;
  double prev = ceil + 1;
  for (double l = 0.0; l <= 1.0; l += 0.1) {
    const double c = core::ddnn_comm_bytes(l, p);
    EXPECT_GE(c, floor - 1e-9);
    EXPECT_LE(c, ceil + 1e-9);
    EXPECT_LT(c, prev);
    prev = c;
  }
  EXPECT_DOUBLE_EQ(core::ddnn_comm_bytes(1.0, p), floor);
  EXPECT_DOUBLE_EQ(core::ddnn_comm_bytes(0.0, p), ceil);
}

INSTANTIATE_TEST_SUITE_P(Grid, CommCostProperties,
                         ::testing::Combine(::testing::Values(1, 2, 4, 8, 12),
                                            ::testing::Values(2, 3, 10)));

// ----------------------------------------------- gated-sum gradient checking

TEST(GatedSumGradCheck, BranchesAndGates) {
  Rng rng(77);
  Variable a = Variable::parameter(Tensor::randn(Shape{2, 3}, rng));
  Variable b = Variable::parameter(Tensor::randn(Shape{2, 3}, rng));
  Variable c = Variable::parameter(Tensor::randn(Shape{2, 3}, rng));
  Variable gates = Variable::parameter(Tensor::randn(Shape{3}, rng));
  Variable w(Tensor::randn(Shape{2, 3}, rng));
  testing::expect_gradients_match(
      [&] {
        Variable y =
            autograd::stack_gated_sum({a, b, c}, gates, {true, true, true});
        Variable prod = autograd::mul(y, w);
        Variable flat = autograd::reshape(prod, Shape{1, 6});
        return autograd::matmul(flat, Variable(Tensor::ones(Shape{6, 1})));
      },
      {a, b, c, gates}, 1e-2f, 2e-2f);
}

TEST(GatedSumGradCheck, MaskedBranchGetsNoGradient) {
  Rng rng(78);
  Variable a = Variable::parameter(Tensor::randn(Shape{1, 2}, rng));
  Variable b = Variable::parameter(Tensor::randn(Shape{1, 2}, rng));
  Variable gates = Variable::parameter(Tensor::randn(Shape{2}, rng));
  Variable y = autograd::stack_gated_sum({a, b}, gates, {true, false});
  Variable flat = autograd::reshape(y, Shape{1, 2});
  autograd::matmul(flat, Variable(Tensor::ones(Shape{2, 1}))).backward();
  EXPECT_FALSE(b.has_grad() &&
               (b.grad()[0] != 0.0f || b.grad()[1] != 0.0f));
  // The active branch carries full weight (softmax over a single gate = 1).
  EXPECT_FLOAT_EQ(a.grad()[0], 1.0f);
  // The masked gate's gradient is zero; the active one's is zero too since
  // its weight is pinned at 1.
  EXPECT_NEAR(gates.grad()[0], 0.0f, 1e-6f);
  EXPECT_FLOAT_EQ(gates.grad()[1], 0.0f);
}

}  // namespace
}  // namespace ddnn
