#include <gtest/gtest.h>

#include <limits>

#include <cmath>

#include "tensor/bitpack.hpp"
#include "tensor/im2col.hpp"
#include "tensor/tensor.hpp"
#include "tensor/tensor_ops.hpp"
#include "util/error.hpp"
#include "util/rng.hpp"

namespace ddnn {
namespace {

TEST(Shape, NumelAndDims) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.numel(), 24);
  EXPECT_EQ(s.ndim(), 3u);
  EXPECT_EQ(s.dim(0), 2);
  EXPECT_EQ(s.dim(-1), 4);
  EXPECT_EQ(s.dim(-3), 2);
  EXPECT_THROW(s.dim(3), Error);
  EXPECT_THROW(s.dim(-4), Error);
}

TEST(Shape, EqualityAndToString) {
  EXPECT_EQ(Shape({1, 2}), Shape({1, 2}));
  EXPECT_NE(Shape({1, 2}), Shape({2, 1}));
  EXPECT_EQ(Shape({1, 2}).to_string(), "[1, 2]");
  EXPECT_EQ(Shape{}.numel(), 1);
}

TEST(Tensor, ZeroInitialized) {
  Tensor t(Shape{3, 3});
  for (std::int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, CopySharesStorageCloneDoesNot) {
  Tensor a = Tensor::full(Shape{2}, 1.0f);
  Tensor shared = a;
  Tensor deep = a.clone();
  a[0] = 5.0f;
  EXPECT_EQ(shared[0], 5.0f);
  EXPECT_EQ(deep[0], 1.0f);
}

TEST(Tensor, ReshapeSharesStorageAndChecksNumel) {
  Tensor a = Tensor::full(Shape{2, 3}, 2.0f);
  Tensor b = a.reshape(Shape{3, 2});
  b.at(0, 0) = 9.0f;
  EXPECT_EQ(a.at(0, 0), 9.0f);
  EXPECT_THROW(a.reshape(Shape{4}), Error);
}

TEST(Tensor, FromVectorValidatesSize) {
  EXPECT_NO_THROW(Tensor::from_vector(Shape{2, 2}, {1, 2, 3, 4}));
  EXPECT_THROW(Tensor::from_vector(Shape{2, 2}, {1, 2, 3}), Error);
}

TEST(Tensor, AtIndexing4d) {
  Tensor t(Shape{2, 3, 4, 5});
  t.at(1, 2, 3, 4) = 7.0f;
  EXPECT_EQ(t[(((1 * 3) + 2) * 4 + 3) * 5 + 4], 7.0f);
}

TEST(Tensor, AllcloseDetectsDifferences) {
  Tensor a = Tensor::full(Shape{3}, 1.0f);
  Tensor b = Tensor::full(Shape{3}, 1.0f);
  EXPECT_TRUE(a.allclose(b));
  b[1] = 1.1f;
  EXPECT_FALSE(a.allclose(b));
  EXPECT_TRUE(a.allclose(b, 0.2f));
  EXPECT_FALSE(a.allclose(Tensor::full(Shape{4}, 1.0f)));
}

TEST(TensorOps, ElementwiseArithmetic) {
  const Tensor a = Tensor::from_vector(Shape{4}, {1, 2, 3, 4});
  const Tensor b = Tensor::from_vector(Shape{4}, {4, 3, 2, 1});
  EXPECT_TRUE(ops::add(a, b).allclose(Tensor::full(Shape{4}, 5.0f)));
  EXPECT_TRUE(ops::sub(a, b).allclose(
      Tensor::from_vector(Shape{4}, {-3, -1, 1, 3})));
  EXPECT_TRUE(ops::mul(a, b).allclose(
      Tensor::from_vector(Shape{4}, {4, 6, 6, 4})));
  EXPECT_TRUE(ops::div(a, b).allclose(
      Tensor::from_vector(Shape{4}, {0.25f, 2.0f / 3.0f, 1.5f, 4.0f})));
  EXPECT_THROW(ops::add(a, Tensor(Shape{3})), Error);
}

TEST(TensorOps, ScalarAndUnary) {
  const Tensor a = Tensor::from_vector(Shape{3}, {-2, 0, 2});
  EXPECT_TRUE(ops::add_scalar(a, 1.0f)
                  .allclose(Tensor::from_vector(Shape{3}, {-1, 1, 3})));
  EXPECT_TRUE(ops::mul_scalar(a, -2.0f)
                  .allclose(Tensor::from_vector(Shape{3}, {4, 0, -4})));
  EXPECT_TRUE(ops::neg(a).allclose(Tensor::from_vector(Shape{3}, {2, 0, -2})));
  EXPECT_TRUE(ops::clamp(a, -1.0f, 1.0f)
                  .allclose(Tensor::from_vector(Shape{3}, {-1, 0, 1})));
}

TEST(TensorOps, SignConventionAtZero) {
  const Tensor a = Tensor::from_vector(Shape{4}, {-0.5f, 0.0f, 0.5f, -0.0f});
  const Tensor s = ops::sign(a);
  EXPECT_EQ(s[0], -1.0f);
  EXPECT_EQ(s[1], 1.0f);  // sign(0) = +1 so binarized values are in {-1,+1}
  EXPECT_EQ(s[2], 1.0f);
  EXPECT_EQ(s[3], 1.0f);
}

TEST(TensorOps, AxpyAccumulates) {
  Tensor y = Tensor::full(Shape{3}, 1.0f);
  const Tensor x = Tensor::from_vector(Shape{3}, {1, 2, 3});
  ops::axpy_into(y, 2.0f, x);
  EXPECT_TRUE(y.allclose(Tensor::from_vector(Shape{3}, {3, 5, 7})));
}

TEST(TensorOps, MatmulAgainstHandComputed) {
  const Tensor a = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::from_vector(Shape{3, 2}, {7, 8, 9, 10, 11, 12});
  const Tensor c = ops::matmul(a, b);
  EXPECT_TRUE(c.allclose(Tensor::from_vector(Shape{2, 2}, {58, 64, 139, 154})));
}

TEST(TensorOps, MatmulVariantsAgree) {
  Rng rng(5);
  const Tensor a = Tensor::randn(Shape{4, 6}, rng);
  const Tensor b = Tensor::randn(Shape{6, 5}, rng);
  const Tensor ref = ops::matmul(a, b);
  // A^T with transposed input must give the same product.
  EXPECT_TRUE(ops::matmul_tn(ops::transpose2d(a), b).allclose(ref, 1e-4f));
  EXPECT_TRUE(ops::matmul_nt(a, ops::transpose2d(b)).allclose(ref, 1e-4f));
}

TEST(TensorOps, MatmulShapeChecks) {
  EXPECT_THROW(ops::matmul(Tensor(Shape{2, 3}), Tensor(Shape{2, 3})), Error);
  EXPECT_THROW(ops::matmul(Tensor(Shape{2}), Tensor(Shape{2, 2})), Error);
}

TEST(TensorOps, Reductions) {
  const Tensor a = Tensor::from_vector(Shape{2, 2}, {1, -2, 3, 4});
  EXPECT_FLOAT_EQ(ops::sum_all(a), 6.0f);
  EXPECT_FLOAT_EQ(ops::mean_all(a), 1.5f);
  EXPECT_FLOAT_EQ(ops::max_all(a), 4.0f);
}

TEST(TensorOps, ArgmaxRowsTiesGoFirst) {
  const Tensor a = Tensor::from_vector(Shape{2, 3}, {1, 3, 3, 5, 2, 1});
  const auto idx = ops::argmax_rows(a);
  EXPECT_EQ(idx[0], 1);  // first of the tied maxima
  EXPECT_EQ(idx[1], 0);
}

TEST(TensorOps, SoftmaxRowsIsNormalizedAndStable) {
  const Tensor a =
      Tensor::from_vector(Shape{2, 3}, {1000, 1001, 1002, -5, 0, 5});
  const Tensor p = ops::softmax_rows(a);
  for (std::int64_t i = 0; i < 2; ++i) {
    float sum = 0;
    for (std::int64_t j = 0; j < 3; ++j) {
      EXPECT_GE(p.at(i, j), 0.0f);
      sum += p.at(i, j);
    }
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
  }
  EXPECT_GT(p.at(0, 2), p.at(0, 0));  // larger logit, larger probability
}

TEST(TensorOps, RowVectorBroadcastAndItsAdjoint) {
  const Tensor x = Tensor::from_vector(Shape{2, 3}, {1, 2, 3, 4, 5, 6});
  const Tensor b = Tensor::from_vector(Shape{3}, {10, 20, 30});
  const Tensor y = ops::add_row_vector(x, b);
  EXPECT_TRUE(
      y.allclose(Tensor::from_vector(Shape{2, 3}, {11, 22, 33, 14, 25, 36})));
  EXPECT_TRUE(
      ops::sum_rows(x).allclose(Tensor::from_vector(Shape{3}, {5, 7, 9})));
}

// ---------------------------------------------------------------- im2col

TEST(Im2col, GeometryOutputSizes) {
  Conv2dGeometry g{.in_channels = 3, .in_h = 32, .in_w = 32};
  EXPECT_EQ(g.out_h(), 32);  // 3x3 s1 p1 preserves size
  g.stride = 2;
  EXPECT_EQ(g.out_h(), 16);  // 3x3 s2 p1 halves (the ConvP pool geometry)
}

TEST(Im2col, ExtractsCorrectPatch) {
  // 1x1x3x3 image with distinct values; center patch of a 3x3 kernel at
  // (1,1) must be the image itself.
  Tensor x = Tensor::from_vector(Shape{1, 1, 3, 3}, {1, 2, 3, 4, 5, 6, 7, 8, 9});
  Conv2dGeometry g{.in_channels = 1, .in_h = 3, .in_w = 3};
  const Tensor cols = im2col(x, g);
  EXPECT_EQ(cols.shape(), Shape({9, 9}));
  // Row for output position (1,1): full 3x3 neighbourhood.
  for (int k = 0; k < 9; ++k) {
    EXPECT_FLOAT_EQ(cols.at(4, k), static_cast<float>(k + 1));
  }
  // Row for output position (0,0): top-left corner padded with zeros.
  EXPECT_FLOAT_EQ(cols.at(0, 0), 0.0f);  // (-1,-1) out of bounds
  EXPECT_FLOAT_EQ(cols.at(0, 4), 1.0f);  // centre hits pixel (0,0)
}

TEST(Im2col, Col2imIsAdjointOfIm2col) {
  // <im2col(x), y> == <x, col2im(y)> for random x, y — the defining property
  // of the transpose, which is exactly what conv backward relies on.
  Rng rng(9);
  Conv2dGeometry g{.in_channels = 2, .in_h = 6, .in_w = 5,
                   .kernel_h = 3, .kernel_w = 3, .stride = 2, .pad = 1};
  const Tensor x = Tensor::randn(Shape{2, 2, 6, 5}, rng);
  const Tensor cols = im2col(x, g);
  const Tensor y = Tensor::randn(cols.shape(), rng);
  const Tensor back = col2im(y, g, 2);

  double lhs = 0, rhs = 0;
  for (std::int64_t i = 0; i < cols.numel(); ++i) lhs += cols[i] * y[i];
  for (std::int64_t i = 0; i < x.numel(); ++i) rhs += x[i] * back[i];
  EXPECT_NEAR(lhs, rhs, 1e-3);
}

TEST(Im2col, RejectsMismatchedGeometry) {
  Conv2dGeometry g{.in_channels = 3, .in_h = 8, .in_w = 8};
  EXPECT_THROW(im2col(Tensor(Shape{1, 2, 8, 8}), g), Error);
  EXPECT_THROW(im2col(Tensor(Shape{3, 8, 8}), g), Error);
}

// ---------------------------------------------------------------- bitpack

TEST(Bitpack, PackedSize) {
  EXPECT_EQ(packed_size_bytes(0), 0);
  EXPECT_EQ(packed_size_bytes(1), 1);
  EXPECT_EQ(packed_size_bytes(8), 1);
  EXPECT_EQ(packed_size_bytes(9), 2);
  EXPECT_EQ(packed_size_bytes(1024), 128);  // f=4 * 16x16 = Eq.1's 128 B
}

TEST(Bitpack, RoundTripIsExact) {
  Rng rng(21);
  for (const auto n : {1, 7, 8, 9, 64, 100, 1024}) {
    Tensor t = ops::sign(Tensor::randn(Shape{n}, rng));
    const auto bytes = pack_signs(t);
    EXPECT_EQ(static_cast<std::int64_t>(bytes.size()), packed_size_bytes(n));
    const Tensor back = unpack_signs(bytes, Shape{n});
    EXPECT_TRUE(back.allclose(t, 0.0f)) << "n=" << n;
  }
}

TEST(Bitpack, UnpackValidatesSize) {
  std::vector<std::uint8_t> bytes(2, 0);
  EXPECT_THROW(unpack_signs(bytes, Shape{17}), Error);
  EXPECT_NO_THROW(unpack_signs(bytes, Shape{16}));
}

TEST(Bitpack, WordPackingMatchesPerBitReference) {
  // Word-at-a-time packing must produce exactly the per-bit layout (bit i
  // in byte i / 8, position i % 8, set for x >= 0) at sizes around the
  // 64-value word, for -0.0 (set), NaN (clear) and infinities too.
  const float specials[] = {-0.0f, 0.0f,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity()};
  Rng rng(22);
  for (const auto n : {1, 63, 64, 65, 130, 1024}) {
    Tensor t = Tensor::randn(Shape{n}, rng);
    for (std::int64_t i = 0; i < n; i += 7) t[i] = specials[(i / 7) % 5];
    std::vector<std::uint8_t> want(
        static_cast<std::size_t>(packed_size_bytes(n)));
    for (std::int64_t i = 0; i < n; ++i) {
      if (t[i] >= 0.0f) want[static_cast<std::size_t>(i / 8)] |= 1u << (i % 8);
    }
    EXPECT_EQ(pack_signs(t), want) << "n=" << n;
    const Tensor back = unpack_signs(want, Shape{n});
    for (std::int64_t i = 0; i < n; ++i) {
      ASSERT_EQ(back[i], t[i] >= 0.0f ? 1.0f : -1.0f)
          << "n=" << n << " i=" << i;
    }
  }
}

TEST(Bitpack, TrailingBitsAreZero) {
  const Tensor t = Tensor::ones(Shape{3});
  const auto bytes = pack_signs(t);
  ASSERT_EQ(bytes.size(), 1u);
  EXPECT_EQ(bytes[0], 0b00000111);
}

}  // namespace
}  // namespace ddnn
