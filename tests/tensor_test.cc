#include "tensor/tensor.h"

#include <cmath>
#include <cstring>
#include <limits>

#include <gtest/gtest.h>

namespace bootleg::tensor {
namespace {

TEST(TensorTest, ZeroInitialized) {
  Tensor t({2, 3});
  EXPECT_EQ(t.numel(), 6);
  for (int64_t i = 0; i < t.numel(); ++i) EXPECT_EQ(t.at(i), 0.0f);
}

TEST(TensorTest, ShapeAccessors) {
  Tensor t({4, 5});
  EXPECT_EQ(t.dim(), 2);
  EXPECT_EQ(t.size(0), 4);
  EXPECT_EQ(t.size(1), 5);
  EXPECT_FALSE(t.empty());
  EXPECT_TRUE(Tensor().empty());
}

TEST(TensorTest, TwoDimensionalIndexingIsRowMajor) {
  Tensor t({2, 3});
  t.at(1, 2) = 7.0f;
  EXPECT_EQ(t.at(5), 7.0f);
}

TEST(TensorTest, FullAndOnes) {
  Tensor t = Tensor::Full({3}, 2.5f);
  EXPECT_EQ(t.at(2), 2.5f);
  EXPECT_EQ(Tensor::Ones({2}).Sum(), 2.0f);
}

TEST(TensorTest, EyeIsIdentity) {
  Tensor eye = Tensor::Eye(3);
  for (int64_t i = 0; i < 3; ++i) {
    for (int64_t j = 0; j < 3; ++j) {
      EXPECT_EQ(eye.at(i, j), i == j ? 1.0f : 0.0f);
    }
  }
}

TEST(TensorTest, FromVector) {
  Tensor t = Tensor::FromVector({1.0f, 2.0f, 3.0f});
  EXPECT_EQ(t.dim(), 1);
  EXPECT_EQ(t.at(1), 2.0f);
}

TEST(TensorTest, RandnIsDeterministicGivenSeed) {
  util::Rng a(5), b(5);
  Tensor ta = Tensor::Randn({8}, &a);
  Tensor tb = Tensor::Randn({8}, &b);
  for (int64_t i = 0; i < 8; ++i) EXPECT_EQ(ta.at(i), tb.at(i));
}

TEST(TensorTest, ReshapePreservesData) {
  Tensor t = Tensor::FromVector({1, 2, 3, 4, 5, 6});
  Tensor r = t.Reshape({2, 3});
  EXPECT_EQ(r.at(1, 0), 4.0f);
}

TEST(TensorTest, AddAxpyScale) {
  Tensor a = Tensor::FromVector({1, 2});
  Tensor b = Tensor::FromVector({3, 4});
  a.Add(b);
  EXPECT_EQ(a.at(0), 4.0f);
  a.Axpy(2.0f, b);
  EXPECT_EQ(a.at(1), 14.0f);
  a.Scale(0.5f);
  EXPECT_EQ(a.at(0), 5.0f);
}

TEST(TensorTest, MatMulKnownValues) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor b({2, 2}, {5, 6, 7, 8});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.at(0, 0), 19.0f);
  EXPECT_EQ(c.at(0, 1), 22.0f);
  EXPECT_EQ(c.at(1, 0), 43.0f);
  EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(TensorTest, MatMulRectangular) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({3, 2}, {1, 0, 0, 1, 1, 1});
  Tensor c = MatMul(a, b);
  EXPECT_EQ(c.size(0), 1);
  EXPECT_EQ(c.size(1), 2);
  EXPECT_EQ(c.at(0, 0), 4.0f);
  EXPECT_EQ(c.at(0, 1), 5.0f);
}

TEST(TensorTest, FusedTransposedMatMulsAgreeWithExplicit) {
  util::Rng rng(3);
  Tensor a = Tensor::Randn({4, 6}, &rng);
  Tensor b = Tensor::Randn({5, 6}, &rng);
  Tensor via_fused = MatMulTransposedB(a, b);
  Tensor via_explicit = MatMul(a, Transpose(b));
  ASSERT_TRUE(via_fused.SameShape(via_explicit));
  for (int64_t i = 0; i < via_fused.numel(); ++i) {
    EXPECT_NEAR(via_fused.at(i), via_explicit.at(i), 1e-5f);
  }
  Tensor c = Tensor::Randn({6, 3}, &rng);
  Tensor ta_fused = MatMulTransposedA(a, MatMul(a, c));
  Tensor ta_explicit = MatMul(Transpose(a), MatMul(a, c));
  for (int64_t i = 0; i < ta_fused.numel(); ++i) {
    EXPECT_NEAR(ta_fused.at(i), ta_explicit.at(i), 1e-4f);
  }
}

TEST(TensorTest, TransposeRoundTrip) {
  util::Rng rng(4);
  Tensor a = Tensor::Randn({3, 5}, &rng);
  Tensor tt = Transpose(Transpose(a));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), tt.at(i));
}

TEST(TensorTest, SoftmaxRowsSumToOne) {
  util::Rng rng(5);
  Tensor a = Tensor::Randn({4, 7}, &rng, 3.0f);
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < 4; ++i) {
    float total = 0.0f;
    for (int64_t j = 0; j < 7; ++j) {
      EXPECT_GT(s.at(i, j), 0.0f);
      total += s.at(i, j);
    }
    EXPECT_NEAR(total, 1.0f, 1e-5f);
  }
}

TEST(TensorTest, SoftmaxIsShiftInvariant) {
  Tensor a({1, 3}, {1, 2, 3});
  Tensor b({1, 3}, {101, 102, 103});
  Tensor sa = SoftmaxRows(a), sb = SoftmaxRows(b);
  for (int64_t j = 0; j < 3; ++j) EXPECT_NEAR(sa.at(0, j), sb.at(0, j), 1e-6f);
}

TEST(TensorTest, LogSoftmaxMatchesLogOfSoftmax) {
  util::Rng rng(6);
  Tensor a = Tensor::Randn({3, 5}, &rng, 2.0f);
  Tensor ls = LogSoftmaxRows(a);
  Tensor s = SoftmaxRows(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    EXPECT_NEAR(ls.at(i), std::log(s.at(i)), 1e-5f);
  }
}

TEST(TensorTest, SoftmaxHandlesLargeValues) {
  Tensor a({1, 2}, {1000.0f, 1001.0f});
  Tensor s = SoftmaxRows(a);
  EXPECT_TRUE(AllFinite(s));
  EXPECT_GT(s.at(0, 1), s.at(0, 0));
}

TEST(TensorTest, ReluTanhGelu) {
  Tensor a = Tensor::FromVector({-1.0f, 0.0f, 2.0f});
  Tensor r = Relu(a);
  EXPECT_EQ(r.at(0), 0.0f);
  EXPECT_EQ(r.at(2), 2.0f);
  Tensor t = TanhT(a);
  EXPECT_NEAR(t.at(0), std::tanh(-1.0f), 1e-6f);
  Tensor g = Gelu(a);
  EXPECT_NEAR(g.at(1), 0.0f, 1e-6f);
  EXPECT_GT(g.at(2), 1.9f);  // GELU(2) ≈ 1.954
  EXPECT_LT(g.at(0), 0.0f);  // GELU(-1) ≈ -0.159
}

// The shared float tanh against libm, its only remaining caller.
TEST(TensorTest, TanhWithinStatedBoundOfLibm) {
  constexpr int kSteps = 2000000;
  double max_err = 0.0;
  for (int i = 0; i <= kSteps; ++i) {
    const float x = -10.0f + 20.0f * static_cast<float>(i) / kSteps;
    const double err = std::abs(double{Tanh(x)} - std::tanh(double{x}));
    max_err = std::max(max_err, err);
  }
  EXPECT_LE(max_err, 1e-6);
}

uint32_t Bits(float v) {
  uint32_t u;
  std::memcpy(&u, &v, sizeof(u));
  return u;
}

TEST(TensorTest, TanhIsOddSaturatesAndPropagatesNan) {
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(Tanh(inf), 1.0f);
  EXPECT_EQ(Tanh(-inf), -1.0f);
  EXPECT_EQ(Tanh(1e30f), 1.0f);
  EXPECT_TRUE(std::isnan(Tanh(std::numeric_limits<float>::quiet_NaN())));
  EXPECT_EQ(Bits(Tanh(0.0f)), Bits(0.0f));
  EXPECT_EQ(Bits(Tanh(-0.0f)), Bits(-0.0f));
  for (int i = 0; i <= 100000; ++i) {
    const float x = 12.0f * static_cast<float>(i) / 100000.0f;
    ASSERT_EQ(Bits(Tanh(-x)), Bits(-Tanh(x))) << "x = " << x;
    ASSERT_LE(std::abs(Tanh(x)), 1.0f) << "x = " << x;
  }
}

TEST(TensorTest, TanhTAndGeluTensorsApplyTheScalarForms) {
  util::Rng rng(16);
  const Tensor a = Tensor::Randn({37, 11}, &rng, 4.0f);
  const Tensor t = TanhT(a);
  const Tensor g = Gelu(a);
  for (int64_t i = 0; i < a.numel(); ++i) {
    const float v = a.at(i);
    ASSERT_EQ(Bits(t.at(i)), Bits(Tanh(v))) << "elem " << i;
    ASSERT_EQ(Bits(g.at(i)), Bits(0.5f * v * (1.0f + Tanh(GeluInner(v)))))
        << "elem " << i;
  }
}

TEST(TensorTest, MaxElementwise) {
  Tensor a = Tensor::FromVector({1, 5, 3});
  Tensor b = Tensor::FromVector({2, 4, 3});
  Tensor m = Max(a, b);
  EXPECT_EQ(m.at(0), 2.0f);
  EXPECT_EQ(m.at(1), 5.0f);
  EXPECT_EQ(m.at(2), 3.0f);
}

TEST(TensorTest, ConcatAndSliceColsRoundTrip) {
  util::Rng rng(7);
  Tensor a = Tensor::Randn({3, 2}, &rng);
  Tensor b = Tensor::Randn({3, 4}, &rng);
  Tensor c = ConcatCols({a, b});
  EXPECT_EQ(c.size(1), 6);
  Tensor a2 = SliceCols(c, 0, 2);
  Tensor b2 = SliceCols(c, 2, 4);
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_EQ(a.at(i), a2.at(i));
  for (int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(b.at(i), b2.at(i));
}

TEST(TensorTest, ConcatAndSliceRowsRoundTrip) {
  util::Rng rng(8);
  Tensor a = Tensor::Randn({2, 3}, &rng);
  Tensor b = Tensor::Randn({4, 3}, &rng);
  Tensor c = ConcatRows({a, b});
  EXPECT_EQ(c.size(0), 6);
  Tensor b2 = SliceRows(c, 2, 4);
  for (int64_t i = 0; i < b.numel(); ++i) EXPECT_EQ(b.at(i), b2.at(i));
}

TEST(TensorTest, SliceZeroLength) {
  Tensor a({3, 3});
  Tensor s = SliceRows(a, 1, 0);
  EXPECT_EQ(s.size(0), 0);
  EXPECT_EQ(s.numel(), 0);
}

TEST(TensorTest, GatherRows) {
  Tensor table({3, 2}, {1, 2, 3, 4, 5, 6});
  Tensor g = GatherRows(table, {2, 0, 2});
  EXPECT_EQ(g.size(0), 3);
  EXPECT_EQ(g.at(0, 0), 5.0f);
  EXPECT_EQ(g.at(1, 1), 2.0f);
  EXPECT_EQ(g.at(2, 1), 6.0f);
}

TEST(TensorTest, AddRowBroadcast) {
  Tensor a({2, 2}, {1, 2, 3, 4});
  Tensor bias = Tensor::FromVector({10, 20});
  Tensor c = AddRowBroadcast(a, bias);
  EXPECT_EQ(c.at(0, 0), 11.0f);
  EXPECT_EQ(c.at(1, 1), 24.0f);
}

TEST(TensorTest, ArgMaxAndNorm) {
  Tensor a = Tensor::FromVector({1, 9, 3});
  EXPECT_EQ(ArgMax(a), 1);
  Tensor b = Tensor::FromVector({3, 4});
  EXPECT_NEAR(Norm(b), 5.0f, 1e-6f);
}

TEST(TensorTest, AllFiniteDetectsNan) {
  Tensor a = Tensor::FromVector({1.0f, 2.0f});
  EXPECT_TRUE(AllFinite(a));
  a.at(0) = std::nanf("");
  EXPECT_FALSE(AllFinite(a));
}

/// Property sweep: matmul associativity-ish checks across shapes.
class MatMulShapeTest
    : public ::testing::TestWithParam<std::tuple<int64_t, int64_t, int64_t>> {};

TEST_P(MatMulShapeTest, DistributesOverAddition) {
  auto [m, k, n] = GetParam();
  util::Rng rng(11);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor b1 = Tensor::Randn({k, n}, &rng);
  Tensor b2 = Tensor::Randn({k, n}, &rng);
  Tensor lhs = MatMul(a, Add(b1, b2));
  Tensor rhs = Add(MatMul(a, b1), MatMul(a, b2));
  ASSERT_TRUE(lhs.SameShape(rhs));
  for (int64_t i = 0; i < lhs.numel(); ++i) {
    EXPECT_NEAR(lhs.at(i), rhs.at(i), 1e-4f);
  }
}

TEST_P(MatMulShapeTest, IdentityIsNeutral) {
  auto [m, k, n] = GetParam();
  (void)n;
  util::Rng rng(12);
  Tensor a = Tensor::Randn({m, k}, &rng);
  Tensor c = MatMul(a, Tensor::Eye(k));
  for (int64_t i = 0; i < a.numel(); ++i) EXPECT_NEAR(a.at(i), c.at(i), 1e-6f);
}

INSTANTIATE_TEST_SUITE_P(Shapes, MatMulShapeTest,
                         ::testing::Values(std::make_tuple(1, 1, 1),
                                           std::make_tuple(2, 3, 4),
                                           std::make_tuple(5, 1, 7),
                                           std::make_tuple(8, 8, 8),
                                           std::make_tuple(1, 16, 2)));

}  // namespace
}  // namespace bootleg::tensor
