#include "linalg/ops.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <string>
#include <tuple>
#include <vector>

#include "linalg/ops_internal.h"
#include "rng/rng.h"

namespace mcirbm::linalg {
namespace {

Matrix RandomMatrix(std::size_t r, std::size_t c, rng::Rng* rng) {
  Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng->Gaussian();
  return m;
}

// Reference O(mnk) GEMM with no blocking, used as ground truth. Each
// element sums its k products in ascending p into one accumulator — the
// per-element order every GEMM variant promises, so comparisons are exact.
Matrix NaiveGemm(const Matrix& a, const Matrix& b) {
  Matrix c(a.rows(), b.cols());
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) {
      double s = 0;
      for (std::size_t p = 0; p < a.cols(); ++p) s += a(i, p) * b(p, j);
      c(i, j) = s;
    }
  }
  return c;
}

// Byte equality, reporting the first differing element.
::testing::AssertionResult SameBits(const Matrix& got,
                                    const Matrix& want) {
  if (got.rows() != want.rows() || got.cols() != want.cols()) {
    return ::testing::AssertionFailure()
           << "shape " << got.rows() << "x" << got.cols() << " vs "
           << want.rows() << "x" << want.cols();
  }
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::memcmp(got.data() + i, want.data() + i, sizeof(double)) != 0) {
      return ::testing::AssertionFailure()
             << "element (" << i / got.cols() << "," << i % got.cols()
             << "): " << got.data()[i] << " vs " << want.data()[i];
    }
  }
  return ::testing::AssertionSuccess();
}

// Rows [begin, begin + count) of `m`.
Matrix RowRange(const Matrix& m, std::size_t begin, std::size_t count) {
  std::vector<std::size_t> rows(count);
  for (std::size_t r = 0; r < count; ++r) rows[r] = begin + r;
  return m.SelectRows(rows);
}

TEST(GemmTest, SmallKnownProduct) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{5, 6}, {7, 8}};
  Matrix c = Gemm(a, b);
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(GemmTest, IdentityIsNeutral) {
  rng::Rng rng(1);
  Matrix a = RandomMatrix(5, 5, &rng);
  Matrix id(5, 5);
  for (int i = 0; i < 5; ++i) id(i, i) = 1;
  EXPECT_TRUE(Gemm(a, id).AllClose(a, 1e-12));
  EXPECT_TRUE(Gemm(id, a).AllClose(a, 1e-12));
}

// Zero operands add ±0 to a sum that starts at +0, so an all-zero row
// yields +0 everywhere — never -0 — even against negative entries.
TEST(GemmTest, ZeroRowYieldsPositiveZero) {
  Matrix a{{0, 0, 0}, {0, -0.0, 0}};
  Matrix b{{-1, 2}, {-3, -4}, {5, -6}};
  for (const Matrix& c : {Gemm(a, b), GemmTransA(a.Transposed(), b),
                          GemmTransB(a, b.Transposed())}) {
    for (std::size_t i = 0; i < c.size(); ++i) {
      EXPECT_EQ(c.data()[i], 0.0);
      EXPECT_FALSE(std::signbit(c.data()[i])) << "element " << i;
    }
  }
}

using internal::GemmBuild;

// The public variants run the AVX2 copy of the kernel exactly when the CPU
// can run it.
TEST(GemmBuildTest, SelectsAvx2WhenTheCpuRunsIt) {
  EXPECT_TRUE(internal::GemmBuildRuns(GemmBuild::kBaseline));
  EXPECT_EQ(internal::SelectedGemmBuild(),
            internal::GemmBuildRuns(GemmBuild::kAvx2) ? GemmBuild::kAvx2
                                                      : GemmBuild::kBaseline);
}

// Property sweep: every GEMM variant, through every compiled copy of the
// kernel, is bit-identical to the naive reference across shapes that
// straddle the 2x8 register tile, the 32x32 shard block and the 256-deep
// k slice (thin, wide, and ragged edges).
class GemmShapeTest
    : public ::testing::TestWithParam<
          std::tuple<GemmBuild, std::tuple<int, int, int>>> {
 protected:
  void SetUp() override {
    if (!internal::GemmBuildRuns(build())) {
      GTEST_SKIP() << "no AVX2 copy of the kernel runs here (not x86-64, "
                      "or the CPU lacks AVX2)";
    }
  }
  GemmBuild build() const { return std::get<0>(GetParam()); }
  std::tuple<int, int, int> shape() const { return std::get<1>(GetParam()); }
};

TEST_P(GemmShapeTest, MatchesNaiveReference) {
  const auto [m, k, n] = shape();
  rng::Rng rng(1000 + m * 97 + k * 13 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_TRUE(SameBits(internal::Gemm(build(), a, b), NaiveGemm(a, b)));
}

TEST_P(GemmShapeTest, TransAMatchesExplicitTranspose) {
  const auto [m, k, n] = shape();
  rng::Rng rng(2000 + m * 97 + k * 13 + n);
  Matrix a = RandomMatrix(k, m, &rng);  // will be transposed
  Matrix b = RandomMatrix(k, n, &rng);
  EXPECT_TRUE(SameBits(internal::GemmTransA(build(), a, b),
                       NaiveGemm(a.Transposed(), b)));
}

TEST_P(GemmShapeTest, TransBMatchesExplicitTranspose) {
  const auto [m, k, n] = shape();
  rng::Rng rng(3000 + m * 97 + k * 13 + n);
  Matrix a = RandomMatrix(m, k, &rng);
  Matrix b = RandomMatrix(n, k, &rng);  // will be transposed
  EXPECT_TRUE(SameBits(internal::GemmTransB(build(), a, b),
                       NaiveGemm(a, b.Transposed())));
}

// The gradient form: out += alpha·Aᵀ·B with a non-zero `out`, a negative
// alpha and a 0/1 B (sampled hidden states). alpha scales A's entry before
// the product, and each element continues from its `out` value.
TEST_P(GemmShapeTest, AccumulateTransAMatchesReference) {
  const auto [m, k, n] = shape();
  rng::Rng rng(4000 + m * 97 + k * 13 + n);
  const double alpha = -0.37;
  Matrix a = RandomMatrix(k, m, &rng);
  Matrix b(k, n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b.data()[i] = rng.Uniform() < 0.5 ? 0.0 : 1.0;
  }
  Matrix out = RandomMatrix(m, n, &rng);
  Matrix expected = out;
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      double s = expected(i, j);
      for (int p = 0; p < k; ++p) s += (alpha * a(p, i)) * b(p, j);
      expected(i, j) = s;
    }
  }
  internal::AccumulateGemmTransA(build(), alpha, a, b, &out);
  EXPECT_TRUE(SameBits(out, expected));
}

// "Avx2_33x255x31": the kernel copy, then m x k x n.
std::string GemmShapeName(
    const ::testing::TestParamInfo<GemmShapeTest::ParamType>& info) {
  const auto [m, k, n] = std::get<1>(info.param);
  return std::string(std::get<0>(info.param) == GemmBuild::kAvx2
                         ? "Avx2"
                         : "Baseline") +
         "_" + std::to_string(m) + "x" + std::to_string(k) + "x" +
         std::to_string(n);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, GemmShapeTest,
    ::testing::Combine(
        ::testing::Values(GemmBuild::kBaseline, GemmBuild::kAvx2),
        ::testing::Values(std::make_tuple(1, 1, 1), std::make_tuple(3, 5, 2),
                          std::make_tuple(7, 64, 9),
                          std::make_tuple(65, 3, 64),
                          std::make_tuple(64, 64, 64),
                          std::make_tuple(100, 17, 65),
                          std::make_tuple(2, 129, 1),
                          std::make_tuple(2, 7, 8), std::make_tuple(1, 9, 7),
                          std::make_tuple(31, 33, 33),
                          std::make_tuple(33, 255, 31),
                          std::make_tuple(32, 256, 32),
                          std::make_tuple(34, 257, 40),
                          std::make_tuple(130, 97, 53),
                          std::make_tuple(9, 600, 17))),
    GemmShapeName);

TEST(AccumulateGemmTransATest, AddsScaledProduct) {
  rng::Rng rng(4);
  Matrix a = RandomMatrix(6, 3, &rng);
  Matrix b = RandomMatrix(6, 4, &rng);
  Matrix out(3, 4, 1.0);
  AccumulateGemmTransA(2.0, a, b, &out);
  Matrix expected = NaiveGemm(a.Transposed(), b) * 2.0;
  for (std::size_t i = 0; i < expected.size(); ++i) {
    expected.data()[i] += 1.0;
  }
  EXPECT_TRUE(out.AllClose(expected, 1e-9));
}

// Row independence: a row of A·B (and of A·Bᵀ) computed on a row subset of
// A is byte-equal to the same row of the full product, whatever the subset
// size or offset relative to the tile and shard grid. Serving a micro-batch
// equals a one-shot Transform because of this.
TEST(GemmRowIndependenceTest, RowSubsetsMatchFullProduct) {
  rng::Rng rng(8);
  const std::size_t m = 200, k = 300, n = 97;
  const Matrix a = RandomMatrix(m, k, &rng);
  const Matrix b = RandomMatrix(k, n, &rng);
  const Matrix bt = RandomMatrix(n, k, &rng);
  const Matrix full = Gemm(a, b);
  const Matrix full_t = GemmTransB(a, bt);
  for (std::size_t count : {1, 4, 63, 64, 65}) {
    for (std::size_t offset : {1, 33, 101}) {
      SCOPED_TRACE("rows " + std::to_string(count) + " at offset " +
                   std::to_string(offset));
      const Matrix sub = RowRange(a, offset, count);
      EXPECT_TRUE(SameBits(Gemm(sub, b), RowRange(full, offset, count)));
      EXPECT_TRUE(
          SameBits(GemmTransB(sub, bt), RowRange(full_t, offset, count)));
    }
  }
}

TEST(MatVecTest, MatchesGemm) {
  rng::Rng rng(5);
  Matrix a = RandomMatrix(4, 3, &rng);
  std::vector<double> x = {1, -2, 0.5};
  const auto y = MatVec(a, x);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(y[i], a(i, 0) - 2 * a(i, 1) + 0.5 * a(i, 2), 1e-12);
  }
}

TEST(MatTVecTest, MatchesTransposedMatVec) {
  rng::Rng rng(6);
  Matrix a = RandomMatrix(4, 3, &rng);
  std::vector<double> x = {1, 2, 3, 4};
  const auto y = MatTVec(a, x);
  const auto ref = MatVec(a.Transposed(), x);
  for (std::size_t j = 0; j < 3; ++j) EXPECT_NEAR(y[j], ref[j], 1e-12);
}

TEST(AddRowVectorTest, AddsToEveryRow) {
  Matrix m(2, 3, 1.0);
  AddRowVector(&m, {1, 2, 3});
  EXPECT_EQ(m(0, 0), 2);
  EXPECT_EQ(m(1, 2), 4);
}

TEST(ReductionTest, ColSumsMeansRowSums) {
  Matrix m{{1, 2}, {3, 4}, {5, 6}};
  const auto cs = ColSums(m);
  EXPECT_DOUBLE_EQ(cs[0], 9);
  EXPECT_DOUBLE_EQ(cs[1], 12);
  const auto cm = ColMeans(m);
  EXPECT_DOUBLE_EQ(cm[0], 3);
  const auto rs = RowSums(m);
  EXPECT_DOUBLE_EQ(rs[2], 11);
}

TEST(SigmoidTest, KnownValues) {
  EXPECT_DOUBLE_EQ(Sigmoid(0), 0.5);
  EXPECT_NEAR(Sigmoid(2), 1.0 / (1.0 + std::exp(-2)), 1e-15);
}

TEST(SigmoidTest, StableAtExtremes) {
  EXPECT_NEAR(Sigmoid(1000), 1.0, 1e-12);
  EXPECT_NEAR(Sigmoid(-1000), 0.0, 1e-12);
  EXPECT_FALSE(std::isnan(Sigmoid(-1e308)));
}

TEST(SigmoidTest, SymmetryProperty) {
  for (double x : {0.1, 0.7, 3.0, 17.0}) {
    EXPECT_NEAR(Sigmoid(x) + Sigmoid(-x), 1.0, 1e-12);
  }
}

TEST(SigmoidInPlaceTest, MapsWholeMatrix) {
  Matrix m{{0, 100}, {-100, 0}};
  SigmoidInPlace(&m);
  EXPECT_DOUBLE_EQ(m(0, 0), 0.5);
  EXPECT_NEAR(m(0, 1), 1.0, 1e-12);
  EXPECT_NEAR(m(1, 0), 0.0, 1e-12);
}

TEST(SigmoidDerivTest, MatchesFormula) {
  Matrix a{{0.2, 0.5, 0.9}};
  Matrix d = SigmoidDeriv(a);
  EXPECT_NEAR(d(0, 0), 0.16, 1e-12);
  EXPECT_NEAR(d(0, 1), 0.25, 1e-12);
  EXPECT_NEAR(d(0, 2), 0.09, 1e-12);
}

TEST(SquaredDistanceTest, BasicAndZero) {
  std::vector<double> a = {1, 2}, b = {4, 6};
  EXPECT_DOUBLE_EQ(SquaredDistance(a, b), 25);
  EXPECT_DOUBLE_EQ(SquaredDistance(a, a), 0);
}

TEST(PairwiseSquaredDistancesTest, MatchesDirectComputation) {
  rng::Rng rng(7);
  Matrix m = RandomMatrix(10, 5, &rng);
  Matrix d = PairwiseSquaredDistances(m);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(d(i, i), 0.0);
    for (std::size_t j = 0; j < 10; ++j) {
      EXPECT_NEAR(d(i, j), SquaredDistance(m.Row(i), m.Row(j)), 1e-8);
      EXPECT_DOUBLE_EQ(d(i, j), d(j, i));
    }
  }
}

TEST(PairwiseSquaredDistancesTest, NonNegativeUnderCancellation) {
  // Nearly identical rows exercise the numeric guard against negative
  // values from the |a|²+|b|²−2ab expansion.
  Matrix m(2, 3, 1e8);
  m(1, 2) += 1e-4;
  Matrix d = PairwiseSquaredDistances(m);
  EXPECT_GE(d(0, 1), 0.0);
}

TEST(DotTest, Basic) {
  std::vector<double> a = {1, 2, 3}, b = {4, 5, 6};
  EXPECT_DOUBLE_EQ(Dot(a, b), 32);
}

TEST(ApplyTest, ElementwiseMap) {
  Matrix m{{1, 4}, {9, 16}};
  Apply(&m, [](double v) { return std::sqrt(v); });
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

}  // namespace
}  // namespace mcirbm::linalg
