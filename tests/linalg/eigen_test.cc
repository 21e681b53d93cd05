#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "linalg/ops.h"
#include "rng/rng.h"

namespace mcirbm::linalg {
namespace {

Matrix RandomSymmetric(std::size_t n, rng::Rng* rng) {
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i; j < n; ++j) {
      const double v = rng->Gaussian();
      a(i, j) = v;
      a(j, i) = v;
    }
  }
  return a;
}

// Max |(VᵀV − I)(i,j)|, the loss of orthonormality.
double OrthonormalityDefect(const Matrix& v) {
  const Matrix gram = GemmTransA(v, v);
  double worst = 0;
  for (std::size_t i = 0; i < gram.rows(); ++i) {
    for (std::size_t j = 0; j < gram.cols(); ++j) {
      worst = std::max(worst, std::abs(gram(i, j) - (i == j ? 1.0 : 0.0)));
    }
  }
  return worst;
}

// The orthogonal projector B·Bᵀ onto the span of B's orthonormal columns.
Matrix Projector(const Matrix& b) { return GemmTransB(b, b); }

// || A·V − V·diag(λ) ||_F, the defect of the decomposition.
double ResidualNorm(const Matrix& a, const EigenDecomposition& eig) {
  Matrix av = Gemm(a, eig.vectors);
  Matrix vl = eig.vectors;
  for (std::size_t i = 0; i < vl.rows(); ++i) {
    for (std::size_t j = 0; j < vl.cols(); ++j) vl(i, j) *= eig.values[j];
  }
  return (av - vl).FrobeniusNorm();
}

TEST(SymmetricEigenTest, DiagonalMatrixIsItsOwnDecomposition) {
  Matrix a{{3, 0, 0}, {0, -1, 0}, {0, 0, 7}};
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  ASSERT_EQ(eig.values.size(), 3u);
  EXPECT_NEAR(eig.values[0], 7, 1e-12);
  EXPECT_NEAR(eig.values[1], 3, 1e-12);
  EXPECT_NEAR(eig.values[2], -1, 1e-12);
}

TEST(SymmetricEigenTest, KnownTwoByTwo) {
  // Eigenvalues of [[2,1],[1,2]] are 3 and 1.
  Matrix a{{2, 1}, {1, 2}};
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], 3, 1e-12);
  EXPECT_NEAR(eig.values[1], 1, 1e-12);
  // Leading eigenvector is (1,1)/sqrt(2) up to sign.
  const double inv_sqrt2 = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), inv_sqrt2, 1e-12);
  EXPECT_NEAR(std::abs(eig.vectors(1, 0)), inv_sqrt2, 1e-12);
}

TEST(SymmetricEigenTest, EmptyMatrix) {
  const EigenDecomposition eig = SymmetricEigen(Matrix());
  EXPECT_TRUE(eig.converged);
  EXPECT_TRUE(eig.values.empty());
}

TEST(SymmetricEigenTest, OneByOne) {
  Matrix a{{-4.5}};
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_NEAR(eig.values[0], -4.5, 1e-15);
  EXPECT_NEAR(std::abs(eig.vectors(0, 0)), 1.0, 1e-15);
}

TEST(SymmetricEigenTest, ValuesSortedDescending) {
  rng::Rng rng(11);
  const Matrix a = RandomSymmetric(12, &rng);
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_TRUE(std::is_sorted(eig.values.rbegin(), eig.values.rend()));
}

TEST(SymmetricEigenTest, TraceEqualsEigenvalueSum) {
  rng::Rng rng(5);
  const Matrix a = RandomSymmetric(9, &rng);
  const EigenDecomposition eig = SymmetricEigen(a);
  double trace = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) trace += a(i, i);
  double sum = 0;
  for (double v : eig.values) sum += v;
  EXPECT_NEAR(trace, sum, 1e-9);
}

class SymmetricEigenPropertyTest : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricEigenPropertyTest, ReconstructsInput) {
  rng::Rng rng(100 + GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 17;
  const Matrix a = RandomSymmetric(n, &rng);
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  EXPECT_LE(ResidualNorm(a, eig), 1e-9 * std::max(1.0, a.FrobeniusNorm()));
}

TEST_P(SymmetricEigenPropertyTest, EigenvectorsAreOrthonormal) {
  rng::Rng rng(200 + GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 17;
  const Matrix a = RandomSymmetric(n, &rng);
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  const Matrix gram = GemmTransA(eig.vectors, eig.vectors);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      EXPECT_NEAR(gram(i, j), i == j ? 1.0 : 0.0, 1e-10)
          << "gram(" << i << "," << j << ")";
    }
  }
}

TEST_P(SymmetricEigenPropertyTest, PsdMatrixHasNonNegativeEigenvalues) {
  rng::Rng rng(300 + GetParam());
  const std::size_t n = 2 + static_cast<std::size_t>(GetParam()) % 11;
  // B·Bᵀ is PSD by construction.
  Matrix b(n, n + 2);
  for (std::size_t i = 0; i < b.rows(); ++i) {
    for (std::size_t j = 0; j < b.cols(); ++j) b(i, j) = rng.Gaussian();
  }
  const Matrix a = GemmTransB(b, b);
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  for (double v : eig.values) EXPECT_GE(v, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenPropertyTest,
                         ::testing::Range(0, 10));

// Past the sizes the property tests cover, up to the UCI spectral voter's
// n = 569.
class SymmetricEigenLargeTest : public ::testing::TestWithParam<int> {};

TEST_P(SymmetricEigenLargeTest, ResidualAndOrthonormality) {
  const std::size_t n = static_cast<std::size_t>(GetParam());
  rng::Rng rng(400 + n);
  const Matrix a = RandomSymmetric(n, &rng);
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  ASSERT_EQ(eig.values.size(), n);
  EXPECT_TRUE(std::is_sorted(eig.values.rbegin(), eig.values.rend()));
  EXPECT_LE(ResidualNorm(a, eig), 1e-10 * a.FrobeniusNorm());
  EXPECT_LE(OrthonormalityDefect(eig.vectors), 1e-12);
}

INSTANTIATE_TEST_SUITE_P(Sizes, SymmetricEigenLargeTest,
                         ::testing::Values(257, 569));

TEST(SymmetricEigenTest, IdentityGivesTheStandardBasis) {
  const std::size_t n = 7;
  Matrix a(n, n);
  for (std::size_t i = 0; i < n; ++i) a(i, i) = 1.0;
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  for (double v : eig.values) EXPECT_EQ(v, 1.0);
  // Nothing to rotate, ties keep their order, signs are already positive.
  EXPECT_TRUE(eig.vectors.AllClose(a, 0.0));
}

TEST(SymmetricEigenTest, RepeatedEigenvaluesSpanTheirEigenspaces) {
  // A = H·diag(λ)·H with H = I − 2·v·vᵀ/(vᵀv) a dense orthogonal
  // reflector, so A's eigenspaces are spanned by columns of H.
  const std::vector<double> lambda = {3, 3, 3, 1, 1, -2};
  const std::size_t n = lambda.size();
  rng::Rng rng(17);
  std::vector<double> v(n);
  double vv = 0;
  for (double& x : v) {
    x = rng.Gaussian();
    vv += x * x;
  }
  Matrix h(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      h(i, j) = (i == j ? 1.0 : 0.0) - 2 * v[i] * v[j] / vv;
    }
  }
  Matrix hl = h;
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) hl(i, j) *= lambda[j];
  }
  Matrix a = GemmTransB(hl, h);
  for (std::size_t i = 0; i < n; ++i) {  // exact symmetry
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j);
  }

  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  for (std::size_t j = 0; j < n; ++j) {
    EXPECT_NEAR(eig.values[j], lambda[j], 1e-12) << "eigenvalue " << j;
  }
  EXPECT_LE(ResidualNorm(a, eig), 1e-12);
  EXPECT_LE(OrthonormalityDefect(eig.vectors), 1e-13);
  // The eigenvalue-3 and eigenvalue-1 eigenspaces, compared as
  // projectors (any orthonormal basis of a repeated eigenspace is valid).
  const auto columns = [](const Matrix& m, std::size_t from, std::size_t to) {
    Matrix out(m.rows(), to - from);
    for (std::size_t i = 0; i < m.rows(); ++i) {
      for (std::size_t j = from; j < to; ++j) out(i, j - from) = m(i, j);
    }
    return out;
  };
  EXPECT_TRUE(Projector(columns(eig.vectors, 0, 3))
                  .AllClose(Projector(columns(h, 0, 3)), 1e-12));
  EXPECT_TRUE(Projector(columns(eig.vectors, 3, 5))
                  .AllClose(Projector(columns(h, 3, 5)), 1e-12));
}

TEST(SymmetricEigenTest, DisconnectedGraphLaplacianHasComponentNullspace) {
  // Unnormalized Laplacian L = D − W of three complete components of
  // sizes 4, 5 and 6 with nodes interleaved, so no component is a
  // contiguous block. The eigenvalue 0 has multiplicity 3 and its
  // eigenspace is spanned by the component indicator vectors.
  const std::size_t n = 15;
  std::vector<int> component(n);
  const std::vector<int> sizes = {4, 5, 6};
  std::vector<int> remaining = sizes;
  for (std::size_t i = 0, c = 0; i < n; c = (c + 1) % 3) {
    if (remaining[c] == 0) continue;
    --remaining[c];
    component[i++] = static_cast<int>(c);
  }
  Matrix l(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i != j && component[i] == component[j]) {
        l(i, j) = -1.0;
        l(i, i) += 1.0;
      }
    }
  }

  const EigenDecomposition eig = SymmetricEigen(l);
  ASSERT_TRUE(eig.converged);
  // Spectrum: 0 (×3), then each K_m contributes m (×(m−1)).
  for (std::size_t j = n - 3; j < n; ++j) {
    EXPECT_NEAR(eig.values[j], 0.0, 1e-12);
  }
  EXPECT_NEAR(eig.values[n - 4], 4.0, 1e-12);
  EXPECT_NEAR(eig.values[0], 6.0, 1e-12);

  Matrix indicators(n, 3);
  for (std::size_t i = 0; i < n; ++i) {
    indicators(i, component[i]) =
        1.0 / std::sqrt(static_cast<double>(sizes[component[i]]));
  }
  EXPECT_TRUE(Projector(BottomEigenvectors(eig, 3))
                  .AllClose(Projector(indicators), 1e-12));
}

TEST(SymmetricEigenTest, LargestEntryOfEachEigenvectorIsPositive) {
  rng::Rng rng(23);
  const Matrix a = RandomSymmetric(40, &rng);
  const EigenDecomposition eig = SymmetricEigen(a);
  ASSERT_TRUE(eig.converged);
  for (std::size_t j = 0; j < a.rows(); ++j) {
    std::size_t arg = 0;
    for (std::size_t i = 1; i < a.rows(); ++i) {
      if (std::abs(eig.vectors(i, j)) > std::abs(eig.vectors(arg, j))) {
        arg = i;
      }
    }
    EXPECT_GT(eig.vectors(arg, j), 0.0) << "eigenvector " << j;
  }
  // The signs do not depend on the input's sign.
  const EigenDecomposition negated = SymmetricEigen(a * -1.0);
  for (std::size_t j = 0; j < a.rows(); ++j) {
    for (std::size_t i = 0; i < a.rows(); ++i) {
      EXPECT_NEAR(negated.vectors(i, a.rows() - 1 - j), eig.vectors(i, j),
                  1e-10);
    }
  }
}

TEST(SymmetricEigenTest, SignTiesGoToTheLowestIndex) {
  // Both eigenvectors of [[2,1],[1,2]] have equal-magnitude entries; the
  // first entry is the one made positive.
  const EigenDecomposition eig = SymmetricEigen(Matrix{{2, 1}, {1, 2}});
  ASSERT_TRUE(eig.converged);
  const double r = 1.0 / std::sqrt(2.0);
  EXPECT_NEAR(eig.vectors(0, 0), r, 1e-12);
  EXPECT_NEAR(eig.vectors(1, 0), r, 1e-12);
  EXPECT_NEAR(eig.vectors(0, 1), r, 1e-12);
  EXPECT_NEAR(eig.vectors(1, 1), -r, 1e-12);
}

TEST(SymmetricEigenDeathTest, RejectsNonFiniteInput) {
  Matrix a{{1, 0}, {0, 1}};
  a(1, 1) = std::nan("");
  EXPECT_DEATH(SymmetricEigen(a), "non-finite");
  a(1, 1) = std::numeric_limits<double>::infinity();
  EXPECT_DEATH(SymmetricEigen(a), "non-finite");
}

TEST(SymmetricEigenDeathTest, RejectsAsymmetricInput) {
  EXPECT_DEATH(SymmetricEigen(Matrix{{1, 2}, {0, 1}}), "not symmetric");
}

TEST(TopEigenvectorsTest, SelectsLeadingColumns) {
  Matrix a{{5, 0, 0}, {0, 2, 0}, {0, 0, 1}};
  const EigenDecomposition eig = SymmetricEigen(a);
  const Matrix top = TopEigenvectors(eig, 2);
  EXPECT_EQ(top.rows(), 3u);
  EXPECT_EQ(top.cols(), 2u);
  // Leading direction corresponds to eigenvalue 5 -> e1.
  EXPECT_NEAR(std::abs(top(0, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(top(1, 1)), 1.0, 1e-12);
}

TEST(BottomEigenvectorsTest, AscendingOrder) {
  Matrix a{{5, 0, 0}, {0, 2, 0}, {0, 0, 1}};
  const EigenDecomposition eig = SymmetricEigen(a);
  const Matrix bottom = BottomEigenvectors(eig, 2);
  // First column must be the eigenvalue-1 direction (e3), second the
  // eigenvalue-2 direction (e2).
  EXPECT_NEAR(std::abs(bottom(2, 0)), 1.0, 1e-12);
  EXPECT_NEAR(std::abs(bottom(1, 1)), 1.0, 1e-12);
}

}  // namespace
}  // namespace mcirbm::linalg
