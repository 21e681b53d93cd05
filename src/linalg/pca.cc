#include "linalg/pca.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "linalg/eigen.h"
#include "linalg/ops.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace mcirbm::linalg {
namespace {

// Fixed shard width for the per-row sweeps (centering, whitening);
// boundaries depend only on the row count, so results are bit-identical
// at any thread count.
constexpr std::size_t kRowGrain = 128;

// Adds `shift[j] * sign` to every row of `m` in parallel.
void ShiftRows(Matrix* m, const std::vector<double>& shift, double sign) {
  parallel::ParallelFor(
      m->rows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          auto row = m->Row(i);
          for (std::size_t j = 0; j < row.size(); ++j) {
            row[j] += sign * shift[j];
          }
        }
      });
}

// Multiplies column j of `m` by scale[j] (or divides, with `invert`).
void ScaleColumns(Matrix* m, const std::vector<double>& scale, bool invert) {
  parallel::ParallelFor(
      m->rows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          auto row = m->Row(i);
          for (std::size_t j = 0; j < row.size(); ++j) {
            if (invert) {
              row[j] /= scale[j];
            } else {
              row[j] *= scale[j];
            }
          }
        }
      });
}

}  // namespace

Pca Pca::Fit(const Matrix& x, const Options& options) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  MCIRBM_CHECK_GE(n, 2u) << "PCA needs at least two instances";
  MCIRBM_CHECK_GE(d, 1u) << "PCA needs at least one feature";

  Pca pca;
  pca.mean_ = ColMeans(x);
  pca.whiten_ = options.whiten;

  // Centered copy, then covariance C = Xcᵀ·Xc / (n-1).
  Matrix centered = x;
  ShiftRows(&centered, pca.mean_, -1.0);
  Matrix cov = GemmTransA(centered, centered);
  cov *= 1.0 / static_cast<double>(n - 1);

  const EigenDecomposition eig = SymmetricEigen(std::move(cov));
  MCIRBM_CHECK(eig.converged) << "covariance eigendecomposition diverged";

  std::size_t k = options.num_components;
  const std::size_t max_k = std::min(n - 1, d);
  if (k == 0) k = max_k;
  MCIRBM_CHECK_LE(k, d) << "more components than features";

  pca.components_ = TopEigenvectors(eig, k);
  pca.explained_variance_.assign(eig.values.begin(), eig.values.begin() + k);
  // Numerical noise can push tiny eigenvalues below zero; clamp.
  for (double& v : pca.explained_variance_) v = std::max(v, 0.0);
  pca.total_variance_ = 0;
  for (double v : eig.values) pca.total_variance_ += std::max(v, 0.0);

  pca.scale_.assign(k, 1.0);
  if (options.whiten) {
    for (std::size_t j = 0; j < k; ++j) {
      pca.scale_[j] =
          1.0 / std::sqrt(pca.explained_variance_[j] + options.whiten_epsilon);
    }
  }
  return pca;
}

Matrix Pca::Transform(const Matrix& x) const {
  MCIRBM_CHECK_EQ(x.cols(), mean_.size()) << "feature-count mismatch";
  Matrix centered = x;
  ShiftRows(&centered, mean_, -1.0);
  Matrix projected = Gemm(centered, components_);
  if (whiten_) ScaleColumns(&projected, scale_, /*invert=*/false);
  return projected;
}

Matrix Pca::InverseTransform(const Matrix& projected) const {
  MCIRBM_CHECK_EQ(projected.cols(), components_.cols())
      << "component-count mismatch";
  Matrix unscaled = projected;
  if (whiten_) ScaleColumns(&unscaled, scale_, /*invert=*/true);
  Matrix restored = GemmTransB(unscaled, components_);
  ShiftRows(&restored, mean_, 1.0);
  return restored;
}

std::vector<double> Pca::ExplainedVarianceRatio() const {
  std::vector<double> ratio(explained_variance_.size(), 0.0);
  if (total_variance_ <= 0) return ratio;
  for (std::size_t j = 0; j < ratio.size(); ++j) {
    ratio[j] = explained_variance_[j] / total_variance_;
  }
  return ratio;
}

std::size_t Pca::ComponentsForVariance(double target) const {
  MCIRBM_CHECK_GE(target, 0.0);
  MCIRBM_CHECK_LE(target, 1.0);
  const std::vector<double> ratio = ExplainedVarianceRatio();
  double cumulative = 0;
  for (std::size_t j = 0; j < ratio.size(); ++j) {
    cumulative += ratio[j];
    if (cumulative >= target) return j + 1;
  }
  return std::max<std::size_t>(ratio.size(), 1);
}

}  // namespace mcirbm::linalg
