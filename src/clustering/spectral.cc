#include "clustering/spectral.h"

#include <algorithm>
#include <cmath>
#include <utility>
#include <vector>

#include "clustering/kmeans.h"
#include "linalg/eigen.h"
#include "linalg/ops.h"
#include "linalg/stats.h"
#include "parallel/thread_pool.h"
#include "util/check.h"

namespace mcirbm::clustering {
namespace {

// Fixed shard width for the per-row sweeps (affinity, kNN, Laplacian);
// boundaries depend only on n, so results are thread-count independent.
constexpr std::size_t kRowGrain = 32;

// Median pairwise (non-self) distance, the standard RBF width heuristic.
// Each row's strictly-upper-triangle distances land at a precomputed
// offset, so the fill parallelizes with disjoint writes.
double MedianPairwiseDistance(const linalg::Matrix& d2) {
  const std::size_t n = d2.rows();
  if (n < 2) return 1.0;
  std::vector<double> dists(n * (n - 1) / 2);
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          // Rows above i contribute Σ_{r<i} (n-1-r) elements.
          const std::size_t offset = i * (n - 1) - i * (i - 1) / 2;
          for (std::size_t j = i + 1; j < n; ++j) {
            dists[offset + j - i - 1] =
                std::sqrt(std::max(d2(i, j), 0.0));
          }
        }
      });
  const double median = linalg::Percentile(std::move(dists), 50.0);
  return median > 0 ? median : 1.0;
}

// Keeps w(i,j) only when j is among i's k nearest or i among j's
// (symmetric kNN graph); diagonal is zeroed either way.
void SparsifyToKnn(linalg::Matrix* w, const linalg::Matrix& d2, int knn) {
  const std::size_t n = w->rows();
  const std::size_t k = std::min<std::size_t>(knn, n - 1);
  std::vector<std::vector<bool>> keep(n, std::vector<bool>(n, false));
  // Phase 1: each row ranks its own neighbors (disjoint keep[i] writes).
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        std::vector<std::size_t> order(n);
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < n; ++j) order[j] = j;
          std::partial_sort(order.begin(), order.begin() + k + 1,
                            order.end(),
                            [&](std::size_t a, std::size_t b) {
                              return d2(i, a) < d2(i, b);
                            });
          std::size_t kept = 0;
          for (std::size_t idx = 0; idx < n && kept < k; ++idx) {
            const std::size_t j = order[idx];
            if (j == i) continue;
            keep[i][j] = true;
            ++kept;
          }
        }
      });
  // Phase 2: symmetric prune; keep[] is now read-only.
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (i == j || (!keep[i][j] && !keep[j][i])) (*w)(i, j) = 0.0;
          }
        }
      });
}

// RBF affinity with zero diagonal, optionally sparsified to the
// symmetric kNN graph. The n×n squared distances are freed on return,
// before the caller's eigensolve allocates.
linalg::Matrix Affinity(const linalg::Matrix& x,
                        const Spectral::Options& options) {
  const std::size_t n = x.rows();
  const linalg::Matrix d2 = linalg::PairwiseSquaredDistances(x);
  const double sigma =
      options.sigma > 0 ? options.sigma : MedianPairwiseDistance(d2);
  const double inv = 1.0 / (2 * sigma * sigma);

  linalg::Matrix w(n, n);
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            w(i, j) = i == j ? 0.0 : std::exp(-d2(i, j) * inv);
          }
        }
      });
  if (options.knn > 0) SparsifyToKnn(&w, d2, options.knn);
  return w;
}

}  // namespace

linalg::Matrix Spectral::Embed(const linalg::Matrix& x) const {
  const std::size_t n = x.rows();
  MCIRBM_CHECK_GT(n, 0u) << "empty input";
  const std::size_t k =
      std::min(static_cast<std::size_t>(options_.num_clusters), n);

  linalg::Matrix w = Affinity(x, options_);

  // Symmetric normalized Laplacian L = I − D^{-1/2} W D^{-1/2}, written
  // over W (each entry is read once, then replaced).
  std::vector<double> inv_sqrt_degree(n);
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          double deg = 0;
          for (std::size_t j = 0; j < n; ++j) deg += w(i, j);
          inv_sqrt_degree[i] = deg > 0 ? 1.0 / std::sqrt(deg) : 0.0;
        }
      });
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            const double norm =
                inv_sqrt_degree[i] * w(i, j) * inv_sqrt_degree[j];
            w(i, j) = (i == j ? 1.0 : 0.0) - norm;
          }
        }
      });

  const linalg::EigenDecomposition eig =
      linalg::SymmetricEigen(std::move(w));
  MCIRBM_CHECK(eig.converged) << "Laplacian eigendecomposition diverged";
  linalg::Matrix embedding = linalg::BottomEigenvectors(eig, k);

  // Row-normalize (Ng-Jordan-Weiss step); zero rows stay zero.
  parallel::ParallelFor(
      n, kRowGrain, [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
          auto row = embedding.Row(i);
          double norm = 0;
          for (double v : row) norm += v * v;
          norm = std::sqrt(norm);
          if (norm > 0) {
            for (double& v : row) v /= norm;
          }
        }
      });
  return embedding;
}

ClusteringResult Spectral::Cluster(const linalg::Matrix& x,
                                   std::uint64_t seed) const {
  const linalg::Matrix embedding = Embed(x);
  KMeansConfig config;
  config.k = std::min<int>(options_.num_clusters,
                           static_cast<int>(x.rows()));
  config.restarts = options_.kmeans_restarts;
  const KMeans kmeans(config);
  ClusteringResult result = kmeans.Cluster(embedding, seed);
  return result;
}

}  // namespace mcirbm::clustering
