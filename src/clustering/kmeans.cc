#include "clustering/kmeans.h"

#include <cmath>
#include <limits>

#include "linalg/ops.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "util/check.h"

namespace mcirbm::clustering {
namespace {

// Fixed shard width for the assignment-step SSE reduction: boundaries are
// independent of the thread count, so the reduction tree (and result) is
// identical serial vs parallel.
constexpr std::size_t kAssignGrain = 256;

// One full k-means run (k-means++ init + Lloyd) returning SSE.
ClusteringResult RunOnce(const linalg::Matrix& x, const KMeansConfig& cfg,
                         rng::Rng* rng) {
  const std::size_t n = x.rows();
  const std::size_t d = x.cols();
  const int k = cfg.k;

  // --- k-means++ seeding ---
  linalg::Matrix centroids(k, d);
  std::vector<double> min_dist(n, std::numeric_limits<double>::max());
  const std::size_t first = rng->UniformIndex(n);
  std::copy_n(x.data() + first * d, d, centroids.data());
  for (int c = 1; c < k; ++c) {
    const auto prev = centroids.Row(c - 1);
    parallel::ParallelFor(
        n, kAssignGrain, [&](std::size_t begin, std::size_t end) {
          for (std::size_t i = begin; i < end; ++i) {
            const double dist = linalg::SquaredDistance(x.Row(i), prev);
            if (dist < min_dist[i]) min_dist[i] = dist;
          }
        });
    const std::size_t next = rng->Categorical(min_dist);
    std::copy_n(x.data() + next * d, d, centroids.data() + c * d);
  }

  ClusteringResult result;
  result.assignment.assign(n, 0);
  result.num_clusters = k;

  double prev_sse = std::numeric_limits<double>::max();
  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    // Assignment step: per-instance nearest centroid is an exact (and
    // hence order-independent) argmin; the SSE total is reduced over
    // fixed shards so it is thread-count independent.
    const double sse = parallel::ShardedSum(
        x.rows(), kAssignGrain, [&](std::size_t begin, std::size_t end) {
          double shard_sse = 0;
          for (std::size_t i = begin; i < end; ++i) {
            double best = std::numeric_limits<double>::max();
            int best_c = 0;
            for (int c = 0; c < k; ++c) {
              const double dist =
                  linalg::SquaredDistance(x.Row(i), centroids.Row(c));
              if (dist < best) {
                best = dist;
                best_c = c;
              }
            }
            result.assignment[i] = best_c;
            shard_sse += best;
          }
          return shard_sse;
        });
    result.objective = sse;
    result.iterations = iter + 1;

    // Update step; empty clusters are re-seeded at the farthest point.
    centroids.Fill(0.0);
    std::vector<int> counts(k, 0);
    for (std::size_t i = 0; i < n; ++i) {
      const int c = result.assignment[i];
      ++counts[c];
      double* crow = centroids.data() + static_cast<std::size_t>(c) * d;
      const double* xrow = x.data() + i * d;
      for (std::size_t j = 0; j < d; ++j) crow[j] += xrow[j];
    }
    for (int c = 0; c < k; ++c) {
      if (counts[c] == 0) {
        // Re-seed: farthest point from its centroid.
        double far_d = -1;
        std::size_t far_i = 0;
        for (std::size_t i = 0; i < n; ++i) {
          const int ci = result.assignment[i];
          if (counts[ci] <= 1) continue;
          double* crow =
              centroids.data() + static_cast<std::size_t>(ci) * d;
          (void)crow;
          const double dist = linalg::SquaredDistance(
              x.Row(i), centroids.Row(ci));
          if (dist > far_d) {
            far_d = dist;
            far_i = i;
          }
        }
        std::copy_n(x.data() + far_i * d, d,
                    centroids.data() + static_cast<std::size_t>(c) * d);
        counts[c] = 1;
        continue;
      }
      double* crow = centroids.data() + static_cast<std::size_t>(c) * d;
      for (std::size_t j = 0; j < d; ++j) crow[j] /= counts[c];
    }

    // Convergence: relative SSE improvement below tolerance.
    if (prev_sse < std::numeric_limits<double>::max()) {
      const double rel = (prev_sse - sse) / std::max(prev_sse, 1e-300);
      if (rel >= 0 && rel < cfg.tol) {
        result.converged = true;
        break;
      }
    }
    prev_sse = sse;
  }
  return result;
}

}  // namespace

KMeans::KMeans(const KMeansConfig& config) : config_(config) {
  MCIRBM_CHECK_GT(config.k, 0);
  MCIRBM_CHECK_GT(config.max_iterations, 0);
  MCIRBM_CHECK_GT(config.restarts, 0);
}

ClusteringResult KMeans::Cluster(const linalg::Matrix& x,
                                 std::uint64_t seed) const {
  MCIRBM_CHECK_GE(x.rows(), static_cast<std::size_t>(config_.k))
      << "fewer instances than clusters";
  rng::Rng rng(seed ^ 0x6b6d65616e73ULL);  // "kmeans"
  ClusteringResult best;
  best.objective = std::numeric_limits<double>::max();
  for (int r = 0; r < config_.restarts; ++r) {
    rng::Rng run_rng = rng.Split();
    ClusteringResult candidate = RunOnce(x, config_, &run_rng);
    if (candidate.objective < best.objective) best = std::move(candidate);
  }
  return best;
}

linalg::Matrix KMeans::ComputeCentroids(const linalg::Matrix& x,
                                        const std::vector<int>& assignment,
                                        int k) {
  MCIRBM_CHECK_EQ(x.rows(), assignment.size());
  linalg::Matrix centroids(k, x.cols());
  std::vector<int> counts(k, 0);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    const int c = assignment[i];
    if (c < 0) continue;
    MCIRBM_CHECK_LT(c, k);
    ++counts[c];
    double* crow = centroids.data() + static_cast<std::size_t>(c) * x.cols();
    const double* xrow = x.data() + i * x.cols();
    for (std::size_t j = 0; j < x.cols(); ++j) crow[j] += xrow[j];
  }
  for (int c = 0; c < k; ++c) {
    if (counts[c] == 0) continue;
    double* crow = centroids.data() + static_cast<std::size_t>(c) * x.cols();
    for (std::size_t j = 0; j < x.cols(); ++j) crow[j] /= counts[c];
  }
  return centroids;
}

}  // namespace mcirbm::clustering
