#include "clustering/affinity_propagation.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <utility>

#include "clustering/partition.h"
#include "linalg/ops.h"
#include "linalg/stats.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "util/check.h"

namespace mcirbm::clustering {
namespace {

// Runs message passing with a fixed preference; returns the exemplar-based
// assignment (not yet compact).
struct ApRun {
  std::vector<int> exemplar_of;  // exemplar index per instance
  int num_exemplars = 0;
  int iterations = 0;
  bool converged = false;
  double net_similarity = 0.0;
};

ApRun RunMessagePassing(const linalg::Matrix& s,
                        const AffinityPropagationConfig& cfg) {
  const std::size_t n = s.rows();
  linalg::Matrix r(n, n);  // responsibilities
  linalg::Matrix a(n, n);  // availabilities
  std::vector<int> prev_exemplars(n, -1);
  int stable = 0;
  ApRun run;

  for (int iter = 0; iter < cfg.max_iterations; ++iter) {
    run.iterations = iter + 1;
    // --- responsibilities ---
    // Row i's update reads a/s and writes only r's row i: a parallel map.
    parallel::ParallelFor(n, 32, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        // Find top-2 of a(i,k)+s(i,k) over k.
        double best = -std::numeric_limits<double>::max();
        double second = best;
        std::size_t best_k = 0;
        const double* arow = a.data() + i * n;
        const double* srow = s.data() + i * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double v = arow[k] + srow[k];
          if (v > best) {
            second = best;
            best = v;
            best_k = k;
          } else if (v > second) {
            second = v;
          }
        }
        double* rrow = r.data() + i * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double cap = (k == best_k) ? second : best;
          const double newr = srow[k] - cap;
          rrow[k] = cfg.damping * rrow[k] + (1 - cfg.damping) * newr;
        }
      }
    });
    // --- availabilities ---
    // Column sums of max(0, r(i,k)) for i != k, plus r(k,k). Partitioned
    // by column; each colsum[k] accumulates rows in serial order.
    std::vector<double> colsum(n, 0.0);
    parallel::ParallelFor(n, 32, [&](std::size_t k0, std::size_t k1) {
      for (std::size_t i = 0; i < n; ++i) {
        const double* rrow = r.data() + i * n;
        for (std::size_t k = k0; k < k1; ++k) {
          if (i == k) continue;
          colsum[k] += std::max(0.0, rrow[k]);
        }
      }
    });
    parallel::ParallelFor(n, 32, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double* arow = a.data() + i * n;
        const double* rrow = r.data() + i * n;
        for (std::size_t k = 0; k < n; ++k) {
          double newa;
          if (i == k) {
            newa = colsum[k];
          } else {
            const double without_i = colsum[k] - std::max(0.0, rrow[k]);
            newa = std::min(0.0, r(k, k) + without_i);
          }
          arow[k] = cfg.damping * arow[k] + (1 - cfg.damping) * newa;
        }
      }
    });
    // --- exemplar extraction & convergence check ---
    std::vector<int> exemplars(n);
    parallel::ParallelFor(n, 32, [&](std::size_t begin, std::size_t end) {
      for (std::size_t i = begin; i < end; ++i) {
        double best = -std::numeric_limits<double>::max();
        std::size_t best_k = i;
        const double* arow = a.data() + i * n;
        const double* rrow = r.data() + i * n;
        for (std::size_t k = 0; k < n; ++k) {
          const double v = arow[k] + rrow[k];
          if (v > best) {
            best = v;
            best_k = k;
          }
        }
        exemplars[i] = static_cast<int>(best_k);
      }
    });
    if (exemplars == prev_exemplars) {
      if (++stable >= cfg.convergence_window) {
        run.converged = true;
        run.exemplar_of = std::move(exemplars);
        break;
      }
    } else {
      stable = 0;
    }
    prev_exemplars = exemplars;
    run.exemplar_of = std::move(exemplars);
  }

  // A point is an exemplar iff it elects itself; re-route every point to
  // its most similar actual exemplar for a consistent final assignment.
  std::vector<std::size_t> exemplar_set;
  for (std::size_t i = 0; i < n; ++i) {
    if (run.exemplar_of[i] == static_cast<int>(i)) exemplar_set.push_back(i);
  }
  if (exemplar_set.empty()) {
    // Degenerate (all availabilities collapsed): pick the point with the
    // highest self-responsibility as the single exemplar.
    std::size_t best_i = 0;
    double best = -std::numeric_limits<double>::max();
    for (std::size_t i = 0; i < n; ++i) {
      if (r(i, i) > best) {
        best = r(i, i);
        best_i = i;
      }
    }
    exemplar_set.push_back(best_i);
  }
  for (std::size_t i = 0; i < n; ++i) {
    double best = -std::numeric_limits<double>::max();
    std::size_t best_e = exemplar_set[0];
    for (std::size_t e : exemplar_set) {
      if (s(i, e) > best) {
        best = s(i, e);
        best_e = e;
      }
    }
    run.exemplar_of[i] = static_cast<int>(i == best_e ? best_e : best_e);
    run.net_similarity += s(i, best_e);
  }
  run.num_exemplars = static_cast<int>(exemplar_set.size());
  return run;
}

}  // namespace

AffinityPropagation::AffinityPropagation(
    const AffinityPropagationConfig& config)
    : config_(config) {
  MCIRBM_CHECK(config.damping >= 0.5 && config.damping < 1.0);
  MCIRBM_CHECK_GT(config.max_iterations, 0);
}

ClusteringResult AffinityPropagation::Cluster(const linalg::Matrix& x,
                                              std::uint64_t seed) const {
  const std::size_t n = x.rows();
  MCIRBM_CHECK_GT(n, 0u);
  if (n == 1) {
    // Message passing is undefined for one point; the answer is trivial.
    ClusteringResult trivial;
    trivial.assignment = {0};
    trivial.num_clusters = 1;
    trivial.converged = true;
    return trivial;
  }

  // Similarity: negative squared Euclidean distance, plus tiny jitter to
  // break message-passing oscillation ties (Frey & Dueck's trick).
  linalg::Matrix s = linalg::PairwiseSquaredDistances(x);
  std::vector<double> off_diag;
  off_diag.reserve(n * (n - 1));
  rng::Rng rng(seed ^ 0x6170726f70ULL);  // "aprop" stream tag
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      s(i, j) = -s(i, j);
      if (i != j) off_diag.push_back(s(i, j));
      s(i, j) += 1e-12 * rng.Gaussian();
    }
  }
  double lo_sim = off_diag[0], hi_sim = off_diag[0];
  for (double v : off_diag) {
    lo_sim = std::min(lo_sim, v);
    hi_sim = std::max(hi_sim, v);
  }
  const double median_sim = linalg::Percentile(std::move(off_diag), 50.0);

  // Each run overwrites the whole diagonal, so `s` is reused in place.
  auto run_with_pref = [&](double pref) {
    for (std::size_t i = 0; i < n; ++i) s(i, i) = pref;
    return RunMessagePassing(s, config_);
  };

  ApRun best_run;
  if (config_.target_clusters <= 0) {
    best_run = run_with_pref(median_sim);
  } else {
    // Bisection on preference: more negative -> fewer exemplars.
    double lo = lo_sim * 4.0;              // very few clusters
    double hi = std::min(hi_sim, -1e-9);   // many clusters
    ApRun lo_run = run_with_pref(lo);
    best_run = lo_run;
    int best_gap = std::abs(lo_run.num_exemplars - config_.target_clusters);
    for (int step = 0; step < config_.preference_search_steps && best_gap > 0;
         ++step) {
      const double mid = 0.5 * (lo + hi);
      ApRun mid_run = run_with_pref(mid);
      const int gap =
          std::abs(mid_run.num_exemplars - config_.target_clusters);
      if (gap < best_gap ||
          (gap == best_gap && mid_run.converged && !best_run.converged)) {
        best_gap = gap;
        best_run = mid_run;
      }
      if (mid_run.num_exemplars > config_.target_clusters) {
        hi = mid;  // too many clusters: make preference more negative
      } else if (mid_run.num_exemplars < config_.target_clusters) {
        lo = mid;
      } else {
        break;
      }
    }
  }

  ClusteringResult result;
  result.assignment = best_run.exemplar_of;
  result.num_clusters = CompactRelabel(&result.assignment);
  result.iterations = best_run.iterations;
  result.converged = best_run.converged;
  result.objective = best_run.net_similarity;
  return result;
}

}  // namespace mcirbm::clustering
