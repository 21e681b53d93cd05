// Speedup-vs-threads microbench for the parallel execution engine.
//
// Measures every kernel family the engine covers — the GEMM /
// pairwise-distance hot paths, one CD-1 training epoch, GMM EM, the
// spectral embedding (parallel affinity + serial eigensolve), agglomerative
// linkage, PCA fit, the sls supervision gradient, dataset synthesis, and
// the opt-in sharded Gibbs sampler — at 1/2/4/8 threads, and emits a
// JSON document:
//
//   {"hardware_threads": ..., "kernels": [
//     {"name": "pairwise_sqdist", "n": ..., "results":
//       [{"threads": 1, "seconds": ..., "speedup": 1.0}, ...]}, ...]}
//
// Environment knobs:
//   MCIRBM_BENCH_SCALE_N=<int>   instance count (default 1200)
//   MCIRBM_BENCH_SCALE_REPS=<int> timing repetitions, best-of (default 3)
//
// Note: speedups are only meaningful on a machine with that many physical
// cores; the JSON records hardware_threads so trajectory tooling can
// discount oversubscribed points.
#include <algorithm>
#include <cstdlib>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "clustering/agglomerative.h"
#include "clustering/gmm.h"
#include "clustering/spectral.h"
#include "core/sls_gradient.h"
#include "data/synthetic.h"
#include "linalg/ops.h"
#include "linalg/pca.h"
#include "parallel/thread_pool.h"
#include "rbm/grbm.h"
#include "rbm/sampling.h"
#include "rng/rng.h"
#include "util/timer.h"

namespace {

using namespace mcirbm;  // NOLINT: bench driver

int EnvInt(const char* name, int fallback) {
  const char* v = std::getenv(name);
  return v ? std::atoi(v) : fallback;
}

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  // Per-shard substreams keep generation itself parallel-friendly and
  // reproducible.
  linalg::Matrix m(r, c);
  constexpr std::size_t kGrain = 4096;
  parallel::ParallelFor(
      m.size(), kGrain, [&](std::size_t begin, std::size_t end) {
        rng::Rng rng = parallel::ShardRng(seed, begin / kGrain);
        for (std::size_t i = begin; i < end; ++i) {
          m.data()[i] = rng.Gaussian();
        }
      });
  return m;
}

struct Timing {
  int threads = 0;
  double seconds = 0;
};

// Best-of-`reps` wall time of fn() at the given pool width.
template <typename Fn>
double TimeAt(int threads, int reps, const Fn& fn) {
  parallel::SetNumThreads(threads);
  fn();  // warm-up (pool spin-up, page faults)
  double best = 1e300;
  for (int r = 0; r < reps; ++r) {
    WallTimer timer;
    fn();
    best = std::min(best, timer.Seconds());
  }
  return best;
}

void EmitKernel(const std::string& name, std::size_t n,
                const std::vector<Timing>& timings, bool last) {
  std::cout << "    {\"name\": \"" << name << "\", \"n\": " << n
            << ", \"results\": [";
  const double serial = timings.front().seconds;
  for (std::size_t i = 0; i < timings.size(); ++i) {
    std::cout << (i ? ", " : "") << "{\"threads\": " << timings[i].threads
              << ", \"seconds\": " << timings[i].seconds
              << ", \"speedup\": " << serial / timings[i].seconds << "}";
  }
  std::cout << "]}" << (last ? "" : ",") << "\n";
}

}  // namespace

int main() {
  // Pin the serial-reference schedules regardless of an inherited
  // MCIRBM_DETERMINISTIC: every kernel below measures the deterministic
  // path except gibbs_sharded, which toggles the fast mode itself.
  parallel::SetDeterministic(true);
  const std::size_t n = EnvInt("MCIRBM_BENCH_SCALE_N", 1200);
  const int reps = EnvInt("MCIRBM_BENCH_SCALE_REPS", 3);
  const std::vector<int> widths = {1, 2, 4, 8};

  const linalg::Matrix x = RandomMatrix(n, 64, 1);
  const linalg::Matrix a = RandomMatrix(n, 256, 2);
  const linalg::Matrix b = RandomMatrix(256, 256, 3);

  rbm::RbmConfig cd1;
  cd1.num_visible = 64;
  cd1.num_hidden = 128;
  cd1.epochs = 1;
  cd1.batch_size = 0;  // full batch, the paper's small-dataset setting
  cd1.seed = 7;

  // Smaller substrates for the super-linear kernels (the eigensolve and
  // agglomerative linkage are both O(n³)).
  const std::size_t n_spec = std::min<std::size_t>(n, 320);
  const std::size_t n_agg = std::min<std::size_t>(n, 480);
  data::GaussianMixtureSpec synth_spec;
  synth_spec.name = "scaling";
  synth_spec.num_classes = 5;
  synth_spec.num_instances = static_cast<int>(n) * 4;
  synth_spec.num_features = 64;
  const data::Dataset gmm_data = data::GenerateGaussianMixture(
      {.name = "gmm", .num_classes = 6,
       .num_instances = static_cast<int>(n), .num_features = 32}, 5);

  // sls-gradient substrate: sigmoid hidden features plus a handful of
  // credible clusters over the first rows.
  linalg::Matrix h_feat = RandomMatrix(n, 128, 4);
  linalg::SigmoidInPlace(&h_feat);
  core::SupervisionBatch batch;
  for (std::size_t c = 0; c < 6; ++c) {
    std::vector<std::size_t> rows;
    for (std::size_t r = c * 40; r < (c + 1) * 40 && r < n; ++r) {
      rows.push_back(r);
    }
    if (rows.size() < 2) continue;
    batch.num_credible += rows.size();
    batch.num_ordered_pairs += rows.size() * (rows.size() - 1);
    batch.members.push_back(std::move(rows));
  }
  const linalg::Matrix w_sls = RandomMatrix(a.cols(), 128, 5);
  const std::vector<double> b_sls(128, 0.0);

  std::vector<Timing> pairwise, gemm, cd1_epoch, gmm_em, spectral_embed,
      agglomerative, pca_fit, sls_gradient, synthesis, gibbs_fast;
  for (int threads : widths) {
    pairwise.push_back(
        {threads, TimeAt(threads, reps, [&] {
           volatile double sink = linalg::PairwiseSquaredDistances(x)(0, 1);
           (void)sink;
         })});
    gemm.push_back({threads, TimeAt(threads, reps, [&] {
                      volatile double sink = linalg::Gemm(a, b)(0, 0);
                      (void)sink;
                    })});
    cd1_epoch.push_back({threads, TimeAt(threads, reps, [&] {
                           rbm::Grbm model(cd1);
                           model.Train(x);
                         })});
    gmm_em.push_back({threads, TimeAt(threads, reps, [&] {
                        const clustering::GaussianMixture gmm(
                            {.num_components = 6, .max_iterations = 8});
                        volatile int sink =
                            gmm.Cluster(gmm_data.x, 3).num_clusters;
                        (void)sink;
                      })});
    spectral_embed.push_back(
        {threads, TimeAt(threads, reps, [&] {
           clustering::Spectral::Options options;
           options.num_clusters = 6;
           const clustering::Spectral spectral(options);
           linalg::Matrix sub(n_spec, gmm_data.x.cols());
           std::copy_n(gmm_data.x.data(), sub.size(), sub.data());
           volatile double sink = spectral.Embed(sub)(0, 0);
           (void)sink;
         })});
    agglomerative.push_back(
        {threads, TimeAt(threads, reps, [&] {
           const clustering::Agglomerative agg(6,
                                               clustering::Linkage::kWard);
           linalg::Matrix sub(n_agg, gmm_data.x.cols());
           std::copy_n(gmm_data.x.data(), sub.size(), sub.data());
           volatile int sink = agg.Cluster(sub, 0).num_clusters;
           (void)sink;
         })});
    pca_fit.push_back({threads, TimeAt(threads, reps, [&] {
                         linalg::Pca::Options options;
                         options.num_components = 32;
                         volatile double sink =
                             linalg::Pca::Fit(a, options).Transform(a)(0, 0);
                         (void)sink;
                       })});
    sls_gradient.push_back(
        {threads, TimeAt(threads, reps, [&] {
           linalg::Matrix dw(a.cols(), 128);
           std::vector<double> db(128, 0.0);
           core::AccumulateSlsGradientFast(a, h_feat, batch, w_sls, b_sls,
                                           {}, {&dw, &db});
           volatile double sink = dw(0, 0);
           (void)sink;
         })});
    synthesis.push_back(
        {threads, TimeAt(threads, reps, [&] {
           volatile double sink =
               data::GenerateGaussianMixture(synth_spec, 9).x(0, 0);
           (void)sink;
         })});
    gibbs_fast.push_back(
        {threads, TimeAt(threads, reps, [&] {
           // Opt-in sharded sampler: rows fan out onto ShardRng
           // substreams (deterministic mode pins the serial chain).
           parallel::SetDeterministic(false);
           rbm::Grbm model(cd1);
           rbm::GibbsOptions gibbs;
           gibbs.burn_in = 20;
           gibbs.seed = 11;
           volatile double sink =
               rbm::SampleFantasies(model, x, gibbs)(0, 0);
           (void)sink;
           parallel::SetDeterministic(true);
         })});
  }
  parallel::SetNumThreads(0);

  std::cout << "{\n  \"hardware_threads\": "
            << std::thread::hardware_concurrency() << ",\n  \"kernels\": [\n";
  EmitKernel("pairwise_sqdist", n, pairwise, false);
  EmitKernel("gemm", n, gemm, false);
  EmitKernel("cd1_epoch", n, cd1_epoch, false);
  EmitKernel("gmm_em", n, gmm_em, false);
  EmitKernel("spectral_embed", n_spec, spectral_embed, false);
  EmitKernel("agglomerative", n_agg, agglomerative, false);
  EmitKernel("pca_fit", n, pca_fit, false);
  EmitKernel("sls_gradient", n, sls_gradient, false);
  EmitKernel("synthesis", synth_spec.num_instances, synthesis, false);
  EmitKernel("gibbs_sharded", n, gibbs_fast, true);
  std::cout << "  ]\n}\n";
  return 0;
}
