// google-benchmark microbenchmarks for the numeric kernels:
// GEMM variants, the symmetric eigensolver, CD-1 epoch, sls gradient
// naive vs fast (the ablation of the algebraic reduction), and the three
// clusterers.
#include <benchmark/benchmark.h>

#include "clustering/affinity_propagation.h"
#include "clustering/density_peaks.h"
#include "clustering/kmeans.h"
#include "core/sls_gradient.h"
#include "data/synthetic.h"
#include "linalg/eigen.h"
#include "linalg/ops.h"
#include "rbm/grbm.h"
#include "rbm/rbm.h"
#include "rng/rng.h"

namespace {

using namespace mcirbm;  // NOLINT: bench driver

linalg::Matrix RandomMatrix(std::size_t r, std::size_t c,
                            std::uint64_t seed) {
  rng::Rng rng(seed);
  linalg::Matrix m(r, c);
  for (std::size_t i = 0; i < m.size(); ++i) m.data()[i] = rng.Gaussian();
  return m;
}

void BM_Gemm(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix a = RandomMatrix(n, n, 1);
  const linalg::Matrix b = RandomMatrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::Gemm(a, b));
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

void BM_GemmTransA(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix a = RandomMatrix(n, n, 3);
  const linalg::Matrix b = RandomMatrix(n, n, 4);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::GemmTransA(a, b));
  }
}
BENCHMARK(BM_GemmTransA)->Arg(128)->Arg(256);

// CD-1 on synth MSRA: 896 rows, 892 visible units, 96 hidden units. The
// reconstruction H·Wᵀ and the gradient update dw += alpha·Vᵀ·H against
// sampled 0/1 hidden states.
constexpr std::size_t kCdRows = 896;
constexpr std::size_t kCdVisible = 892;
constexpr std::size_t kCdHidden = 96;

void SetGemmRate(benchmark::State& state, double multiply_adds) {
  state.counters["GFLOP/s"] = benchmark::Counter(
      2.0 * multiply_adds, benchmark::Counter::kIsIterationInvariantRate);
}

void BM_GemmTransB(benchmark::State& state) {
  const linalg::Matrix h = RandomMatrix(kCdRows, kCdHidden, 10);
  const linalg::Matrix w = RandomMatrix(kCdVisible, kCdHidden, 11);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::GemmTransB(h, w));
  }
  SetGemmRate(state, 1.0 * kCdRows * kCdVisible * kCdHidden);
}
BENCHMARK(BM_GemmTransB)->Unit(benchmark::kMillisecond);

void BM_AccumulateGemmTransA(benchmark::State& state) {
  const linalg::Matrix v = RandomMatrix(kCdRows, kCdVisible, 12);
  linalg::Matrix h(kCdRows, kCdHidden);
  rng::Rng rng(13);
  for (std::size_t i = 0; i < h.size(); ++i) {
    h.data()[i] = rng.Uniform() < 0.5 ? 0.0 : 1.0;
  }
  linalg::Matrix dw(kCdVisible, kCdHidden);
  for (auto _ : state) {
    linalg::AccumulateGemmTransA(-1.0 / kCdRows, v, h, &dw);
    benchmark::DoNotOptimize(dw.data());
  }
  SetGemmRate(state, 1.0 * kCdRows * kCdVisible * kCdHidden);
}
BENCHMARK(BM_AccumulateGemmTransA)->Unit(benchmark::kMillisecond);

// Dense symmetric eigensolve up to the UCI spectral voter's n = 569; the
// per-iteration copy of the input is O(n²) against the solve's O(n³).
void BM_SymmetricEigen(benchmark::State& state) {
  const std::size_t n = state.range(0);
  linalg::Matrix a = RandomMatrix(n, n, 7);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < i; ++j) a(j, i) = a(i, j);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::SymmetricEigen(a));
  }
}
BENCHMARK(BM_SymmetricEigen)->Arg(64)->Arg(256)->Arg(569)
    ->Unit(benchmark::kMillisecond);

// n rows x d features; 569x32 is synth UCI, 896x892 synth MSRA (the DP
// and AP voters' distance matrix).
void BM_PairwiseSquaredDistances(benchmark::State& state) {
  const std::size_t n = state.range(0);
  const linalg::Matrix m = RandomMatrix(n, state.range(1), 5);
  for (auto _ : state) {
    benchmark::DoNotOptimize(linalg::PairwiseSquaredDistances(m));
  }
}
BENCHMARK(BM_PairwiseSquaredDistances)
    ->Args({128, 64})
    ->Args({512, 64})
    ->Args({569, 32})
    ->Args({896, 892})
    ->Unit(benchmark::kMillisecond);

void BM_RbmCdEpoch(benchmark::State& state) {
  const int nv = static_cast<int>(state.range(0));
  rbm::RbmConfig cfg;
  cfg.num_visible = nv;
  cfg.num_hidden = 64;
  cfg.epochs = 1;
  cfg.learning_rate = 1e-4;
  const linalg::Matrix x = RandomMatrix(256, nv, 6);
  for (auto _ : state) {
    rbm::Grbm model(cfg);
    benchmark::DoNotOptimize(model.Train(x));
  }
}
BENCHMARK(BM_RbmCdEpoch)->Arg(128)->Arg(512)->Arg(899);

// The headline kernel ablation: literal pairwise Eq. 27 vs the GEMM
// reduction, at growing cluster sizes. The naive form is O(N^2 d), the
// fast form O(N d); the gap is the reason the reduction exists.
void SlsGradientBench(benchmark::State& state, bool fast) {
  const std::size_t m = state.range(0);
  const std::size_t nv = 64, nh = 32;
  const linalg::Matrix v = RandomMatrix(m, nv, 7);
  const linalg::Matrix w = RandomMatrix(nv, nh, 8);
  std::vector<double> b(nh, 0.1);
  linalg::Matrix h = linalg::Gemm(v, w);
  linalg::AddRowVector(&h, b);
  linalg::SigmoidInPlace(&h);
  voting::LocalSupervision sup;
  sup.num_clusters = 3;
  sup.cluster_of.resize(m);
  for (std::size_t i = 0; i < m; ++i) {
    sup.cluster_of[i] = static_cast<int>(i % 3);
  }
  std::vector<std::size_t> idx(m);
  for (std::size_t i = 0; i < m; ++i) idx[i] = i;
  const core::SupervisionBatch batch =
      core::BuildSupervisionBatch(sup, idx);
  linalg::Matrix dw(nv, nh);
  std::vector<double> db(nh, 0.0);
  for (auto _ : state) {
    dw.Fill(0.0);
    std::fill(db.begin(), db.end(), 0.0);
    if (fast) {
      core::AccumulateSlsGradientFast(v, h, batch, w, b, {}, {&dw, &db});
    } else {
      core::AccumulateSlsGradientNaive(v, h, batch, w, b, {}, {&dw, &db});
    }
    benchmark::DoNotOptimize(dw.data());
  }
}
void BM_SlsGradientNaive(benchmark::State& state) {
  SlsGradientBench(state, false);
}
void BM_SlsGradientFast(benchmark::State& state) {
  SlsGradientBench(state, true);
}
BENCHMARK(BM_SlsGradientNaive)->Arg(32)->Arg(128)->Arg(256);
BENCHMARK(BM_SlsGradientFast)->Arg(32)->Arg(128)->Arg(256)->Arg(1024);

data::Dataset BenchBlobs(int n) {
  data::GaussianMixtureSpec spec;
  spec.name = "bench";
  spec.num_classes = 3;
  spec.num_instances = n;
  spec.num_features = 32;
  spec.separation = 4.0;
  return data::GenerateGaussianMixture(spec, 9);
}

void BM_KMeans(benchmark::State& state) {
  const data::Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  clustering::KMeansConfig cfg;
  cfg.k = 3;
  const clustering::KMeans km(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(km.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_KMeans)->Arg(256)->Arg(1024);

void BM_DensityPeaks(benchmark::State& state) {
  const data::Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  clustering::DensityPeaksConfig cfg;
  cfg.k = 3;
  const clustering::DensityPeaks dp(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dp.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_DensityPeaks)->Arg(256)->Arg(512);

void BM_AffinityPropagation(benchmark::State& state) {
  const data::Dataset ds = BenchBlobs(static_cast<int>(state.range(0)));
  clustering::AffinityPropagationConfig cfg;  // median preference
  const clustering::AffinityPropagation ap(cfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ap.Cluster(ds.x, 1));
  }
}
BENCHMARK(BM_AffinityPropagation)->Arg(128)->Arg(256);

}  // namespace

BENCHMARK_MAIN();
