// train_msra / train_uci: api::RunPipeline end to end, and a traced
// replay of the same program through the modules' public functions.
//
// The replay mirrors api::RunPipeline -> api::Model::Train ->
// core::TryRunEncoderPipeline step for step, including the supervision
// fan-out of core::TryComputeSelfLearningSupervision (one ParallelFor
// over the voter repeats, so nested kernels run inline exactly as they do
// in the real run). Its supervision and hidden features must be
// bit-identical to the untraced run's.
#include <algorithm>
#include <cmath>
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "clustering/registry.h"
#include "clustering/spectral.h"
#include "core/sls_models.h"
#include "data/loaders.h"
#include "data/transforms.h"
#include "linalg/ops.h"
#include "metrics/external.h"
#include "parallel/thread_pool.h"
#include "rng/rng.h"
#include "voting/vote.h"

namespace perfbench {

namespace {

using mcirbm::linalg::Matrix;
namespace api = mcirbm::api;
namespace core = mcirbm::core;

// The pipeline runs exactly as configured here, at the run seed 7 of the
// paper-shape checks: its quality metrics vary by up to a quarter across
// data and pipeline seeds, more than any usable bound, so the workload
// seed does not enter (it drives the serve workloads' traffic only).
std::string SpecText(const Options& options) {
  if (options.workload == "train_msra") {
    return "model = sls-grbm\ndata = synth:msra:0\nseed = 7\n";
  }
  // The abstract's MIRBM ensemble: K-means, AP and spectral clustering.
  return "model = sls-rbm\ndata = synth:uci:4\nseed = 7\n"
         "supervision.voters = kmeans,ap,spectral\n";
}

bool SameBits(const Matrix& a, const Matrix& b) {
  return a.rows() == b.rows() && a.cols() == b.cols() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0;
}

/// Runs `fn` on a pool thread inside a parallel region, so nested
/// kernels run inline — the schedule a voter sees inside the fan-out.
template <typename Fn>
void RunInline(Fn&& fn) {
  mcirbm::parallel::ParallelFor(2, 1, [&](std::size_t begin, std::size_t) {
    if (begin == 0) fn();
  });
}

// ---------------------------------------------------------------------------
// Untraced: repeated RunPipeline for the run's duration.
// ---------------------------------------------------------------------------

void RunUntraced(const Options& options, const api::PipelineSpec& spec,
                 Report* report) {
  std::vector<double> walls;
  double acc = 0, fmi = 0, coverage = 0, recon = 0;
  const double start = NowSeconds();
  // At least two runs (their outputs must agree); then as many more as
  // fit in the run's duration.
  while (walls.size() < 2 ||
         NowSeconds() - start + Median(walls) <= options.seconds) {
    const double t0 = NowSeconds();
    auto run = api::RunPipeline(spec);
    walls.push_back(NowSeconds() - t0);
    if (!report->Check(run.ok(), "RunPipeline: " + run.status().ToString())) {
      continue;
    }
    const api::PipelineRunSummary& s = run.value();
    const double a = s.hidden_metrics.accuracy;
    const double f = s.hidden_metrics.fmi;
    if (walls.size() == 1) {
      acc = a;
      fmi = f;
      coverage = s.supervision_coverage;
      recon = s.reconstruction_error;
      report->Check(std::isfinite(recon) && a > 0 && a <= 1 && f > 0 &&
                        f <= 1 && coverage > 0,
                    "pipeline outputs out of range");
    } else {
      // Deterministic mode: every repeat reproduces the first exactly.
      report->Check(a == acc && f == fmi && s.supervision_coverage == coverage &&
                        s.reconstruction_error == recon,
                    "RunPipeline repeat differs from the first run");
    }
  }
  report->Add("pipeline_s", Median(walls), "s");
  report->Add("hidden_acc", acc, "fraction");
  report->Add("hidden_fmi", fmi, "fraction");
  std::string all;
  for (double w : walls) all += std::to_string(w) + " ";
  report->Note("pipeline_walls_s", all);
}

// ---------------------------------------------------------------------------
// Traced replay.
// ---------------------------------------------------------------------------

struct VoterRun {
  std::string name;
  std::shared_ptr<mcirbm::clustering::Clusterer> clusterer;
  mcirbm::clustering::ClusteringResult result;
  double seconds = 0;
};

struct Replay {
  std::map<std::string, double> spans;  // top-level stage -> seconds
  std::vector<VoterRun> voters;
  double integrate_s = 0;
  mcirbm::voting::LocalSupervision supervision;
  std::vector<mcirbm::rbm::EpochStats> history;
  Matrix hidden;
  double hidden_acc = 0;
  Matrix x;
  int epochs = 0;
  int num_hidden = 0;
  std::size_t batch_rows = 0;
};

template <typename Fn>
auto Span(Replay* replay, const std::string& name, Fn&& fn) {
  const double t0 = NowSeconds();
  auto result = fn();
  replay->spans[name] += NowSeconds() - t0;
  return result;
}

mcirbm::StatusOr<Replay> ReplayPipeline(const api::PipelineSpec& spec) {
  Replay replay;
  // 1. Dataset (api::RunPipeline step 1).
  mcirbm::data::DataSourceConfig source_config;
  source_config.synth_seed = spec.seed;
  auto loaded = Span(&replay, "data.load", [&] {
    return mcirbm::data::LoadDataset(spec.data_spec, source_config);
  });
  if (!loaded.ok()) return loaded.status();
  const mcirbm::data::Dataset dataset = std::move(loaded).value();

  // 2. Preprocessing under transform=auto.
  const bool grbm_family = spec.config.model == core::ModelKind::kGrbm ||
                           spec.config.model == core::ModelKind::kSlsGrbm;
  replay.x = Span(&replay, "data.prepare", [&] {
    Matrix x = dataset.x;
    if (grbm_family) {
      mcirbm::data::StandardizeInPlace(&x);
    } else {
      mcirbm::data::MinMaxScaleInPlace(&x);
    }
    return x;
  });
  const Matrix& x = replay.x;

  // 3. Model::Train -> core::TryRunEncoderPipeline.
  core::PipelineConfig config = spec.config;
  if (config.supervision.num_clusters <= 0) {
    config.supervision.num_clusters = dataset.num_classes;
  }
  core::ApplyParallelConfig(config.parallel);
  mcirbm::rbm::RbmConfig rbm_config = config.rbm;
  if (rbm_config.num_visible == 0) {
    rbm_config.num_visible = static_cast<int>(x.cols());
  }
  rbm_config.seed = rbm_config.seed ^ spec.seed;
  replay.epochs = rbm_config.epochs;
  replay.num_hidden = rbm_config.num_hidden;
  replay.batch_rows = rbm_config.batch_size > 0
                          ? std::min<std::size_t>(rbm_config.batch_size, x.rows())
                          : x.rows();

  // core::TryComputeSelfLearningSupervision, with each voter timed.
  const mcirbm::Status sup_status = Span(&replay, "core.supervision", [&] {
    auto specs = core::ResolveVoterSpecs(config.supervision);
    if (!specs.ok()) return specs.status();
    std::vector<std::uint64_t> seeds;
    for (const core::VoterSpec& voter : specs.value()) {
      mcirbm::ParamMap params = voter.params;
      if (!params.Has("k")) {
        params.Set("k", std::to_string(config.supervision.num_clusters));
      }
      auto clusterer = mcirbm::clustering::ClustererRegistry::Global().Create(
          voter.clusterer, params);
      if (!clusterer.ok()) return clusterer.status();
      std::shared_ptr<mcirbm::clustering::Clusterer> shared =
          std::move(clusterer).value();
      for (int v = 0; v < voter.count; ++v) {
        seeds.push_back(spec.seed + static_cast<std::uint64_t>(v) * 7919ULL);
        replay.voters.push_back({voter.clusterer, shared, {}, 0});
      }
    }
    mcirbm::parallel::ParallelFor(
        replay.voters.size(), 1, [&](std::size_t begin, std::size_t end) {
          for (std::size_t v = begin; v < end; ++v) {
            const double t0 = NowSeconds();
            replay.voters[v].result =
                replay.voters[v].clusterer->Cluster(x, seeds[v]);
            replay.voters[v].seconds = NowSeconds() - t0;
          }
        });
    std::vector<std::vector<int>> partitions;
    for (const VoterRun& voter : replay.voters) {
      partitions.push_back(voter.result.assignment);
    }
    const double t0 = NowSeconds();
    replay.supervision = mcirbm::voting::IntegratePartitions(
        partitions, config.supervision.strategy,
        config.supervision.min_cluster_size);
    replay.integrate_s = NowSeconds() - t0;
    return mcirbm::Status::Ok();
  });
  if (!sup_status.ok()) return sup_status;

  std::unique_ptr<mcirbm::rbm::RbmBase> encoder =
      grbm_family ? std::unique_ptr<mcirbm::rbm::RbmBase>(
                        std::make_unique<core::SlsGrbm>(
                            rbm_config, config.sls, replay.supervision))
                  : std::make_unique<core::SlsRbm>(rbm_config, config.sls,
                                                    replay.supervision);
  replay.history = Span(&replay, "rbm.train", [&] { return encoder->Train(x); });
  // TryRunEncoderPipeline's own hidden pass, then the facade Transform
  // RunPipeline evaluates.
  Span(&replay, "rbm.pipeline_hidden",
       [&] { return encoder->HiddenFeatures(x); });
  replay.hidden = Span(&replay, "rbm.transform",
                       [&] { return encoder->HiddenFeatures(x); });

  // 5. Evaluation: k-means on raw and hidden features.
  const mcirbm::Status eval_status = Span(&replay, "eval.cluster", [&] {
    mcirbm::ParamMap params;
    params.Set("k", std::to_string(spec.eval_k > 0 ? spec.eval_k
                                                   : dataset.num_classes));
    auto clusterer = mcirbm::clustering::ClustererRegistry::Global().Create(
        spec.eval_clusterer, params);
    if (!clusterer.ok()) return clusterer.status();
    const auto raw = clusterer.value()->Cluster(dataset.x, spec.seed);
    const auto hidden = clusterer.value()->Cluster(replay.hidden, spec.seed);
    mcirbm::metrics::ComputeAll(dataset.labels, raw.assignment);
    replay.hidden_acc =
        mcirbm::metrics::ComputeAll(dataset.labels, hidden.assignment)
            .accuracy;
    return mcirbm::Status::Ok();
  });
  if (!eval_status.ok()) return eval_status;
  return replay;
}

// Kernel floor probes at the workload's own shapes.
void ProbeKernels(const Options& options, const Replay& replay,
                  Report* report) {
  namespace linalg = mcirbm::linalg;
  const Matrix& x = replay.x;
  // CD-1's two GEMM shapes: the hidden pass V·W and the gradient Vᵀ·H.
  const std::size_t m = replay.batch_rows;
  const std::size_t d = x.cols();
  const std::size_t h = static_cast<std::size_t>(replay.num_hidden);
  Matrix v(m, d);
  std::copy_n(x.data(), m * d, v.data());
  mcirbm::rng::Rng rng(options.seed);
  Matrix w(d, h);
  Matrix hid(m, h);
  for (std::size_t i = 0; i < w.size(); ++i) w.data()[i] = rng.Gaussian() * 0.01;
  for (std::size_t i = 0; i < hid.size(); ++i) hid.data()[i] = rng.Uniform();
  const double t_gemm = MedianSeconds(5, [&] { linalg::Gemm(v, w); });
  const double t_gemm_ta =
      MedianSeconds(5, [&] { linalg::GemmTransA(v, hid); });
  const double flops = 2.0 * 2.0 * m * d * h;
  const double bytes = 2.0 * 8.0 * (m * d + d * h + m * h);
  report->Add("linalg.gemm_gflops", flops / (t_gemm + t_gemm_ta) / 1e9,
              "GFLOP/s");
  report->Add("linalg.gemm_flops", flops, "flop");
  report->Add("linalg.gemm_bytes", bytes, "bytes_computed");
  report->Note("gemm_shape", std::to_string(m) + "x" + std::to_string(d) +
                                 "x" + std::to_string(h));

  // Pairwise distances and the eigensolve run inside voters, i.e. inline
  // within the fan-out; probe them on that schedule.
  double t_pairwise = 0;
  RunInline([&] {
    t_pairwise = MedianSeconds(3, [&] { linalg::PairwiseSquaredDistances(x); });
  });
  report->Add("linalg.pairwise_s", t_pairwise, "s");

  // The spectral voter's embedding, built from the voter's own
  // parameters; the Jacobi eigensolve is nearly all of its time.
  double t_eigen = 0;
  for (const VoterRun& voter : replay.voters) {
    const auto* spectral =
        dynamic_cast<const mcirbm::clustering::Spectral*>(voter.clusterer.get());
    if (spectral == nullptr) continue;
    RunInline([&] {
      const double t0 = NowSeconds();
      spectral->Embed(x);
      t_eigen = NowSeconds() - t0;
    });
    report->Note("eigen_n", x.rows());
    break;
  }
  report->Add("linalg.eigen_s", t_eigen, "s");
}

void RunTraced(const Options& options, const api::PipelineSpec& spec,
               Report* report) {
  // The replay of the same program between two untraced reference runs:
  // the tracing overhead is taken against their mean, so a drift in the
  // host's speed during the run cancels.
  double t0 = NowSeconds();
  auto reference = api::RunPipeline(spec);
  double untraced_s = NowSeconds() - t0;
  if (!report->Check(reference.ok(),
                     "RunPipeline: " + reference.status().ToString())) {
    return;
  }
  t0 = NowSeconds();
  auto replayed = ReplayPipeline(spec);
  const double traced_s = NowSeconds() - t0;
  if (!report->Check(replayed.ok(),
                     "replay: " + replayed.status().ToString())) {
    return;
  }
  t0 = NowSeconds();
  auto again = api::RunPipeline(spec);
  untraced_s = 0.5 * (untraced_s + NowSeconds() - t0);
  report->Check(again.ok() && again.value().hidden_metrics.accuracy ==
                                  reference.value().hidden_metrics.accuracy,
                "RunPipeline repeat differs from the first run");
  const Replay& replay = replayed.value();
  const api::PipelineRunSummary& ref = reference.value();

  // Output checks: the replay ran the same program.
  report->Check(replay.supervision.cluster_of == ref.model.supervision().cluster_of &&
                    replay.supervision.num_clusters ==
                        ref.model.supervision().num_clusters,
                "replayed supervision differs from RunPipeline's");
  auto ref_hidden = ref.model.Transform(replay.x);
  report->Check(ref_hidden.ok() && SameBits(ref_hidden.value(), replay.hidden),
                "replayed hidden features differ from RunPipeline's");
  report->Check(replay.hidden_acc == ref.hidden_metrics.accuracy,
                "replayed hidden_acc differs from RunPipeline's");

  // Voters.
  std::map<std::string, double> self_s;
  std::map<std::string, std::vector<double>> iterations;
  double voter_total = 0;
  for (const VoterRun& voter : replay.voters) {
    self_s[voter.name] += voter.seconds;
    iterations[voter.name].push_back(voter.result.iterations);
    voter_total += voter.seconds;
  }
  auto mean = [](const std::vector<double>& v) {
    double s = 0;
    for (double e : v) s += e;
    return v.empty() ? 0.0 : s / v.size();
  };
  for (const char* name : {"dp", "kmeans", "ap", "spectral"}) {
    report->Add(std::string("clustering.") + name + "_s", self_s[name], "s");
  }
  report->Add("clustering.ap_iterations", mean(iterations["ap"]), "count");
  report->Add("clustering.kmeans_iterations", mean(iterations["kmeans"]),
              "count");
  const double supervision_s = replay.spans.at("core.supervision");
  report->Add("core.supervision_s", supervision_s, "s");
  report->Add("core.voter_parallelism", voter_total / supervision_s, "ratio");

  double ari_sum = 0;
  int pairs = 0;
  for (std::size_t a = 0; a < replay.voters.size(); ++a) {
    for (std::size_t b = a + 1; b < replay.voters.size(); ++b) {
      ari_sum += mcirbm::metrics::AdjustedRandIndex(
          replay.voters[a].result.assignment,
          replay.voters[b].result.assignment);
      ++pairs;
    }
  }
  report->Add("voting.integrate_s", replay.integrate_s, "s");
  report->Add("voting.coverage", replay.supervision.Coverage(), "fraction");
  report->Add("voting.credible_clusters", replay.supervision.num_clusters,
              "count");
  report->Add("voting.voter_agreement", pairs > 0 ? ari_sum / pairs : 1.0,
              "ARI");

  const double train_s = replay.spans.at("rbm.train");
  report->Add("rbm.train_s", train_s, "s");
  report->Add("rbm.epoch_s", replay.epochs > 0 ? train_s / replay.epochs : 0,
              "s");
  report->Add("rbm.final_recon_error",
              replay.history.empty() ? 0 : replay.history.back().reconstruction_error,
              "mse");
  report->Add("rbm.transform_s", replay.spans.at("rbm.transform"), "s");
  report->Add("eval.cluster_s", replay.spans.at("eval.cluster"), "s");
  report->Add("data.load_s", replay.spans.at("data.load"), "s");

  double attributed = 0;
  for (const auto& [name, seconds] : replay.spans) attributed += seconds;
  report->Add("unattributed_s", traced_s - attributed, "s");
  report->Add("trace.overhead_frac", traced_s / untraced_s - 1.0, "fraction");
  report->Note("untraced_pipeline_s", untraced_s);
  report->Note("traced_pipeline_s", traced_s);
  std::string stages;
  for (const auto& [name, seconds] : replay.spans) {
    stages += name + ":" + std::to_string(seconds) + " ";
  }
  report->Note("stages", stages);

  ProbeKernels(options, replay, report);
}

}  // namespace

void RunTrainWorkload(const Options& options, Fixture* fixture,
                      Report* report) {
  auto spec = api::ParsePipelineSpec(SpecText(options));
  if (!report->Check(spec.ok(), "spec: " + spec.status().ToString())) return;
  if (options.trace) {
    RunTraced(options, spec.value(), report);
    if (options.workload == "train_msra") {
      RunServeProbes(options, fixture, report);
    }
  } else {
    RunUntraced(options, spec.value(), report);
  }
}

}  // namespace perfbench
