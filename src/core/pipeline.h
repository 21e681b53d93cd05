// End-to-end encoder pipeline (Fig. 1 of the paper).
//
//   visible data ──> {DP, K-means, AP} ──> unanimous voting ──>
//   self-learning local supervision ──> sls(G)RBM CD-1 training ──>
//   hidden-layer features for downstream clustering.
#ifndef MCIRBM_CORE_PIPELINE_H_
#define MCIRBM_CORE_PIPELINE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/sls_config.h"
#include "core/sls_models.h"
#include "linalg/matrix.h"
#include "rbm/config.h"
#include "rbm/training_source.h"
#include "util/param_map.h"
#include "util/status.h"
#include "voting/local_supervision.h"
#include "voting/vote.h"

namespace mcirbm::core {

/// Which encoder to train.
enum class ModelKind {
  kRbm,      ///< plain binary RBM baseline
  kGrbm,     ///< plain Gaussian RBM baseline
  kSlsRbm,   ///< paper model for binary data
  kSlsGrbm,  ///< paper model for real-valued data
};

const char* ModelKindName(ModelKind kind);

/// One ordered member of the multi-clustering integration, resolved
/// against clustering::ClustererRegistry by name.
struct VoterSpec {
  std::string clusterer;  ///< registry name ("dp", "kmeans", "ap", ...)
  ParamMap params;        ///< factory parameters; "k" defaults to
                          ///< SupervisionConfig::num_clusters
  /// Independently seeded repeats of this voter (>= 1). Extra repeats of a
  /// randomized clusterer make the unanimous vote stricter: instances it
  /// assigns unstably across restarts lose their credibility.
  int count = 1;
};

/// Parses a comma-separated voter list such as "dp,kmeans*3,ap" into
/// ordered specs (`name` or `name*count`). Names are validated against the
/// registry; parameters beyond "k" are set programmatically on the specs.
StatusOr<std::vector<VoterSpec>> ParseVoterList(const std::string& text);

/// Configuration of the supervision-construction stage.
struct SupervisionConfig {
  int num_clusters = 2;  ///< K passed to the base clusterers
  voting::VoteStrategy strategy = voting::VoteStrategy::kUnanimous;
  int min_cluster_size = 2;

  /// Ordered integration members; repeat v of a spec runs with seed
  /// seed + v·7919. The default is the paper's DP/K-means/AP ensemble.
  std::vector<VoterSpec> voters = {
      {"dp", {}, 1}, {"kmeans", {}, 1}, {"ap", {}, 1}};
};

/// Returns `config.voters` after validation: InvalidArgument when the list
/// is empty or a count is non-positive.
StatusOr<std::vector<VoterSpec>> ResolveVoterSpecs(
    const SupervisionConfig& config);

/// Runs the configured base clusterers on `x` and integrates their
/// partitions into a LocalSupervision (Section V.A.2). `x` should already
/// be in the representation the encoder will train on. Unknown clusterer
/// names and malformed parameters surface as non-OK Status.
StatusOr<voting::LocalSupervision> TryComputeSelfLearningSupervision(
    const linalg::Matrix& x, const SupervisionConfig& config,
    std::uint64_t seed);

/// CHECK-aborting wrapper around TryComputeSelfLearningSupervision for
/// callers with statically valid configs.
voting::LocalSupervision ComputeSelfLearningSupervision(
    const linalg::Matrix& x, const SupervisionConfig& config,
    std::uint64_t seed);

/// Full pipeline configuration.
struct PipelineConfig {
  ModelKind model = ModelKind::kSlsGrbm;
  rbm::RbmConfig rbm;          ///< num_visible may be 0 = infer from data
  SlsConfig sls;               ///< ignored by plain models
  SupervisionConfig supervision;  ///< ignored by plain models
  ParallelConfig parallel;     ///< execution-engine settings
};

/// Applies the execution-engine settings to the global thread pool:
/// resizes it when num_threads > 0. Idempotent; called by
/// RunEncoderPipeline and the experiment harness.
void ApplyParallelConfig(const ParallelConfig& config);

/// Result of running the pipeline on one dataset.
struct PipelineResult {
  linalg::Matrix hidden_features;           ///< n x num_hidden
  voting::LocalSupervision supervision;     ///< empty for plain models
  std::unique_ptr<rbm::RbmBase> model;      ///< the trained encoder
  double final_reconstruction_error = 0;
};

/// Trains the configured encoder on `x` and extracts hidden features.
/// For sls models the supervision is computed from `x` itself (fully
/// unsupervised). Deterministic given `seed`. Invalid configurations
/// (empty data, bad hyper-parameters, unresolvable voters) return non-OK
/// Status instead of aborting.
StatusOr<PipelineResult> TryRunEncoderPipeline(const linalg::Matrix& x,
                                               const PipelineConfig& config,
                                               std::uint64_t seed);

/// TryRunEncoderPipeline gathering minibatches through `source` — the
/// out-of-core entry point. Bit-identical to the materialized run with the
/// same rows: the trainer streams double-buffered batches, so peak
/// residency is a couple of minibatches, not the dataset. Features that
/// need every row at once degrade explicitly: sls supervision and PCA
/// weight init require source.DenseView() (kInvalidArgument otherwise),
/// and PipelineResult::hidden_features stays empty — stream transforms
/// chunk-by-chunk instead (row-sliced GEMM is bit-identical to the full
/// pass).
StatusOr<PipelineResult> TryRunEncoderPipelineFromSource(
    const rbm::TrainingDataSource& source, const PipelineConfig& config,
    std::uint64_t seed);

/// CHECK-aborting wrapper around TryRunEncoderPipeline for callers with
/// statically valid configs.
PipelineResult RunEncoderPipeline(const linalg::Matrix& x,
                                  const PipelineConfig& config,
                                  std::uint64_t seed);

}  // namespace mcirbm::core

#endif  // MCIRBM_CORE_PIPELINE_H_
