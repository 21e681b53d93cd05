// api::Model — the versioned, unified encoder artifact.
//
// One type covers the whole model lifecycle through the facade:
//
//   auto model = api::Model::Train(x, config, seed);      // StatusOr
//   model.value().Save("encoder.mcirbm");
//   auto restored = api::Model::Load("encoder.mcirbm");
//   auto features = restored.value().Transform(x);        // bit-identical
//   auto scores = restored.value().Evaluate(x, labels, {"kmeans"});
//
// On-disk format ("mcirbm-model v1"):
//
//   mcirbm-model v1
//   kind: <registry model name>
//   <single-model payload of rbm/serialize.h>
//
// Load also accepts the two legacy artifacts — bare "mcirbm-rbm v1"
// parameter files and "mcirbm-stack v1" manifests (core/stack_serialize.h)
// — so anything ever saved by the CLI or the library round-trips through
// the same entry point. Unsupported versions, truncated payloads, and
// dimension mismatches all surface as non-OK Status, never as aborts.
#ifndef MCIRBM_API_MODEL_H_
#define MCIRBM_API_MODEL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "core/stack_serialize.h"
#include "data/source.h"
#include "linalg/matrix.h"
#include "metrics/external.h"
#include "rbm/rbm_base.h"
#include "util/status.h"

namespace mcirbm::api {

/// The api::Model wrapper magic line ("mcirbm-model v1").
extern const char kModelMagic[];
/// Format version written by Save; Load rejects anything newer.
inline constexpr int kModelFormatVersion = 1;

/// Options for Model::Evaluate.
struct EvalOptions {
  std::string clusterer = "kmeans";  ///< ClustererRegistry name
  int k = 0;                         ///< cluster count; 0 = #distinct labels
  std::uint64_t seed = 7;
};

/// Outcome of Model::Evaluate: the paper's external metrics plus the
/// cluster count the algorithm actually produced.
struct EvalResult {
  metrics::MetricBundle metrics;
  int clusters_found = 0;
};

/// Clusters pre-computed features with the named clusterer and scores the
/// assignment against `labels`. This is exactly the post-transform half of
/// Model::Evaluate, exposed so batch-serving callers that already hold a
/// feature slice score it through the identical code path (same registry
/// lookup, same seed handling, same metrics).
StatusOr<EvalResult> EvaluateFeatures(const linalg::Matrix& features,
                                      const std::vector<int>& labels,
                                      const EvalOptions& options = {});

/// A trained (or loaded) encoder with unified persistence and inference.
/// Move-only; a default-constructed Model is empty until assigned from
/// Train or Load.
///
/// Thread safety: every const member is safe to call concurrently from
/// any number of threads on one instance. Transform and Evaluate read the
/// immutable parameter blocks (weights, biases) and keep all per-call
/// state on the stack; the parallel kernels they invoke (linalg::Gemm et
/// al.) may be entered concurrently from multiple external threads — the
/// global parallel::ThreadPool serializes region scheduling internally.
/// Nothing in the inference path mutates the model, so a single instance
/// can back many concurrent batches (the serve::ModelStore relies on
/// this). Non-const operations (move-assignment, mutable_* access via
/// encoder()) must be externally synchronized, as usual.
class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;
  Model(const Model&) = delete;
  Model& operator=(const Model&) = delete;

  /// Trains the configured encoder on `x` through the core pipeline.
  /// Invalid configurations come back as non-OK Status.
  static StatusOr<Model> Train(const linalg::Matrix& x,
                               const core::PipelineConfig& config,
                               std::uint64_t seed);

  /// Trains by streaming minibatches from `source` — the out-of-core
  /// path. Requires random row access (mmap/in-memory backends; convert
  /// text formats with `mcirbm_cli dataset convert`). Bit-identical to
  /// Train on the materialized rows at any thread count. Sls models and
  /// PCA init need the matrix resident and fail with kInvalidArgument on
  /// non-dense sources.
  static StatusOr<Model> TrainFromSource(const data::DataSource& source,
                                         const core::PipelineConfig& config,
                                         std::uint64_t seed);

  /// Restores a model saved by Save, a bare rbm/serialize.h parameter
  /// file, or a core/stack_serialize.h manifest.
  static StatusOr<Model> Load(const std::string& path);

  /// Load with shared ownership: the artifact is immutable after loading,
  /// so long-lived services (serve::ModelStore) hand the same instance to
  /// many concurrent readers and retire it only when the last batch in
  /// flight releases its reference.
  static StatusOr<std::shared_ptr<const Model>> LoadShared(
      const std::string& path);

  /// Writes the versioned artifact. Stack-backed models are persisted by
  /// core::SaveStack (multi-file manifests) and rejected here.
  Status Save(const std::string& path) const;

  /// Hidden-layer features for the rows of `x`; InvalidArgument when
  /// `x`'s width does not match the encoder's visible layer.
  StatusOr<linalg::Matrix> Transform(const linalg::Matrix& x) const;

  /// Transforms `x`, clusters the features with the named clusterer, and
  /// scores the assignment against `labels`.
  StatusOr<EvalResult> Evaluate(const linalg::Matrix& x,
                                const std::vector<int>& labels,
                                const EvalOptions& options = {}) const;

  /// False for a default-constructed (empty) model.
  bool valid() const { return encoder_ != nullptr || stack_ != nullptr; }

  /// Registry name of the trained kind ("sls-grbm", ...; "stack" for
  /// loaded stack manifests; the stored payload name for legacy files).
  const std::string& kind() const { return kind_; }

  std::size_t num_visible() const;
  std::size_t num_hidden() const;
  /// 1 for single-layer encoders, the layer count for stacks, 0 if empty.
  std::size_t num_layers() const;

  // Training telemetry — meaningful only for models produced by Train.
  const voting::LocalSupervision& supervision() const {
    return supervision_;
  }
  double final_reconstruction_error() const {
    return final_reconstruction_error_;
  }

  /// Underlying single-layer encoder; requires valid() and !is_stack().
  const rbm::RbmBase& encoder() const;
  bool is_stack() const { return stack_ != nullptr; }

 private:
  std::string kind_;
  std::unique_ptr<rbm::RbmBase> encoder_;
  std::unique_ptr<core::LoadedStack> stack_;
  voting::LocalSupervision supervision_;
  double final_reconstruction_error_ = 0;
};

}  // namespace mcirbm::api

#endif  // MCIRBM_API_MODEL_H_
