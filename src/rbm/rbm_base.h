// Base class for RBM-family energy models trained with contrastive
// divergence (Hinton 2002), Section III of the paper.
//
// The base implements everything shared by the four concrete models
// (RBM, GRBM, slsRBM, slsGRBM): parameter storage, the sigmoid hidden
// layer (Eq. 2), the CD-k update loop (Eq. 10-12) with momentum and weight
// decay, and a supervision hook through which the sls variants inject the
// constrict/disperse gradient (Eq. 33-34). Subclasses choose the visible
// reconstruction: sigmoid (Eq. 3) or Gaussian-linear mean field (Eq. 5).
#ifndef MCIRBM_RBM_RBM_BASE_H_
#define MCIRBM_RBM_RBM_BASE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "linalg/matrix.h"
#include "rbm/config.h"
#include "rbm/gradients.h"
#include "rbm/training_source.h"
#include "rng/rng.h"
#include "util/status.h"

namespace mcirbm::rbm {

/// Per-epoch training telemetry.
struct EpochStats {
  int epoch = 0;
  double reconstruction_error = 0;  ///< mean squared recon error per element
  double grad_norm = 0;             ///< Frobenius norm of the applied dW
  double mean_hidden_activation = 0;  ///< data-phase mean of h (sparsity)
};

/// One minibatch mid-update snapshot handed to the supervision hook.
struct BatchContext {
  /// Global dataset row index of every batch row.
  const std::vector<std::size_t>& indices;
  const linalg::Matrix& v;        ///< batch visible data
  const linalg::Matrix& h_data;   ///< sigmoid hidden probs of `v`
  const linalg::Matrix& v_recon;  ///< reconstructed visible layer
  const linalg::Matrix& h_recon;  ///< sigmoid hidden probs of `v_recon`
};

/// Abstract CD-trained RBM.
class RbmBase {
 public:
  explicit RbmBase(const RbmConfig& config);
  virtual ~RbmBase() = default;

  RbmBase(const RbmBase&) = delete;
  RbmBase& operator=(const RbmBase&) = delete;

  /// Model name for logs/serialization ("rbm", "grbm", "sls-rbm", ...).
  virtual std::string name() const = 0;

  /// Trains on the rows of `data` (n x num_visible). Returns per-epoch
  /// stats. Deterministic given config.seed.
  std::vector<EpochStats> Train(const linalg::Matrix& data);

  /// Trains by gathering minibatches from `source` — the out-of-core
  /// path. A background thread double-buffers the next batch gather
  /// while the current one trains, so at most two batches (plus PCD
  /// chains) are resident at once. Gathering is RNG-free, so the result
  /// is bit-identical to Train on the materialized matrix at any thread
  /// count. PCA weight init needs the full matrix and fails with
  /// kInvalidArgument unless the source has a DenseView; malformed shapes
  /// and gather failures surface as non-OK Status instead of aborting.
  StatusOr<std::vector<EpochStats>> TrainFromSource(
      const TrainingDataSource& source);

  /// Hidden-layer features σ(b + V·W) for each row of `v` (Eq. 2) — the
  /// representation consumed by downstream clustering.
  linalg::Matrix HiddenFeatures(const linalg::Matrix& v) const;

  /// One full reconstruction pass: v -> h probs -> visible reconstruction.
  linalg::Matrix Reconstruct(const linalg::Matrix& v) const;

  /// One Gibbs step v -> h -> v'. With `sample_hidden`, binary hidden
  /// states are drawn from their probabilities (proper block Gibbs);
  /// otherwise probabilities propagate (mean field). Returns the new
  /// visible configuration (probabilities/means).
  linalg::Matrix GibbsStep(const linalg::Matrix& v, bool sample_hidden,
                           rng::Rng* rng) const;

  /// Mean squared reconstruction error per element over `v`.
  double ReconstructionError(const linalg::Matrix& v) const;

  /// Free energy F(v) of one visible row: p(v) ∝ exp(−F(v)). Shared
  /// hidden part −Σ_j softplus(b_j + v·W_j) plus a model-specific visible
  /// part (−a·v for binary units, ½|v−a|² for Gaussian units).
  double FreeEnergy(std::span<const double> v) const;

  /// Mean free energy over the rows of `v` (training-progress monitor:
  /// should drop relative to a held-out set as the model fits).
  double MeanFreeEnergy(const linalg::Matrix& v) const;

  const linalg::Matrix& weights() const { return w_; }
  const std::vector<double>& visible_bias() const { return a_; }
  const std::vector<double>& hidden_bias() const { return b_; }
  const RbmConfig& config() const { return config_; }

  /// Mutable access for serialization / tests.
  linalg::Matrix* mutable_weights() { return &w_; }
  std::vector<double>* mutable_visible_bias() { return &a_; }
  std::vector<double>* mutable_hidden_bias() { return &b_; }

 protected:
  /// Visible-layer reconstruction from hidden activations `h` (probs or
  /// sampled states, per config). RBM: σ(a + h·Wᵀ); GRBM: a + h·Wᵀ.
  virtual linalg::Matrix ReconstructVisible(const linalg::Matrix& h) const
      = 0;

  /// Visible part of the free energy for one row (the hidden part is
  /// shared and computed by FreeEnergy).
  virtual double VisibleFreeEnergyTerm(std::span<const double> v) const = 0;

  /// Supervision hook: subclasses add extra gradient into `grads`
  /// *after* the CD term has been accumulated. `grads` holds the full
  /// negative-objective direction to be scaled by the learning rate; the
  /// default adds nothing.
  virtual void AccumulateSupervisionGradient(const BatchContext& batch,
                                             GradientBuffers* grads);

  /// Scale applied to the CD part of the gradient (the paper's η for sls
  /// variants, 1.0 for plain models).
  virtual double CdScale() const { return 1.0; }

  RbmConfig config_;
  linalg::Matrix w_;       ///< num_visible x num_hidden
  std::vector<double> a_;  ///< visible bias
  std::vector<double> b_;  ///< hidden bias

 private:
  /// Shared CD loop behind Train and TrainFromSource. With `prefetch`,
  /// batch gathers run one ahead on a background thread (results are
  /// identical either way; Train on a resident matrix skips the thread).
  StatusOr<std::vector<EpochStats>> TrainImpl(
      const TrainingDataSource& source, bool prefetch);

  void InitParameters();
  /// Replaces the Gaussian init with the leading principal directions of
  /// `data` (config WeightInit::kPca); called once at the start of Train.
  void InitWeightsFromPca(const linalg::Matrix& data);
  /// Samples binary states from probabilities in place.
  void SampleBernoulliInPlace(linalg::Matrix* probs, rng::Rng* rng) const;
};

}  // namespace mcirbm::rbm

#endif  // MCIRBM_RBM_RBM_BASE_H_
