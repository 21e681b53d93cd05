#include "rbm/rbm_base.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <memory>
#include <thread>
#include <utility>

#include "linalg/ops.h"
#include "linalg/pca.h"
#include "parallel/thread_pool.h"
#include "util/check.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/thread_annotations.h"

namespace mcirbm::rbm {

namespace {
// Fixed shard widths for the reductions below; independent of the thread
// count so results are bit-identical serial vs parallel.
constexpr std::size_t kElemGrain = 1 << 16;  // element-wise buffers
constexpr std::size_t kRowGrain = 64;        // per-instance reductions

// Double-buffered minibatch pipeline for one epoch: a background thread
// gathers batch b+1 from the source while the trainer consumes batch b,
// keeping at most two gathered batches resident. The gather order is the
// epoch's batch order, so results are identical to synchronous gathering.
class BatchPrefetcher {
 public:
  BatchPrefetcher(const TrainingDataSource& source,
                  const std::vector<std::vector<std::size_t>>& batches)
      : source_(source), batches_(batches) {
    worker_ = std::thread([this] { Run(); });
  }

  ~BatchPrefetcher() {
    {
      MutexLock lock(mu_);
      abort_ = true;
    }
    cv_.NotifyAll();
    worker_.join();
  }

  /// Blocks until the next batch (in order) is gathered; a gather failure
  /// is delivered exactly once, in its batch position.
  Status Take(linalg::Matrix* out) {
    MutexLock lock(mu_);
    while (ready_.empty()) cv_.Wait(mu_);
    Slot slot = std::move(ready_.front());
    ready_.pop_front();
    cv_.NotifyAll();
    if (!slot.status.ok()) return slot.status;
    *out = std::move(slot.batch);
    return Status::Ok();
  }

 private:
  struct Slot {
    linalg::Matrix batch;
    Status status = Status::Ok();
  };

  void Run() {
    for (const std::vector<std::size_t>& indices : batches_) {
      Slot slot;
      slot.status = source_.GatherRows(indices, &slot.batch);
      const bool failed = !slot.status.ok();
      {
        MutexLock lock(mu_);
        while (!abort_ && ready_.size() >= 2) cv_.Wait(mu_);
        if (abort_) return;
        ready_.push_back(std::move(slot));
      }
      cv_.NotifyAll();
      if (failed) return;  // error delivered; stop gathering
    }
  }

  const TrainingDataSource& source_;
  const std::vector<std::vector<std::size_t>>& batches_;
  Mutex mu_;
  CondVar cv_;
  std::deque<Slot> ready_ MCIRBM_GUARDED_BY(mu_);
  bool abort_ MCIRBM_GUARDED_BY(mu_) = false;
  std::thread worker_;
};
}  // namespace

RbmBase::RbmBase(const RbmConfig& config) : config_(config) {
  MCIRBM_CHECK_GT(config.num_visible, 0);
  MCIRBM_CHECK_GT(config.num_hidden, 0);
  MCIRBM_CHECK_GT(config.learning_rate, 0.0);
  MCIRBM_CHECK_GE(config.epochs, 0);
  MCIRBM_CHECK_GE(config.cd_k, 1);
  InitParameters();
}

void RbmBase::InitParameters() {
  const std::size_t nv = config_.num_visible;
  const std::size_t nh = config_.num_hidden;
  w_.Resize(nv, nh);
  a_.assign(nv, 0.0);
  b_.assign(nh, 0.0);
  rng::Rng rng(config_.seed ^ 0x52424d696e6974ULL);  // "RBMinit" stream
  for (std::size_t i = 0; i < w_.size(); ++i) {
    w_.data()[i] = rng.Gaussian(0.0, config_.init_weight_stddev);
  }
}

linalg::Matrix RbmBase::HiddenFeatures(const linalg::Matrix& v) const {
  MCIRBM_CHECK_EQ(v.cols(), w_.rows());
  linalg::Matrix h = linalg::Gemm(v, w_);
  linalg::AddRowVector(&h, b_);
  linalg::SigmoidInPlace(&h);
  return h;
}

linalg::Matrix RbmBase::Reconstruct(const linalg::Matrix& v) const {
  return ReconstructVisible(HiddenFeatures(v));
}

linalg::Matrix RbmBase::GibbsStep(const linalg::Matrix& v,
                                  bool sample_hidden, rng::Rng* rng) const {
  linalg::Matrix h = HiddenFeatures(v);
  if (sample_hidden) {
    MCIRBM_CHECK_NE(rng, nullptr) << "sampled Gibbs step needs an Rng";
    SampleBernoulliInPlace(&h, rng);
  }
  return ReconstructVisible(h);
}

double RbmBase::ReconstructionError(const linalg::Matrix& v) const {
  const linalg::Matrix r = Reconstruct(v);
  const double err = parallel::ShardedSum(
      v.size(), kElemGrain, [&](std::size_t begin, std::size_t end) {
        double s = 0;
        for (std::size_t i = begin; i < end; ++i) {
          const double d = v.data()[i] - r.data()[i];
          s += d * d;
        }
        return s;
      });
  return err / static_cast<double>(v.size());
}

double RbmBase::FreeEnergy(std::span<const double> v) const {
  MCIRBM_CHECK_EQ(v.size(), w_.rows());
  // Hidden part: −Σ_j log(1 + exp(b_j + v·W_j)), stable softplus.
  double hidden = 0;
  for (std::size_t j = 0; j < w_.cols(); ++j) {
    double pre = b_[j];
    for (std::size_t i = 0; i < w_.rows(); ++i) pre += v[i] * w_(i, j);
    const double softplus =
        pre > 30 ? pre : std::log1p(std::exp(std::min(pre, 30.0)));
    hidden += softplus;
  }
  return VisibleFreeEnergyTerm(v) - hidden;
}

double RbmBase::MeanFreeEnergy(const linalg::Matrix& v) const {
  MCIRBM_CHECK_GT(v.rows(), 0u);
  const double total = parallel::ShardedSum(
      v.rows(), kRowGrain, [&](std::size_t begin, std::size_t end) {
        double s = 0;
        for (std::size_t i = begin; i < end; ++i) s += FreeEnergy(v.Row(i));
        return s;
      });
  return total / static_cast<double>(v.rows());
}

void RbmBase::InitWeightsFromPca(const linalg::Matrix& data) {
  if (data.rows() < 2) return;  // PCA undefined; keep the Gaussian init
  linalg::Pca::Options options;
  options.num_components =
      std::min<std::size_t>(w_.cols(), std::min(data.rows() - 1, w_.rows()));
  const linalg::Pca pca = linalg::Pca::Fit(data, options);
  // Column j of W <- principal direction j scaled so the initial hidden
  // pre-activations have magnitude comparable to the Gaussian init.
  const double scale = config_.init_weight_stddev *
                       std::sqrt(static_cast<double>(w_.rows()));
  for (std::size_t j = 0; j < pca.num_components(); ++j) {
    for (std::size_t i = 0; i < w_.rows(); ++i) {
      w_(i, j) = scale * pca.components()(i, j);
    }
  }
  // Columns beyond the data rank keep their Gaussian values.
}

void RbmBase::AccumulateSupervisionGradient(const BatchContext& /*batch*/,
                                            GradientBuffers* /*grads*/) {}

void RbmBase::SampleBernoulliInPlace(linalg::Matrix* probs,
                                     rng::Rng* rng) const {
  double* p = probs->data();
  for (std::size_t i = 0; i < probs->size(); ++i) {
    p[i] = rng->Bernoulli(p[i]) ? 1.0 : 0.0;
  }
}

std::vector<EpochStats> RbmBase::Train(const linalg::Matrix& data) {
  const MatrixTrainingSource source(data);
  auto history = TrainImpl(source, /*prefetch=*/false);
  MCIRBM_CHECK(history.ok()) << name() << ": " << history.status().ToString();
  return std::move(history).value();
}

StatusOr<std::vector<EpochStats>> RbmBase::TrainFromSource(
    const TrainingDataSource& source) {
  return TrainImpl(source, /*prefetch=*/true);
}

StatusOr<std::vector<EpochStats>> RbmBase::TrainImpl(
    const TrainingDataSource& source, bool prefetch) {
  if (source.cols() != static_cast<std::size_t>(config_.num_visible)) {
    return Status::InvalidArgument(
        name() + ": data width " + std::to_string(source.cols()) +
        " != num_visible " + std::to_string(config_.num_visible));
  }
  const std::size_t n = source.rows();
  if (n == 0) {
    return Status::InvalidArgument(name() + ": training data is empty");
  }
  const std::size_t batch_size =
      config_.batch_size > 0 ? static_cast<std::size_t>(config_.batch_size)
                             : n;

  // One serial stream feeds every hidden-state draw, so training is
  // bit-identical to the serial reference at any thread count.
  rng::Rng rng(config_.seed ^ 0x5242747261696eULL);  // "RBtrain" stream
  const std::size_t nv = w_.rows(), nh = w_.cols();

  if (config_.weight_init == RbmConfig::WeightInit::kPca) {
    const linalg::Matrix* dense = source.DenseView();
    if (dense == nullptr) {
      return Status::InvalidArgument(
          name() + ": pca weight init needs the full matrix in memory; "
          "use gaussian init for out-of-core training");
    }
    InitWeightsFromPca(*dense);
  }

  GradientBuffers grads(nv, nh);
  linalg::Matrix w_vel(nv, nh);  // momentum velocity
  std::vector<double> a_vel(nv, 0.0), b_vel(nh, 0.0);

  // Persistent fantasy chains (PCD): seeded from random data rows, then
  // evolved by Gibbs steps across updates instead of restarting at data.
  const bool pcd = config_.use_persistent_cd;
  linalg::Matrix chains;
  if (pcd) {
    const std::size_t num_chains =
        config_.pcd_chains > 0 ? static_cast<std::size_t>(config_.pcd_chains)
                               : batch_size;
    std::vector<std::size_t> seed_rows(num_chains);
    for (std::size_t c = 0; c < num_chains; ++c) {
      seed_rows[c] = rng.UniformIndex(n);
    }
    const Status status = source.GatherRows(seed_rows, &chains);
    if (!status.ok()) return status;
  }

  // Running mean hidden activation (per unit) for the sparsity penalty.
  const bool sparsity =
      config_.sparsity_cost > 0 && config_.sparsity_target > 0;
  std::vector<double> activation_estimate(nh, config_.sparsity_target);

  std::vector<EpochStats> history;
  history.reserve(config_.epochs);

  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) order[i] = i;

  for (int epoch = 0; epoch < config_.epochs; ++epoch) {
    rng.Shuffle(&order);
    double epoch_err = 0;
    double epoch_gnorm = 0;
    double epoch_activation = 0;
    std::size_t batches = 0;

    // The epoch's minibatches: contiguous slices of the shuffled order.
    std::vector<std::vector<std::size_t>> epoch_batches;
    epoch_batches.reserve((n + batch_size - 1) / batch_size);
    for (std::size_t start = 0; start < n; start += batch_size) {
      const std::size_t end = std::min(start + batch_size, n);
      epoch_batches.emplace_back(order.begin() + start, order.begin() + end);
    }
    std::unique_ptr<BatchPrefetcher> prefetcher;
    if (prefetch) {
      prefetcher = std::make_unique<BatchPrefetcher>(source, epoch_batches);
    }

    for (const std::vector<std::size_t>& idx : epoch_batches) {
      linalg::Matrix v;
      const Status gather_status = prefetcher != nullptr
                                       ? prefetcher->Take(&v)
                                       : source.GatherRows(idx, &v);
      if (!gather_status.ok()) return gather_status;
      const std::size_t m = v.rows();

      // Positive phase: h probs driven by data (Eq. 2).
      const linalg::Matrix h_data = HiddenFeatures(v);

      // Gibbs chain: CD-k (k=1 in the paper's experiments). The one-step
      // reconstruction of the batch is always computed — it feeds the
      // supervision hook (Lrecon is defined on reconstructed data) and
      // the telemetry — even when PCD supplies the negative phase.
      linalg::Matrix h_states = h_data;
      if (config_.sample_hidden_states) {
        SampleBernoulliInPlace(&h_states, &rng);
      }
      linalg::Matrix v_recon = ReconstructVisible(h_states);
      linalg::Matrix h_recon = HiddenFeatures(v_recon);
      for (int k = 1; k < config_.cd_k && !pcd; ++k) {
        h_states = h_recon;
        if (config_.sample_hidden_states) {
          SampleBernoulliInPlace(&h_states, &rng);
        }
        v_recon = ReconstructVisible(h_states);
        h_recon = HiddenFeatures(v_recon);
      }

      // Negative phase: batch reconstruction (CD) or persistent fantasy
      // particles advanced k Gibbs steps (PCD).
      const linalg::Matrix* v_neg = &v_recon;
      const linalg::Matrix* h_neg = &h_recon;
      linalg::Matrix h_chain;
      if (pcd) {
        for (int k = 0; k < config_.cd_k; ++k) {
          h_chain = HiddenFeatures(chains);
          linalg::Matrix h_sample = h_chain;
          if (config_.sample_hidden_states) {
            SampleBernoulliInPlace(&h_sample, &rng);
          }
          chains = ReconstructVisible(h_sample);
        }
        h_chain = HiddenFeatures(chains);
        v_neg = &chains;
        h_neg = &h_chain;
      }

      // CD gradient: <v hᵀ>_data − <v hᵀ>_neg (Eq. 7-9), batch-averaged,
      // scaled by CdScale() (η for sls variants).
      grads.Reset();
      const double inv_m = 1.0 / static_cast<double>(m);
      const double inv_neg = 1.0 / static_cast<double>(v_neg->rows());
      const double cd = CdScale();
      linalg::AccumulateGemmTransA(cd * inv_m, v, h_data, &grads.dw);
      linalg::AccumulateGemmTransA(-cd * inv_neg, *v_neg, *h_neg,
                                   &grads.dw);
      {
        const std::vector<double> v_sum = linalg::ColSums(v);
        const std::vector<double> vr_sum = linalg::ColSums(*v_neg);
        for (std::size_t j = 0; j < nv; ++j) {
          grads.da[j] += cd * (inv_m * v_sum[j] - inv_neg * vr_sum[j]);
        }
        const std::vector<double> h_sum = linalg::ColSums(h_data);
        const std::vector<double> hr_sum = linalg::ColSums(*h_neg);
        for (std::size_t j = 0; j < nh; ++j) {
          grads.db[j] += cd * (inv_m * h_sum[j] - inv_neg * hr_sum[j]);
        }
      }

      // Sparsity penalty: push every hidden unit's running mean
      // activation q_j toward the target p. Gradient of
      // −cost·Σ_j (p − q_j)² through the data-phase activations:
      // db_j += cost·(p − q_j), dW_ij += cost·(p − q_j)·<v_i h_j(1−h_j)>.
      if (sparsity) {
        const std::vector<double> h_mean = linalg::ColMeans(h_data);
        for (std::size_t j = 0; j < nh; ++j) {
          activation_estimate[j] =
              config_.sparsity_decay * activation_estimate[j] +
              (1 - config_.sparsity_decay) * h_mean[j];
        }
        linalg::Matrix weighted = linalg::SigmoidDeriv(h_data);
        for (std::size_t r = 0; r < weighted.rows(); ++r) {
          auto row = weighted.Row(r);
          for (std::size_t j = 0; j < nh; ++j) {
            row[j] *= config_.sparsity_cost *
                      (config_.sparsity_target - activation_estimate[j]);
          }
        }
        linalg::AccumulateGemmTransA(inv_m, v, weighted, &grads.dw);
        const std::vector<double> penalty_sum = linalg::ColSums(weighted);
        for (std::size_t j = 0; j < nh; ++j) {
          grads.db[j] += inv_m * penalty_sum[j];
        }
      }

      // Supervision hook (no-op for plain RBM/GRBM).
      const BatchContext ctx{idx, v, h_data, v_recon, h_recon};
      AccumulateSupervisionGradient(ctx, &grads);

      // Parameter update with momentum and L2 weight decay on W.
      const double lr = config_.learning_rate;
      const double mom =
          (config_.momentum_final > 0 &&
           epoch >= config_.momentum_switch_epoch)
              ? config_.momentum_final
              : config_.momentum;
      parallel::ParallelFor(
          w_.size(), kElemGrain, [&](std::size_t begin, std::size_t end) {
            for (std::size_t i = begin; i < end; ++i) {
              const double g =
                  grads.dw.data()[i] - config_.weight_decay * w_.data()[i];
              w_vel.data()[i] = mom * w_vel.data()[i] + lr * g;
              w_.data()[i] += w_vel.data()[i];
            }
          });
      for (std::size_t j = 0; j < nv; ++j) {
        a_vel[j] = mom * a_vel[j] + lr * grads.da[j];
        a_[j] += a_vel[j];
      }
      for (std::size_t j = 0; j < nh; ++j) {
        b_vel[j] = mom * b_vel[j] + lr * grads.db[j];
        b_[j] += b_vel[j];
      }

      // Telemetry.
      const double err = parallel::ShardedSum(
          v.size(), kElemGrain, [&](std::size_t begin, std::size_t end) {
            double s = 0;
            for (std::size_t i = begin; i < end; ++i) {
              const double d = v.data()[i] - v_recon.data()[i];
              s += d * d;
            }
            return s;
          });
      epoch_err += err / static_cast<double>(v.size());
      epoch_gnorm += grads.dw.FrobeniusNorm();
      epoch_activation +=
          h_data.Sum() / static_cast<double>(h_data.size());
      ++batches;
    }

    EpochStats stats;
    stats.epoch = epoch;
    stats.reconstruction_error = epoch_err / static_cast<double>(batches);
    stats.grad_norm = epoch_gnorm / static_cast<double>(batches);
    stats.mean_hidden_activation =
        epoch_activation / static_cast<double>(batches);
    history.push_back(stats);
    MCIRBM_LOG(kDebug) << name() << " epoch " << epoch
                       << " recon=" << stats.reconstruction_error;
  }
  return history;
}

}  // namespace mcirbm::rbm
