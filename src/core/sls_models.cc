#include "core/sls_models.h"

#include <cmath>

#include "util/check.h"

namespace mcirbm::core {

SlsSupervisionFuser::SlsSupervisionFuser(const SlsConfig& config,
                                         voting::LocalSupervision supervision)
    : config_(config), supervision_(std::move(supervision)) {
  MCIRBM_CHECK(config.eta > 0 && config.eta < 1)
      << "eta must lie in (0,1)";
  MCIRBM_CHECK_GE(config.supervision_scale, 0.0);
  supervision_.CheckValid();
}

void SlsSupervisionFuser::Accumulate(const rbm::BatchContext& batch,
                                     const linalg::Matrix& w,
                                     const std::vector<double>& b,
                                     rbm::GradientBuffers* grads) const {
  const SupervisionBatch sup =
      BuildSupervisionBatch(supervision_, batch.indices);
  if (sup.empty()) return;

  // Descent on F adds −(1−η)·∂(Ldata+Lrecon)/∂θ; Train() later multiplies
  // the buffers by the CD learning rate, so supervision_scale restores the
  // paper's ε-free magnitude for the supervision step (see SlsConfig).
  SlsGradientOptions options;
  options.include_disperse = config_.include_disperse_term;
  options.disperse_weight = config_.disperse_weight;
  options.normalize_by_pairs = config_.normalize_by_pairs;
  options.scale = -(1.0 - config_.eta) * config_.supervision_scale;

  // Accumulate into scratch buffers so the supervision contribution can be
  // trust-region capped independently of the CD term (large
  // supervision_scale values otherwise diverge on easy datasets whose
  // consensus covers nearly every instance).
  rbm::GradientBuffers local(w.rows(), w.cols());
  const SlsGradientOutput out{&local.dw, &local.db};
  // Data view (Eq. 27/31).
  AccumulateSlsGradientFast(batch.v, batch.h_data, sup, w, b, options, out);
  // Reconstructed view (Eq. 28/32): same credible clusters, the
  // reconstructed visible rows Ṽ and their hidden features H̃.
  if (config_.include_recon_term) {
    AccumulateSlsGradientFast(batch.v_recon, batch.h_recon, sup, w, b,
                              options, out);
  }

  double rescale = 1.0;
  if (config_.max_grad_norm > 0) {
    double sq = 0;
    for (std::size_t i = 0; i < local.dw.size(); ++i) {
      sq += local.dw.data()[i] * local.dw.data()[i];
    }
    for (const double g : local.db) sq += g * g;
    const double norm = std::sqrt(sq);
    if (norm > config_.max_grad_norm) {
      rescale = config_.max_grad_norm / norm;
    }
  }
  for (std::size_t i = 0; i < local.dw.size(); ++i) {
    grads->dw.data()[i] += rescale * local.dw.data()[i];
  }
  for (std::size_t j = 0; j < local.db.size(); ++j) {
    grads->db[j] += rescale * local.db[j];
  }
}

}  // namespace mcirbm::core
