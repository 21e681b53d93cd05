#include "rbm/sampling.h"

#include "rng/rng.h"
#include "util/check.h"

namespace mcirbm::rbm {

linalg::Matrix SampleFantasies(const RbmBase& model,
                               const linalg::Matrix& start,
                               const GibbsOptions& options) {
  MCIRBM_CHECK_GT(start.rows(), 0u);
  MCIRBM_CHECK_EQ(start.cols(), model.weights().rows())
      << "start width != num_visible";
  MCIRBM_CHECK_GE(options.burn_in, 1);
  rng::Rng rng(options.seed ^ 0x6769626273ULL);  // "gibbs" stream tag
  linalg::Matrix v = start;
  for (int step = 0; step < options.burn_in; ++step) {
    v = model.GibbsStep(v, options.sample_hidden, &rng);
  }
  return v;
}

linalg::Matrix SampleFantasiesFromNoise(const RbmBase& model,
                                        std::size_t num_samples,
                                        const GibbsOptions& options) {
  MCIRBM_CHECK_GT(num_samples, 0u);
  rng::Rng rng(options.seed ^ 0x6e6f697365ULL);  // "noise" stream tag
  linalg::Matrix start(num_samples, model.weights().rows());
  for (std::size_t i = 0; i < start.size(); ++i) {
    start.data()[i] = rng.Bernoulli(0.5) ? 1.0 : 0.0;
  }
  return SampleFantasies(model, start, options);
}

}  // namespace mcirbm::rbm
