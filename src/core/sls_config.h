// Configuration of the self-learning local supervision (sls) objective.
#ifndef MCIRBM_CORE_SLS_CONFIG_H_
#define MCIRBM_CORE_SLS_CONFIG_H_

namespace mcirbm::core {

/// Execution-engine knobs plumbed through the pipeline/experiment configs
/// into src/parallel/ (see ApplyParallelConfig in core/pipeline.h). Every
/// kernel is bit-identical to the serial reference at any thread count.
struct ParallelConfig {
  /// Worker threads for the global pool. 0 keeps the current global
  /// setting (MCIRBM_THREADS env var, else hardware concurrency).
  int num_threads = 0;
};

/// Hyper-parameters of the constrict/disperse supervision terms (Eq. 13).
struct SlsConfig {
  /// Scale coefficient η ∈ (0,1) weighting the CD likelihood term against
  /// the supervision terms (Eq. 16). The paper sets 0.4 for slsGRBM and
  /// 0.5 for slsRBM (Section V.B).
  double eta = 0.5;

  /// Step-size multiplier for the supervision gradient, relative to the CD
  /// learning rate. The paper's update rule (Eq. 33) applies the
  /// (1-η)-weighted supervision terms *without* the CD learning rate ε;
  /// with ε = 1e-4..1e-5 that makes the supervision step ~1/ε times the CD
  /// step. supervision_scale reproduces that family: the applied step is
  ///   lr * supervision_scale * (1-η) * (-∂(Ldata+Lrecon)/∂θ).
  double supervision_scale = 1000.0;

  /// Include the reconstructed-view term Lrecon (Eq. 15). The paper always
  /// does; exposed for ablation.
  bool include_recon_term = true;

  /// Include the center-dispersion term (second half of Eq. 14/15).
  /// Exposed for ablation.
  bool include_disperse_term = true;

  /// Relative weight of the dispersion term. 1.0 keeps the paper's form;
  /// larger values resist the collapse of the hidden space when credible
  /// clusters are large.
  double disperse_weight = 1.0;

  /// Normalize the constriction sum by the ordered-pair count Σ N_k(N_k−1)
  /// (true, default — keeps constrict and disperse on a comparable
  /// per-pair scale) or by the credible-instance count Nh (false — the
  /// literal Eq. 13, reproduced for the ablation bench; it collapses the
  /// hidden space, see SlsGradientOptions::normalize_by_pairs).
  bool normalize_by_pairs = true;

  /// Trust-region cap on the Frobenius norm of the (already scaled)
  /// supervision gradient per update; 0 disables. With the paper's ε-free
  /// supervision step a large supervision_scale is needed on datasets with
  /// sparse consensus, but the same scale diverges on datasets whose
  /// consensus covers nearly every instance (e.g. Iris-like). The cap
  /// keeps one family-wide scale stable across both regimes.
  double max_grad_norm = 0.0;
};

}  // namespace mcirbm::core

#endif  // MCIRBM_CORE_SLS_CONFIG_H_
