#include "serve/router.h"

#include <algorithm>
#include <utility>

namespace mcirbm::serve {

namespace {

/// FNV-1a, chosen over std::hash for a routing function that is
/// deterministic across standard libraries and process runs (std::hash
/// makes no such promise, and replica assignment should be stable for
/// capacity planning).
std::uint64_t Fnv1a(const std::string& key) {
  std::uint64_t hash = 1469598103934665603ull;
  for (const char c : key) {
    hash ^= static_cast<unsigned char>(c);
    hash *= 1099511628211ull;
  }
  return hash;
}

}  // namespace

Router::Router(const RouterConfig& config) : store_(config.store_capacity) {
  if (config.max_inflight_requests > 0) {
    admission_ =
        std::make_shared<AdmissionController>(config.max_inflight_requests);
  }
  BatcherConfig batcher = config.batcher;
  batcher.admission = admission_;
  const std::size_t replicas = std::max<std::size_t>(1, config.replicas);
  batchers_.reserve(replicas);
  for (std::size_t r = 0; r < replicas; ++r) {
    batchers_.push_back(std::make_unique<MicroBatcher>(batcher));
  }
}

Router::~Router() { Shutdown(); }

std::size_t Router::ReplicaFor(const std::string& key) const {
  return static_cast<std::size_t>(Fnv1a(key) % batchers_.size());
}

std::future<StatusOr<linalg::Matrix>> Router::Submit(
    const std::string& model_key, linalg::Matrix rows,
    std::shared_ptr<obs::TraceContext> trace) {
  auto model = store_.Get(model_key, trace.get());
  if (!model.ok()) return FailedFuture<linalg::Matrix>(model.status());
  return batchers_[ReplicaFor(model_key)]->SubmitTransform(
      std::move(model).value(), model_key, std::move(rows), std::move(trace));
}

std::future<StatusOr<api::EvalResult>> Router::SubmitEvaluate(
    const std::string& model_key, linalg::Matrix rows,
    std::vector<int> labels, api::EvalOptions options,
    std::shared_ptr<obs::TraceContext> trace) {
  auto model = store_.Get(model_key, trace.get());
  if (!model.ok()) return FailedFuture<api::EvalResult>(model.status());
  return batchers_[ReplicaFor(model_key)]->SubmitEvaluate(
      std::move(model).value(), model_key, std::move(rows),
      std::move(labels), options, std::move(trace));
}

Status Router::Reload(const std::string& model_key,
                      obs::TraceContext* trace) {
  return store_.Reload(model_key, trace);
}

std::uint64_t Router::inflight_requests() const {
  return admission_ == nullptr ? 0 : admission_->inflight();
}

void Router::Shutdown() {
  for (const auto& batcher : batchers_) batcher->Shutdown();
}

Router::Stats Router::stats() const {
  Stats stats;
  stats.store = store_.stats();
  for (const auto& batcher : batchers_) stats.batcher.Add(batcher->stats());
  return stats;
}

obs::MetricsSnapshot Router::metrics_snapshot() const {
  obs::MetricsSnapshot merged;
  for (const auto& batcher : batchers_) {
    merged.Merge(batcher->metrics_snapshot());
  }
  // The store is shared: fold its registry in once, not per replica.
  merged.Merge(store_.metrics_snapshot());
  merged.gauges[{"serve_replicas", ""}] =
      static_cast<double>(batchers_.size());
  merged.gauges[{"serve_inflight_requests", ""}] =
      static_cast<double>(inflight_requests());
  return merged;
}

}  // namespace mcirbm::serve
