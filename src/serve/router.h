// serve::Router — the embeddable inference service.
//
// Ties the serving layer together: one ModelStore resolves model keys to
// shared artifacts, and N MicroBatcher replicas (each with its own
// flusher thread) coalesce requests into batched passes on the global
// parallel::ThreadPool. A deterministic key-hash maps every model key to
// exactly one replica, so one model's requests always coalesce in one
// batcher and the output is bit-identical at any replica count (pinned
// by tests/serve/router_test.cc at 1/2/4 replicas) — and to calling
// api::Model::Transform / Evaluate directly: micro-batching changes
// throughput, never outputs. All replicas share the one store, so an
// artifact loaded (or Put) once serves every replica, and Reload swaps
// it for all of them atomically.
//
//   serve::RouterConfig config;
//   config.replicas = 4;
//   config.batcher.max_pending_rows = 256;   // per-queue bound
//   config.max_inflight_requests = 4096;     // global bound
//   serve::Router router(config);
//   auto features = router.Submit("encoder.mcirbm", row);   // future
//   auto scored = router.SubmitEvaluate("encoder.mcirbm", rows, labels);
//   router.Shutdown();  // flushes pending work; later submits fail
//
// Replicas pay off on multi-key traffic: each one is another flusher
// thread assembling and completing batches, which the single flusher of
// one replica serializes (bench/serve_throughput.cc, serve_replicas*).
//
// Admission control is fail-fast at both granularities: a submission
// that would push a model's queue past max_pending_rows, or the whole
// router past max_inflight_requests, resolves its future immediately
// with StatusCode::kUnavailable (counted in stats as rejected_requests).
// Overflow never blocks the caller and never drops a request silently.
//
// Observability: metrics_snapshot() merges every replica's
// obs::Registry with the shared store's into one view; RenderStatsText()
// is the text form served by `op=stats` and `--stats-every`.
#ifndef MCIRBM_SERVE_ROUTER_H_
#define MCIRBM_SERVE_ROUTER_H_

#include <cstdint>
#include <future>
#include <memory>
#include <string>
#include <vector>

#include "api/model.h"
#include "linalg/matrix.h"
#include "obs/registry.h"
#include "serve/micro_batcher.h"
#include "serve/model_store.h"
#include "util/status.h"

namespace mcirbm::serve {

/// Replica-sharded serving knobs.
struct RouterConfig {
  /// Batcher replicas behind the key-hash (clamped to >= 1).
  std::size_t replicas = 1;
  /// Global admission bound: submissions beyond this many unresolved
  /// futures (across all replicas) are rejected with kUnavailable.
  /// 0 = unbounded.
  std::uint64_t max_inflight_requests = 0;
  /// Per-replica batching policy. max_pending_rows bounds each model
  /// queue; the admission field is overwritten by the router's shared
  /// controller.
  BatcherConfig batcher;
  /// Capacity of the single ModelStore shared by every replica.
  std::size_t store_capacity = 8;
};

/// N MicroBatchers behind a deterministic key-hash with one shared
/// ModelStore.
class Router {
 public:
  explicit Router(const RouterConfig& config = {});
  ~Router();

  Router(const Router&) = delete;
  Router& operator=(const Router&) = delete;

  /// Queues `rows` on `model_key`'s replica for a batched Transform
  /// through the model cached under `model_key` (loaded from that path
  /// on first use). Overflow, unknown models, shape mismatches, and
  /// post-Shutdown submissions resolve the future immediately with a
  /// non-OK Status. A non-null `trace` collects load/queue/exec spans
  /// (obs/trace.h).
  std::future<StatusOr<linalg::Matrix>> Submit(
      const std::string& model_key, linalg::Matrix rows,
      std::shared_ptr<obs::TraceContext> trace = {});

  /// Routes `rows` to `model_key`'s replica for a batched Transform,
  /// then clusters and scores against `labels` like Model::Evaluate.
  std::future<StatusOr<api::EvalResult>> SubmitEvaluate(
      const std::string& model_key, linalg::Matrix rows,
      std::vector<int> labels, api::EvalOptions options = {},
      std::shared_ptr<obs::TraceContext> trace = {});

  /// Hot-swaps `model_key` from disk in the shared store: one swap is
  /// seen by every replica. In-flight batches finish on the old instance.
  /// A non-null `trace` receives a "reload" span for the disk read.
  Status Reload(const std::string& model_key,
                obs::TraceContext* trace = nullptr);

  /// The model cache shared by all replicas (pre-loading, in-memory Put).
  ModelStore& store() { return store_; }

  /// The replica every submission for `key` lands on (exposed for tests
  /// and capacity planning): FNV-1a over the key, mod replicas().
  std::size_t ReplicaFor(const std::string& key) const;

  std::size_t replicas() const { return batchers_.size(); }

  /// Unresolved futures currently admitted (0 when unbounded — the
  /// gauge is only maintained when max_inflight_requests is set).
  std::uint64_t inflight_requests() const;

  /// Flushes every replica's pending requests and stops serving;
  /// idempotent. Later submissions fail with kUnavailable.
  void Shutdown();

  /// Aggregated serving counters: the field-wise sum of every replica's
  /// batcher stats plus the shared store's counters.
  /// `batcher.rejected_requests` counts all backpressure rejections,
  /// both per-queue and global.
  ///
  /// Merge semantics (pinned by tests/serve/router_test.cc): counters
  /// and summed totals (total_queue_micros included) ADD across
  /// replicas; max_queue_micros takes the MAX, because the max over the
  /// union of all requests is the max of the per-replica maxes. The
  /// aggregate MeanQueueMicros() therefore comes out of summed totals —
  /// averaging per-replica means would be wrong whenever replicas serve
  /// unequal traffic.
  struct Stats {
    MicroBatcher::Stats batcher;
    ModelStore::Stats store;
  };
  Stats stats() const;

  /// Merged observability snapshot: every replica's registry (queue-wait
  /// / batch-exec histograms merge bucket-wise, counters and gauges sum)
  /// plus the shared store's registry folded in exactly once, plus the
  /// router-level serve_replicas / serve_inflight_requests gauges.
  obs::MetricsSnapshot metrics_snapshot() const;

  /// metrics_snapshot() rendered as Prometheus-style text — the payload
  /// of the `op=stats` serve request and `--stats-every` emission.
  std::string RenderStatsText() const {
    return metrics_snapshot().RenderText();
  }

 private:
  ModelStore store_;
  std::shared_ptr<AdmissionController> admission_;
  std::vector<std::unique_ptr<MicroBatcher>> batchers_;
};

}  // namespace mcirbm::serve

#endif  // MCIRBM_SERVE_ROUTER_H_
