// serve::Router — end-to-end serving over saved artifacts: bit-parity
// with direct Model::Transform / Evaluate at any replica count,
// deterministic key-hash routing, the shared cross-replica ModelStore,
// hot reload, shutdown semantics, and fail-fast admission control (a
// ThreadSanitizer target: the concurrent cases pin bit-parity, rejection
// behavior, and pending-rows settling under TSan).
#include "serve/router.h"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include "api/api.h"
#include "data/synthetic.h"

namespace mcirbm::serve {
namespace {

data::Dataset TestDataset() {
  data::GaussianMixtureSpec spec;
  spec.name = "router";
  spec.num_classes = 2;
  spec.num_instances = 32;
  spec.num_features = 6;
  spec.separation = 6.0;
  return data::GenerateGaussianMixture(spec, 21);
}

api::Model TrainTiny(const linalg::Matrix& x, std::uint64_t seed) {
  core::PipelineConfig config;
  config.model = core::ModelKind::kGrbm;
  config.rbm.num_hidden = 5;
  config.rbm.epochs = 2;
  config.rbm.batch_size = 10;
  auto model = api::Model::Train(x, config, seed);
  EXPECT_TRUE(model.ok()) << model.status().ToString();
  return std::move(model).value();
}

linalg::Matrix RowOf(const linalg::Matrix& x, std::size_t r) {
  linalg::Matrix row(1, x.cols());
  std::memcpy(row.data(), x.data() + r * x.cols(),
              x.cols() * sizeof(double));
  return row;
}

class RouterTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ds_ = TestDataset();
    path_a_ = ::testing::TempDir() + "/router_model_a.mcirbm";
    path_b_ = ::testing::TempDir() + "/router_model_b.mcirbm";
    api::Model model_a = TrainTiny(ds_.x, 33);
    api::Model model_b = TrainTiny(ds_.x, 77);
    reference_a_ = model_a.Transform(ds_.x).value();
    reference_b_ = model_b.Transform(ds_.x).value();
    ASSERT_TRUE(model_a.Save(path_a_).ok());
    ASSERT_TRUE(model_b.Save(path_b_).ok());
  }
  void TearDown() override {
    std::remove(path_a_.c_str());
    std::remove(path_b_.c_str());
  }

  data::Dataset ds_;
  std::string path_a_, path_b_;
  linalg::Matrix reference_a_, reference_b_;
};

// The core guarantee: for the same request stream, a Router with any
// replica count produces feature slices byte-equal to direct
// Model::Transform, loading each artifact from disk exactly once.
TEST_F(RouterTest, AnyReplicaCountIsBitIdenticalToDirectTransform) {
  for (const std::size_t replicas : {1u, 2u, 4u}) {
    RouterConfig config;
    config.replicas = replicas;
    config.batcher.max_batch_rows = 8;
    Router router(config);
    ASSERT_EQ(router.replicas(), replicas);
    // Interleave two models so the key-hash has something to shard.
    std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
    for (std::size_t r = 0; r < ds_.x.rows(); ++r) {
      const std::string& key = (r % 2 == 0) ? path_a_ : path_b_;
      futures.push_back(router.Submit(key, RowOf(ds_.x, r)));
    }
    for (std::size_t r = 0; r < futures.size(); ++r) {
      auto slice = futures[r].get();
      ASSERT_TRUE(slice.ok()) << slice.status().ToString();
      const linalg::Matrix& reference =
          (r % 2 == 0) ? reference_a_ : reference_b_;
      EXPECT_TRUE(slice.value().AllClose(RowOf(reference, r), 0))
          << "row " << r << " diverged at " << replicas << " replicas";
    }
    const Router::Stats stats = router.stats();
    EXPECT_EQ(stats.batcher.requests, ds_.x.rows());
    EXPECT_GE(stats.batcher.batches, 1u);
    // One disk load per artifact, every later submission a cache hit.
    EXPECT_EQ(stats.store.misses, 2u);
    EXPECT_EQ(stats.store.hits, ds_.x.rows() - 2);
  }
}

TEST_F(RouterTest, EvaluateMatchesDirectModelEvaluate) {
  auto model = api::Model::Load(path_a_);
  ASSERT_TRUE(model.ok());
  auto reference = model.value().Evaluate(ds_.x, ds_.labels);
  ASSERT_TRUE(reference.ok());

  Router router;
  auto result = router.SubmitEvaluate(path_a_, ds_.x, ds_.labels).get();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result.value().clusters_found,
            reference.value().clusters_found);
  EXPECT_DOUBLE_EQ(result.value().metrics.accuracy,
                   reference.value().metrics.accuracy);
  EXPECT_DOUBLE_EQ(result.value().metrics.nmi,
                   reference.value().metrics.nmi);
}

TEST_F(RouterTest, UnknownModelFailsFast) {
  Router router;
  auto missing =
      router.Submit(::testing::TempDir() + "/nope.mcirbm", RowOf(ds_.x, 0));
  ASSERT_EQ(missing.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto result = missing.get();
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kIoError);
}

TEST_F(RouterTest, RoutingIsDeterministicAcrossRouterInstances) {
  RouterConfig config;
  config.replicas = 4;
  Router first(config);
  Router second(config);
  for (const std::string& key :
       {path_a_, path_b_, std::string("some/other key.mcirbm")}) {
    EXPECT_LT(first.ReplicaFor(key), 4u);
    EXPECT_EQ(first.ReplicaFor(key), second.ReplicaFor(key));
  }
  // A key always lands on the same replica within one router, too.
  EXPECT_EQ(first.ReplicaFor(path_a_), first.ReplicaFor(path_a_));
}

TEST_F(RouterTest, ReplicasShareOneModelStore) {
  RouterConfig config;
  config.replicas = 4;
  Router router(config);
  // An in-memory Put through the router's store serves whichever replica
  // the key routes to.
  router.store().Put("hot", TrainTiny(ds_.x, 33));
  auto features = router.Submit("hot", RowOf(ds_.x, 2)).get();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_TRUE(features.value().AllClose(RowOf(reference_a_, 2), 0));
  // A disk artifact is loaded exactly once into the shared store.
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 0)).get().ok());
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 1)).get().ok());
  const Router::Stats stats = router.stats();
  EXPECT_EQ(stats.store.misses, 1u);
  EXPECT_GE(stats.store.hits, 1u);
}

TEST_F(RouterTest, ReloadSwapsTheArtifactForEveryReplica) {
  RouterConfig config;
  config.replicas = 2;
  Router router(config);
  auto before = router.Submit(path_a_, RowOf(ds_.x, 0)).get();
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(before.value().AllClose(RowOf(reference_a_, 0), 0));
  // Overwrite the artifact on disk and hot-swap: one Reload through the
  // shared store is seen by all replicas.
  ASSERT_TRUE(TrainTiny(ds_.x, 77).Save(path_a_).ok());
  ASSERT_TRUE(router.Reload(path_a_).ok());
  auto after = router.Submit(path_a_, RowOf(ds_.x, 0)).get();
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(after.value().AllClose(RowOf(reference_b_, 0), 0));
  EXPECT_EQ(router.stats().store.reloads, 1u);
}

TEST_F(RouterTest, ReloadThenShutdownResolvesQueuedAndFreshExactlyOnce) {
  // Hot swap racing shutdown: a request queued against the old instance,
  // a Reload that swaps the artifact, a request on the new instance
  // (sealing the old queue), then an immediate Shutdown. Both futures
  // must resolve exactly once, each on the instance it was submitted
  // against.
  RouterConfig config;
  config.batcher.max_batch_rows = 100;           // only Shutdown flushes
  config.batcher.max_queue_micros = 60'000'000;
  Router router(config);
  auto queued = router.Submit(path_a_, RowOf(ds_.x, 0));
  // Overwrite the artifact on disk with the differently-seeded model so
  // the two instances are distinguishable by their outputs.
  ASSERT_TRUE(TrainTiny(ds_.x, 77).Save(path_a_).ok());
  ASSERT_TRUE(router.Reload(path_a_).ok());
  auto fresh = router.Submit(path_a_, RowOf(ds_.x, 1));
  router.Shutdown();
  auto old_features = queued.get();
  ASSERT_TRUE(old_features.ok()) << old_features.status().ToString();
  EXPECT_TRUE(old_features.value().AllClose(RowOf(reference_a_, 0), 0));
  auto new_features = fresh.get();
  ASSERT_TRUE(new_features.ok()) << new_features.status().ToString();
  EXPECT_TRUE(new_features.value().AllClose(RowOf(reference_b_, 1), 0));
  const Router::Stats stats = router.stats();
  EXPECT_EQ(stats.batcher.batches, 2u);
  EXPECT_EQ(stats.batcher.swap_flushes, 1u);
}

TEST_F(RouterTest, GlobalInflightOverflowRejectsFastWithUnavailable) {
  RouterConfig config;
  config.replicas = 2;
  config.max_inflight_requests = 1;
  config.batcher.max_batch_rows = 100;          // nothing flushes by size
  config.batcher.max_queue_micros = 60'000'000;  // nor by deadline
  Router router(config);
  auto admitted = router.Submit(path_a_, RowOf(ds_.x, 0));
  EXPECT_EQ(router.inflight_requests(), 1u);
  // The second submission must fail immediately — never block, never be
  // dropped silently.
  auto rejected = router.Submit(path_b_, RowOf(ds_.x, 1));
  ASSERT_EQ(rejected.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  auto rejection = rejected.get();
  ASSERT_FALSE(rejection.ok());
  EXPECT_EQ(rejection.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(router.stats().batcher.rejected_requests, 1u);
  // The admitted request is still served, and its completion frees the
  // inflight slot.
  router.Shutdown();
  auto features = admitted.get();
  ASSERT_TRUE(features.ok()) << features.status().ToString();
  EXPECT_TRUE(features.value().AllClose(RowOf(reference_a_, 0), 0));
  for (int spin = 0; spin < 1000 && router.inflight_requests() != 0;
       ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  EXPECT_EQ(router.inflight_requests(), 0u);
}

TEST_F(RouterTest, SubmitAfterShutdownIsUnavailable) {
  RouterConfig config;
  config.replicas = 2;
  Router router(config);
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 0)).get().ok());
  router.Shutdown();
  auto rejected = router.Submit(path_a_, RowOf(ds_.x, 1)).get();
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable);
}

// TSan target: concurrent clients against tight per-queue and global
// bounds. Every future must resolve exactly once — accepted requests
// bit-identical to the reference, rejections fail fast with kUnavailable
// — and the stats must account for every submission.
TEST_F(RouterTest, ConcurrentOverflowNeverBlocksOrDropsRequests) {
  RouterConfig config;
  config.replicas = 2;
  config.max_inflight_requests = 8;
  config.batcher.max_batch_rows = 4;
  config.batcher.max_pending_rows = 4;
  config.batcher.max_queue_micros = 200;
  Router router(config);
  constexpr int kClients = 4;
  constexpr int kPerClient = 50;
  std::vector<std::thread> clients;
  std::vector<std::uint64_t> accepted(kClients, 0);
  std::vector<std::uint64_t> rejected(kClients, 0);
  std::vector<int> errors(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      // Burst-submit the whole batch before draining any future, so the
      // bounds genuinely overflow, then verify every single outcome.
      std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
      futures.reserve(kPerClient);
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t r =
            static_cast<std::size_t>(c * kPerClient + i) % ds_.x.rows();
        const std::string& key = (i % 2 == 0) ? path_a_ : path_b_;
        futures.push_back(router.Submit(key, RowOf(ds_.x, r)));
      }
      for (int i = 0; i < kPerClient; ++i) {
        const std::size_t r =
            static_cast<std::size_t>(c * kPerClient + i) % ds_.x.rows();
        auto result = futures[i].get();
        if (result.ok()) {
          const linalg::Matrix& reference =
              (i % 2 == 0) ? reference_a_ : reference_b_;
          if (!result.value().AllClose(RowOf(reference, r), 0)) ++errors[c];
          ++accepted[c];
        } else if (result.status().code() == StatusCode::kUnavailable) {
          ++rejected[c];
        } else {
          ++errors[c];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  std::uint64_t total_accepted = 0, total_rejected = 0;
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], 0) << "client " << c;
    total_accepted += accepted[c];
    total_rejected += rejected[c];
  }
  EXPECT_EQ(total_accepted + total_rejected,
            static_cast<std::uint64_t>(kClients) * kPerClient);
  const Router::Stats stats = router.stats();
  EXPECT_EQ(stats.batcher.requests, total_accepted);
  EXPECT_EQ(stats.batcher.rejected_requests, total_rejected);
}

// Satellite guarantee: Stats::Add merges counters by SUM, the max by
// MAX, and derived means come from summed totals — never from averaging
// per-replica means. An idle replica must not drag the aggregate mean
// down to half.
TEST(RouterStatsTest, MergeSumsCountersAndRecomputesMeansFromTotals) {
  MicroBatcher::Stats a;
  a.requests = 10;
  a.rows = 40;
  a.batches = 4;
  a.batched_rows = 40;
  a.full_flushes = 3;
  a.deadline_flushes = 1;
  a.swap_flushes = 2;
  a.rejected_requests = 5;
  a.total_queue_micros = 1000.0;
  a.max_queue_micros = 400.0;

  MicroBatcher::Stats b;
  b.requests = 30;
  b.rows = 60;
  b.batches = 2;
  b.batched_rows = 60;
  b.full_flushes = 1;
  b.deadline_flushes = 1;
  b.swap_flushes = 0;
  b.rejected_requests = 7;
  b.total_queue_micros = 9000.0;
  b.max_queue_micros = 250.0;

  MicroBatcher::Stats merged = a;
  merged.Add(b);
  EXPECT_EQ(merged.requests, 40u);
  EXPECT_EQ(merged.rows, 100u);
  EXPECT_EQ(merged.batches, 6u);
  EXPECT_EQ(merged.batched_rows, 100u);
  EXPECT_EQ(merged.full_flushes, 4u);
  EXPECT_EQ(merged.deadline_flushes, 2u);
  EXPECT_EQ(merged.swap_flushes, 2u);
  EXPECT_EQ(merged.rejected_requests, 12u);
  EXPECT_DOUBLE_EQ(merged.total_queue_micros, 10000.0);
  // Max of maxes, not sum.
  EXPECT_DOUBLE_EQ(merged.max_queue_micros, 400.0);
  // Mean from summed totals: 10000 / 40 = 250. Averaging the per-part
  // means ((100 + 300) / 2 = 200) would be wrong — the busier replica
  // must carry more weight.
  EXPECT_DOUBLE_EQ(merged.MeanQueueMicros(), 250.0);
  EXPECT_DOUBLE_EQ(merged.MeanBatchRows(), 100.0 / 6.0);
  // Merging an empty Stats is the identity.
  MicroBatcher::Stats with_idle = merged;
  with_idle.Add(MicroBatcher::Stats{});
  EXPECT_EQ(with_idle.requests, merged.requests);
  EXPECT_DOUBLE_EQ(with_idle.MeanQueueMicros(), merged.MeanQueueMicros());
}

// TSan target: concurrent clients race the flusher threads at one and
// at four replicas. Every result must stay bit-identical to the
// reference.
TEST_F(RouterTest, ConcurrentClientsGetBitIdenticalRows) {
  for (const std::size_t replicas : {1u, 4u}) {
    RouterConfig config;
    config.replicas = replicas;
    config.batcher.max_batch_rows = 8;
    Router router(config);
    constexpr int kClients = 4;
    constexpr int kRounds = 3;
    std::vector<std::thread> clients;
    std::vector<int> mismatches(kClients, 0);
    for (int c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        // Clients 0 and 2 share model a, 1 and 3 share model b.
        const std::string& key = (c % 2 == 0) ? path_a_ : path_b_;
        const linalg::Matrix& reference =
            (c % 2 == 0) ? reference_a_ : reference_b_;
        for (int round = 0; round < kRounds; ++round) {
          std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
          for (std::size_t r = c; r < ds_.x.rows(); r += kClients) {
            futures.push_back(router.Submit(key, RowOf(ds_.x, r)));
          }
          std::size_t r = c;
          for (auto& future : futures) {
            auto slice = future.get();
            if (!slice.ok() ||
                !slice.value().AllClose(RowOf(reference, r), 0)) {
              ++mismatches[c];
            }
            r += kClients;
          }
        }
      });
    }
    for (std::thread& client : clients) client.join();
    for (int c = 0; c < kClients; ++c) {
      EXPECT_EQ(mismatches[c], 0) << "client " << c << " at " << replicas
                                  << " replicas";
    }
    EXPECT_EQ(router.stats().batcher.requests,
              static_cast<std::uint64_t>(kClients * kRounds) *
                  (ds_.x.rows() / kClients));
  }
}

// A batch settles its rows out of the pending-rows gauge before it
// completes any future. So once a client's last future for a key has
// resolved, that key's serve_pending_rows gauge must already read 0 —
// with no wait, at any replica. Each client owns one key; the four keys
// cover both replicas.
TEST_F(RouterTest, PendingRowsGaugeIsZeroOnceAKeysLastFutureResolves) {
  RouterConfig config;
  config.replicas = 2;
  config.batcher.max_batch_rows = 4;
  Router router(config);
  constexpr int kClients = 4;
  constexpr int kRounds = 20;
  std::vector<std::string> keys;
  std::vector<int> used(2, 0);
  for (int c = 0; c < kClients; ++c) {
    keys.push_back("client_" + std::to_string(c));
    router.store().Put(keys.back(), TrainTiny(ds_.x, 33));
    ++used[router.ReplicaFor(keys.back())];
  }
  ASSERT_GT(used[0], 0);
  ASSERT_GT(used[1], 0);
  std::vector<std::thread> clients;
  std::vector<int> errors(kClients, 0);
  std::vector<int> stale_gauges(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      for (int round = 0; round < kRounds; ++round) {
        std::vector<std::future<StatusOr<linalg::Matrix>>> futures;
        for (std::size_t r = 0; r < 10; ++r) {
          futures.push_back(router.Submit(keys[c], RowOf(ds_.x, r)));
        }
        for (auto& future : futures) {
          if (!future.get().ok()) ++errors[c];
        }
        const obs::MetricsSnapshot snap = router.metrics_snapshot();
        if (snap.gauges.at({"serve_pending_rows", keys[c]}) != 0.0) {
          ++stale_gauges[c];
        }
      }
    });
  }
  for (std::thread& client : clients) client.join();
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(errors[c], 0) << "client " << c;
    EXPECT_EQ(stale_gauges[c], 0) << "client " << c;
  }
}

TEST_F(RouterTest, MetricsSnapshotMergesReplicasAndStoreOnce) {
  RouterConfig config;
  config.replicas = 2;
  Router router(config);
  ASSERT_TRUE(router.Submit(path_a_, RowOf(ds_.x, 0)).get().ok());
  ASSERT_TRUE(router.Submit(path_b_, RowOf(ds_.x, 1)).get().ok());
  const obs::MetricsSnapshot snap = router.metrics_snapshot();
  // Per-key request counters from (possibly different) replicas both
  // appear in the merged view.
  EXPECT_EQ((snap.counters.at({"serve_requests_total", path_a_})), 1u);
  EXPECT_EQ((snap.counters.at({"serve_requests_total", path_b_})), 1u);
  // The shared store is folded in exactly once: two distinct artifacts,
  // two misses — not 2 * replicas.
  EXPECT_EQ((snap.counters.at({"store_misses_total", ""})), 2u);
  // Router-level gauges ride along.
  EXPECT_DOUBLE_EQ((snap.gauges.at({"serve_replicas", ""})), 2.0);
  // Queue-wait histograms recorded one observation per request.
  std::uint64_t waits = 0;
  for (const auto& [key, h] : snap.histograms) {
    if (key.first == "serve_queue_wait_micros") waits += h.count;
  }
  EXPECT_EQ(waits, 2u);
  // All drained: the merged pending-rows gauges read 0.
  for (const auto& [key, value] : snap.gauges) {
    if (key.first == "serve_pending_rows") {
      EXPECT_DOUBLE_EQ(value, 0.0) << key.second;
    }
  }
  // The rendered text is grep-able Prometheus form.
  const std::string text = router.RenderStatsText();
  EXPECT_NE(text.find("serve_replicas 2"), std::string::npos) << text;
}

}  // namespace
}  // namespace mcirbm::serve
