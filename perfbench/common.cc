// Report, statistics helpers and the set-up shared by every workload.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <iostream>

#include "bench.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/transforms.h"

namespace perfbench {

using mcirbm::Status;
using mcirbm::StatusOr;

namespace {

// JSON has no infinities: a latency that is +inf (failed requests beyond
// the percentile) prints as 1e300, NaN as 0; either comes with a failed
// check, so the result reads correct=false.
std::string JsonNumber(double v) {
  if (std::isnan(v)) return "0";
  if (std::isinf(v)) return v > 0 ? "1e300" : "-1e300";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.10g", v);
  return buf;
}

}  // namespace

void Report::Add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::Note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

void Report::Note(const std::string& key, double value) {
  notes_.emplace_back(key, JsonNumber(value));
}

bool Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (!ok) {
    ++failed_;
    if (failed_ <= 20) std::cerr << "perfbench: check failed: " << what << "\n";
  }
  return ok;
}

void Report::Print() const {
  for (const auto& [key, value] : notes_) {
    std::cout << "# " << key << "=" << value << "\n";
  }
  std::cout << "{\"correct\": "
            << (failed_ == 0 && attempted_ > 0 ? "true" : "false")
            << ", \"attempted\": " << std::max<long>(attempted_, 1)
            << ", \"failed\": " << (attempted_ > 0 ? failed_ : 1)
            << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    if (i > 0) std::cout << ", ";
    std::cout << "\"" << metrics_[i].name << "\": {\"value\": "
              << JsonNumber(metrics_[i].value) << ", \"unit\": \""
              << metrics_[i].unit << "\"}";
  }
  std::cout << "}}" << std::endl;
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  if (!std::isfinite(v[hi])) return v[hi];
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

void ServeStack::Stop() {
  if (server != nullptr) server->Drain();
  if (router != nullptr) router->Shutdown();
  server.reset();
  executor.reset();
  router.reset();
}

StatusOr<std::unique_ptr<ServeStack>> StartServeStack(
    std::uint64_t trace_every) {
  // `mcirbm_cli serve --listen 0` defaults: one replica, key-hash
  // routing, 64-row batches, 200 us queue deadline, store capacity 8, no
  // admission bounds, 4 handler threads, tracing off.
  mcirbm::serve::RouterConfig config;
  config.batcher.max_batch_rows = 64;
  config.batcher.max_queue_micros = 200;
  config.store_capacity = 8;
  auto stack = std::make_unique<ServeStack>();
  stack->router = std::make_unique<mcirbm::serve::Router>(config);
  mcirbm::serve::ExecutorConfig executor_config;
  if (trace_every > 0) {
    mcirbm::obs::TraceConfig trace_config;
    trace_config.sample_every_n = trace_every;
    trace_config.capacity = 1 << 16;
    executor_config.trace_store =
        std::make_shared<mcirbm::obs::TraceStore>(trace_config);
  }
  stack->executor = std::make_unique<mcirbm::serve::RequestExecutor>(
      stack->router.get(), executor_config);
  mcirbm::net::LineServerConfig net_config;
  net_config.port = 0;
  net_config.handler_threads = 4;
  stack->server = std::make_unique<mcirbm::net::LineServer>(
      net_config, stack->executor.get());
  stack->executor->AddStatsRegistry(&stack->server->registry());
  const Status started = stack->server->Start();
  if (!started.ok()) return started;
  return stack;
}

StatusOr<std::unique_ptr<Fixture>> SetUp(const std::string& dir) {
  auto fixture = std::make_unique<Fixture>();
  const std::string data_spec = "synth:msra:0";
  fixture->model_path = dir + "/encoder.mcirbm";

  // The served encoder: the paper's sls-GRBM at MSRA shape, trained
  // briefly with one k-means voter (its quality is not measured).
  auto spec = mcirbm::api::ParsePipelineSpec(
      "model = sls-grbm\n"
      "data = " + data_spec + "\n"
      "rbm.epochs = 5\n"
      "supervision.voters = kmeans\n"
      "seed = 7\n"
      "out.model = " + fixture->model_path + "\n");
  if (!spec.ok()) return spec.status();
  auto run = mcirbm::api::RunPipeline(spec.value());
  if (!run.ok()) return run.status();

  // Served files hold standardized rows, the encoder's input space.
  mcirbm::data::DataSourceConfig source_config;
  source_config.synth_seed = spec.value().seed;
  auto loaded = mcirbm::data::LoadDataset(data_spec, source_config);
  if (!loaded.ok()) return loaded.status();
  mcirbm::data::Dataset ds = std::move(loaded).value();
  mcirbm::data::StandardizeInPlace(&ds.x);
  fixture->bulk_file = dir + "/bulk.csv";
  Status saved = mcirbm::data::SaveDatasetCsv(ds, fixture->bulk_file);
  if (!saved.ok()) return saved;
  mcirbm::data::Dataset probe = ds;
  probe.x.Resize(kProbeRows, ds.x.cols());
  std::copy_n(ds.x.data(), probe.x.size(), probe.x.data());
  probe.labels.resize(kProbeRows);
  fixture->probe_file = dir + "/probe.csv";
  saved = mcirbm::data::SaveDatasetCsv(probe, fixture->probe_file);
  if (!saved.ok()) return saved;

  auto stack = StartServeStack(0);
  if (!stack.ok()) return stack.status();
  fixture->stack = std::move(stack).value();
  return fixture;
}

}  // namespace perfbench
