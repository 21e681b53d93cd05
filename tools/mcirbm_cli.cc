// mcirbm_cli — command-line front end for the library, built on the
// src/api facade (registries, api::Model, api::ParseConfig).
//
// Subcommands:
//   synth      generate one of the paper-equivalent synthetic datasets
//   dataset    convert between dataset formats (csv/libsvm/synth -> the
//              mmap-able mcirbm-data v1 binary, or back to csv) and
//              inspect a source's shape without loading it
//   select-k   label-free choice of the cluster count (silhouette sweep)
//   supervise  report the multi-clustering consensus for a dataset
//   train      train an encoder (rbm|grbm|sls-rbm|sls-grbm) on a dataset
//   transform  map a dataset through a saved encoder, write feature CSV
//   eval       cluster a dataset (optionally through a saved encoder) and
//              print the paper's external metrics against the labels
//   pipeline   one-shot load -> supervise -> train -> eval from a
//              key=value config file
//   serve      long-lived micro-batching inference service: stream
//              newline-delimited key=value requests (see serve/request.h)
//              from a file or stdin and print one response line each
//
// Every --data flag takes a loader spec (data/loaders.h): a path whose
// format is inferred (.csv, .libsvm/.svm, .bin/.mcd, else magic-sniffed)
// or an explicit "csv:", "bin:", "libsvm:", "synth:<family>:<index>"
// form. CSV means numeric feature columns with a trailing integer label
// column (header row required), as written by `synth` / data/io.h.
//
// Examples (an indented line continues the command above it):
//   mcirbm_cli synth --family msra --index 8 --out vt.csv
//   mcirbm_cli dataset convert --in vt.csv --out vt.bin
//   mcirbm_cli train --data vt.bin --model sls-grbm --standardize
//       --out vt_model.txt
//   mcirbm_cli eval --data vt.bin --model-file vt_model.txt
//       --standardize --clusterer kmeans
//   mcirbm_cli pipeline --config run.cfg
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <initializer_list>
#include <iostream>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.h"
#include "net/net.h"
#include "serve/serve.h"
#include "core/model_selection.h"
#include "eval/experiment.h"
#include "data/binary_io.h"
#include "data/io.h"
#include "data/loaders.h"
#include "data/paper_datasets.h"
#include "data/transforms.h"
#include "metrics/external.h"
#include "parallel/thread_pool.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

using namespace mcirbm;  // NOLINT: CLI driver

// --flag parser: accepts `--key value` and `--key=value`; flags without
// '--' are positional (rejected). Unknown flags are rejected per
// subcommand via Validate. Storage and typed access delegate to ParamMap
// so flag values share the registry factories' parsing rules.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i < argc; ++i) {
      std::string arg = argv[i];
      if (arg.rfind("--", 0) != 0) {
        status_ = Status::InvalidArgument("unexpected positional argument '" +
                                          arg + "'");
        return;
      }
      std::string key = arg.substr(2);
      const std::size_t eq = key.find('=');
      if (eq != std::string::npos) {
        values_.Set(key.substr(0, eq), key.substr(eq + 1));
      } else if (i + 1 < argc &&
                 std::string(argv[i + 1]).rfind("--", 0) != 0) {
        values_.Set(key, argv[++i]);
      } else {
        // Valueless flag. The empty sentinel keeps Has() working for
        // boolean flags while making GetInt/GetDouble reject a numeric
        // flag whose value was forgotten (e.g. `--threads --seed 7`).
        values_.Set(key, "");
      }
    }
  }

  const Status& status() const { return status_; }

  /// Non-OK when any parsed flag is outside `allowed` — every subcommand
  /// declares its vocabulary, so a typo fails loudly instead of being
  /// silently ignored.
  Status Validate(std::initializer_list<const char*> allowed) const {
    if (!status_.ok()) return status_;
    return values_.ExpectOnly(allowed);
  }

  bool Has(const std::string& key) const { return values_.Has(key); }
  std::string Get(const std::string& key, const std::string& fallback = "")
      const {
    return values_.GetString(key, fallback).value();
  }
  int GetInt(const std::string& key, int fallback) const {
    auto v = values_.GetInt(key, fallback);
    if (!v.ok()) {
      std::cerr << "error: flag --" << key << " expects an integer, got '"
                << Get(key) << "'\n";
      std::exit(2);
    }
    return v.value();
  }
  double GetDouble(const std::string& key, double fallback) const {
    auto v = values_.GetDouble(key, fallback);
    if (!v.ok()) {
      std::cerr << "error: flag --" << key << " expects a number, got '"
                << Get(key) << "'\n";
      std::exit(2);
    }
    return v.value();
  }

 private:
  ParamMap values_;
  Status status_;
};

int Fail(const std::string& message) {
  std::cerr << "error: " << message << "\n";
  return 1;
}

int Fail(const Status& status) { return Fail(status.ToString()); }

// Loads --data through the loader registry: any path (csv, mcirbm-data
// binary, libsvm — inferred by extension/magic) or an explicit
// "scheme:rest" spec, including "synth:<family>:<index>[:<seed>]".
StatusOr<data::Dataset> LoadCliDataset(const Args& args,
                                       const std::string& spec) {
  data::DataSourceConfig config;
  config.synth_seed = static_cast<std::uint64_t>(args.GetInt("seed", 7));
  return data::LoadDataset(spec, config);
}

// Applies the representation flags to `x` in the documented order.
void ApplyTransforms(const Args& args, linalg::Matrix* x) {
  if (args.Has("standardize")) data::StandardizeInPlace(x);
  if (args.Has("minmax")) data::MinMaxScaleInPlace(x);
  if (args.Has("binarize")) {
    data::MinMaxScaleInPlace(x);
    data::BinarizeAtColumnMeanInPlace(x);
  }
}

void PrintMetrics(const metrics::MetricBundle& m) {
  std::cout << "accuracy " << FormatDouble(m.accuracy, 4) << "  purity "
            << FormatDouble(m.purity, 4) << "  rand "
            << FormatDouble(m.rand_index, 4) << "  FMI "
            << FormatDouble(m.fmi, 4) << "  ARI "
            << FormatDouble(m.ari, 4) << "  NMI "
            << FormatDouble(m.nmi, 4) << "\n";
}

int RunSynth(const Args& args) {
  const Status valid = args.Validate(
      {"family", "index", "out", "seed", "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string family = args.Get("family", "msra");
  const int index = args.GetInt("index", 0);
  const std::string out = args.Get("out");
  if (out.empty()) return Fail("synth needs --out <csv>");
  const std::uint64_t seed = args.GetInt("seed", 7);

  data::Dataset ds;
  if (family == "msra") {
    if (index < 0 || index >= data::NumMsraDatasets()) {
      return Fail("msra index out of range");
    }
    ds = data::GenerateMsraLike(index, seed);
  } else if (family == "uci") {
    if (index < 0 || index >= data::NumUciDatasets()) {
      return Fail("uci index out of range");
    }
    ds = data::GenerateUciLike(index, seed);
  } else {
    return Fail("unknown family '" + family + "' (msra|uci)");
  }
  const Status status = data::SaveDatasetCsv(ds, out);
  if (!status.ok()) return Fail(status);
  std::cout << "wrote " << ds.name << ": " << ds.num_instances() << " x "
            << ds.num_features() << " (+label) to " << out << "\n";
  return 0;
}

int RunSelectK(const Args& args) {
  const Status valid = args.Validate({"data", "kmin", "kmax", "seed",
                                      "standardize", "minmax", "binarize",
                                      "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string path = args.Get("data");
  if (path.empty()) return Fail("select-k needs --data <csv>");
  auto loaded = LoadCliDataset(args, path);
  if (!loaded.ok()) return Fail(loaded.status());
  data::Dataset ds = std::move(loaded).value();
  ApplyTransforms(args, &ds.x);
  const int k_min = args.GetInt("kmin", 2);
  const int k_max = args.GetInt("kmax", 8);
  const auto selection = core::SelectNumClusters(
      ds.x, k_min, k_max, args.GetInt("seed", 7));
  std::cout << "k   silhouette\n";
  for (const auto& candidate : selection.candidates) {
    std::cout << candidate.k << "   "
              << FormatDouble(candidate.silhouette, 4)
              << (candidate.k == selection.best_k ? "   <- selected" : "")
              << "\n";
  }
  return 0;
}

int RunSupervise(const Args& args) {
  const Status valid = args.Validate(
      {"data", "clusters", "strategy", "voters", "seed", "standardize",
       "minmax", "binarize", "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string path = args.Get("data");
  if (path.empty()) return Fail("supervise needs --data <csv>");
  auto loaded = LoadCliDataset(args, path);
  if (!loaded.ok()) return Fail(loaded.status());
  data::Dataset ds = std::move(loaded).value();
  ApplyTransforms(args, &ds.x);

  core::SupervisionConfig config;
  config.num_clusters = args.GetInt("clusters", ds.num_classes);
  if (args.Has("voters")) {
    auto voters = core::ParseVoterList(args.Get("voters"));
    if (!voters.ok()) return Fail(voters.status());
    config.voters = std::move(voters).value();
  }
  if (args.Get("strategy", "unanimous") == "majority") {
    config.strategy = voting::VoteStrategy::kMajority;
  }
  auto sup = core::TryComputeSelfLearningSupervision(
      ds.x, config, args.GetInt("seed", 7));
  if (!sup.ok()) return Fail(sup.status());
  std::cout << "consensus: " << sup.value().num_clusters
            << " credible clusters, " << sup.value().NumCredible() << "/"
            << ds.num_instances() << " instances (coverage "
            << FormatDouble(sup.value().Coverage(), 3) << ")\n";
  return 0;
}

int RunTrain(const Args& args) {
  const Status valid = args.Validate(
      {"data", "out", "model", "config", "hidden", "epochs", "lr", "eta",
       "scale", "clusters", "seed", "standardize", "minmax", "binarize",
       "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string path = args.Get("data");
  const std::string out = args.Get("out");
  if (path.empty() || out.empty()) {
    return Fail("train needs --data <csv> and --out <path>");
  }
  auto kind = api::ModelKindFromName(args.Get("model", "sls-grbm"));
  if (!kind.ok()) return Fail(kind.status());
  core::ModelKind model_kind = kind.value();

  std::string config_text;
  if (args.Has("config")) {
    auto text = ReadFileToString(args.Get("config"));
    if (!text.ok()) return Fail(text.status());
    config_text = std::move(text).value();
    // A `model` key in the file overrides --model, and — matching
    // ParsePipelineSpec — it must be resolved *before* the paper-family
    // base hyper-parameters are chosen, or an sls-rbm configured via the
    // file would silently train with GRBM-family defaults.
    core::PipelineConfig probe;
    probe.model = model_kind;
    auto probed = api::ParseConfig(config_text, probe);
    if (!probed.ok()) return Fail(probed.status());
    model_kind = probed.value().model;
  }

  auto loaded = LoadCliDataset(args, path);
  if (!loaded.ok()) return Fail(loaded.status());
  data::Dataset ds = std::move(loaded).value();
  ApplyTransforms(args, &ds.x);

  const bool grbm_family = model_kind == core::ModelKind::kGrbm ||
                           model_kind == core::ModelKind::kSlsGrbm;
  const eval::ExperimentConfig paper = eval::MakePaperConfig(grbm_family);
  core::PipelineConfig config;
  config.model = model_kind;
  config.rbm = paper.rbm;
  config.sls = paper.sls;
  config.supervision = paper.supervision;
  config.rbm.num_hidden = args.GetInt("hidden", paper.rbm.num_hidden);
  config.rbm.epochs = args.GetInt("epochs", paper.rbm.epochs);
  config.rbm.learning_rate = args.GetDouble("lr", paper.rbm.learning_rate);
  config.sls.eta = args.GetDouble("eta", paper.sls.eta);
  config.sls.supervision_scale =
      args.GetDouble("scale", paper.sls.supervision_scale);
  config.supervision.num_clusters =
      args.GetInt("clusters", ds.num_classes);
  if (args.Has("config")) {
    // Key=value file over the flag-derived base; file keys win.
    auto parsed = api::ParseConfig(config_text, config);
    if (!parsed.ok()) return Fail(parsed.status());
    config = std::move(parsed).value();
  }

  auto model = api::Model::Train(ds.x, config, args.GetInt("seed", 7));
  if (!model.ok()) return Fail(model.status());
  std::cout << "trained " << model.value().kind()
            << "; final reconstruction error "
            << FormatDouble(model.value().final_reconstruction_error(), 4)
            << "\n";
  if (config.model == core::ModelKind::kSlsRbm ||
      config.model == core::ModelKind::kSlsGrbm) {
    const auto& sup = model.value().supervision();
    std::cout << "supervision coverage "
              << FormatDouble(sup.Coverage(), 3) << " (" << sup.num_clusters
              << " credible clusters)\n";
  }
  const Status status = model.value().Save(out);
  if (!status.ok()) return Fail(status);
  std::cout << "saved model to " << out << "\n";
  return 0;
}

int RunTransform(const Args& args) {
  const Status valid = args.Validate(
      {"data", "model-file", "out", "standardize", "minmax", "binarize",
       "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string path = args.Get("data");
  const std::string model_path = args.Get("model-file");
  const std::string out = args.Get("out");
  if (path.empty() || model_path.empty() || out.empty()) {
    return Fail("transform needs --data, --model-file and --out");
  }
  auto loaded = LoadCliDataset(args, path);
  if (!loaded.ok()) return Fail(loaded.status());
  data::Dataset ds = std::move(loaded).value();
  ApplyTransforms(args, &ds.x);

  auto model = api::Model::Load(model_path);
  if (!model.ok()) return Fail(model.status());
  auto hidden = model.value().Transform(ds.x);
  if (!hidden.ok()) return Fail(hidden.status());

  data::Dataset features = ds;
  features.x = std::move(hidden).value();
  features.name = ds.name + ":hidden";
  const Status status = data::SaveDatasetCsv(features, out);
  if (!status.ok()) return Fail(status);
  std::cout << "wrote " << features.x.rows() << " x " << features.x.cols()
            << " hidden features (+label) to " << out << "\n";
  return 0;
}

int RunEval(const Args& args) {
  const Status valid = args.Validate(
      {"data", "model-file", "clusterer", "k", "seed", "standardize",
       "minmax", "binarize", "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string path = args.Get("data");
  if (path.empty()) return Fail("eval needs --data <csv>");
  auto loaded = LoadCliDataset(args, path);
  if (!loaded.ok()) return Fail(loaded.status());
  data::Dataset ds = std::move(loaded).value();
  linalg::Matrix x = ds.x;
  ApplyTransforms(args, &x);

  if (args.Has("model-file")) {
    auto model = api::Model::Load(args.Get("model-file"));
    if (!model.ok()) return Fail(model.status());
    auto hidden = model.value().Transform(x);
    if (!hidden.ok()) return Fail(hidden.status());
    x = std::move(hidden).value();
  }

  // Any registered clusterer works here, not just the paper's three.
  const std::string clusterer_name = args.Get("clusterer", "kmeans");
  const int k = args.GetInt("k", ds.num_classes);
  ParamMap params;
  params.Set("k", std::to_string(k));
  auto clusterer = clustering::ClustererRegistry::Global().Create(
      clusterer_name, params);
  if (!clusterer.ok()) return Fail(clusterer.status());
  const auto result = clusterer.value()->Cluster(x, args.GetInt("seed", 7));
  const auto m = metrics::ComputeAll(ds.labels, result.assignment);
  std::cout << "clusterer " << clusterer_name << ", k=" << k << ", "
            << result.num_clusters << " clusters found\n";
  PrintMetrics(m);
  return 0;
}

int RunPipeline(const Args& args) {
  const Status valid = args.Validate(
      {"config", "data", "model-out", "features-out", "seed", "threads"});
  if (!valid.ok()) return Fail(valid);
  const std::string config_path = args.Get("config");
  if (config_path.empty()) return Fail("pipeline needs --config <file>");
  auto spec_or = api::ParsePipelineSpecFile(config_path);
  if (!spec_or.ok()) return Fail(spec_or.status());
  api::PipelineSpec spec = std::move(spec_or).value();
  // Flag overrides for the run-specific bits of the spec.
  if (args.Has("data")) {
    spec.data_spec = args.Get("data");
    spec.data_path.clear();
    spec.data_family.clear();
  }
  if (args.Has("model-out")) spec.model_out = args.Get("model-out");
  if (args.Has("features-out")) spec.features_out = args.Get("features-out");
  if (args.Has("seed")) spec.seed = args.GetInt("seed", 7);

  auto summary_or = api::RunPipeline(spec);
  if (!summary_or.ok()) return Fail(summary_or.status());
  const api::PipelineRunSummary& summary = summary_or.value();
  std::cout << "dataset " << summary.dataset_name << ": "
            << summary.instances << " x " << summary.features << "\n";
  std::cout << "model " << summary.model.kind()
            << "; final reconstruction error "
            << FormatDouble(summary.reconstruction_error, 4) << "\n";
  if (summary.supervision_clusters > 0) {
    std::cout << "supervision coverage "
              << FormatDouble(summary.supervision_coverage, 3) << " ("
              << summary.supervision_clusters << " credible clusters)\n";
  }
  if (!spec.model_out.empty()) {
    std::cout << "saved model to " << spec.model_out << "\n";
  }
  if (!spec.features_out.empty()) {
    std::cout << "saved hidden features to " << spec.features_out << "\n";
  }
  if (spec.eval_clusterer != "none") {
    std::cout << "eval (" << spec.eval_clusterer << ", k=" << summary.eval_k
              << ")\n";
    std::cout << "  raw:     ";
    PrintMetrics(summary.raw_metrics);
    std::cout << "  hidden:  ";
    PrintMetrics(summary.hidden_metrics);
  }
  return 0;
}

// dataset convert: stream any loader spec into the mcirbm-data v1 binary
// artifact (or, with a .csv output, back to CSV) without materializing
// the source. dataset info: print the source's shape without loading it.
int RunDatasetCommand(int argc, char** argv) {
  if (argc < 3) {
    return Fail("dataset needs an action: convert|info");
  }
  const std::string action = argv[2];
  // Shift argv so Args' "flags start at index 2" convention sees the
  // flags after the action word.
  const Args args(argc - 1, argv + 1);
  if (!args.status().ok()) return Fail(args.status());

  if (action == "info") {
    const Status valid = args.Validate({"in", "seed"});
    if (!valid.ok()) return Fail(valid);
    const std::string in = args.Get("in");
    if (in.empty()) return Fail("dataset info needs --in <spec>");
    data::DataSourceConfig config;
    config.synth_seed = static_cast<std::uint64_t>(args.GetInt("seed", 7));
    auto source = data::OpenDataSource(in, config);
    if (!source.ok()) return Fail(source.status());
    std::cout << "name " << source.value()->name() << "\n"
              << "rows " << source.value()->rows() << "\n"
              << "cols " << source.value()->cols() << "\n"
              << "classes " << source.value()->num_classes() << "\n"
              << "random_access "
              << (source.value()->SupportsRandomAccess() ? "yes" : "no")
              << "\n";
    return 0;
  }
  if (action != "convert") {
    return Fail("unknown dataset action '" + action +
                "' (expected convert|info)");
  }

  const Status valid = args.Validate({"in", "out", "chunk-rows", "seed"});
  if (!valid.ok()) return Fail(valid);
  const std::string in = args.Get("in");
  const std::string out = args.Get("out");
  if (in.empty() || out.empty()) {
    return Fail("dataset convert needs --in <spec> and --out <path>");
  }
  const int chunk_rows = args.GetInt("chunk-rows", 4096);
  if (chunk_rows < 1) return Fail("--chunk-rows must be >= 1");

  data::DataSourceConfig config;
  config.max_resident_rows = static_cast<std::size_t>(chunk_rows);
  config.synth_seed = static_cast<std::uint64_t>(args.GetInt("seed", 7));
  auto source = data::OpenDataSource(in, config);
  if (!source.ok()) return Fail(source.status());

  const bool to_csv =
      out.size() >= 4 && out.compare(out.size() - 4, 4, ".csv") == 0;
  if (to_csv) {
    // CSV output materializes (the label column interleaves with rows,
    // and SaveDatasetCsv already streams the write side).
    auto dataset = source.value()->Materialize();
    if (!dataset.ok()) return Fail(dataset.status());
    const Status saved = data::SaveDatasetCsv(dataset.value(), out);
    if (!saved.ok()) return Fail(saved);
  } else {
    const Status saved = data::ConvertSourceToBinary(*source.value(), out);
    if (!saved.ok()) return Fail(saved);
  }
  std::cout << "converted " << source.value()->name() << " ("
            << source.value()->rows() << " x " << source.value()->cols()
            << ", " << source.value()->num_classes() << " classes) to "
            << (to_csv ? "csv " : "mcirbm-data v1 ") << out << "\n";
  return 0;
}

// SIGINT/SIGTERM request a graceful drain of the serve subcommand: stop
// taking new requests, finish and flush everything in flight, print the
// final stats, exit 0. Installed WITHOUT SA_RESTART so a getline blocked
// on stdin returns with EINTR and the file-mode loop notices the flag.
volatile std::sig_atomic_t g_serve_shutdown = 0;

extern "C" void HandleServeSignal(int) { g_serve_shutdown = 1; }

void InstallServeSignalHandlers() {
  struct sigaction action {};
  action.sa_handler = HandleServeSignal;
  sigemptyset(&action.sa_mask);
  action.sa_flags = 0;  // no SA_RESTART: unblock reads on signal
  ::sigaction(SIGINT, &action, nullptr);
  ::sigaction(SIGTERM, &action, nullptr);
}

// Raw-fd line reader for the serve request stream. istream::getline is
// unusable here: libstdc++ retries ::read on EINTR internally, so a
// loop blocked on stdin would never observe a drain signal. A direct
// ::read returns EINTR (the handlers install without SA_RESTART), and
// Next() turns that into a clean end-of-stream when the flag is up.
class ServeLineReader {
 public:
  explicit ServeLineReader(int fd) : fd_(fd) {}

  /// False on EOF, read error, or drain signal; a final unterminated
  /// line still comes through before EOF reports.
  bool Next(std::string* line) {
    for (;;) {
      const std::size_t pos = buffer_.find('\n');
      if (pos != std::string::npos) {
        line->assign(buffer_, 0, pos);
        buffer_.erase(0, pos + 1);
        return true;
      }
      if (eof_) {
        if (buffer_.empty()) return false;
        line->assign(buffer_);
        buffer_.clear();
        return true;
      }
      char chunk[4096];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n > 0) {
        buffer_.append(chunk, static_cast<std::size_t>(n));
      } else if (n == 0) {
        eof_ = true;
      } else if (errno != EINTR || g_serve_shutdown != 0) {
        return false;
      }
    }
  }

 private:
  const int fd_;
  std::string buffer_;
  bool eof_ = false;
};

// The '# ' comment-channel stats snapshot (periodic --stats-every
// emissions and the final drain report), serialized so concurrent
// network handlers cannot interleave lines.
void PrintCommentedStats(const serve::RequestExecutor& executor,
                         std::mutex* stdout_mu) {
  std::istringstream rendered(executor.RenderStatsText());
  std::string metric_line;
  std::lock_guard<std::mutex> lock(*stdout_mu);
  while (std::getline(rendered, metric_line)) {
    std::cout << "# " << metric_line << "\n";
  }
  std::cout << std::flush;
}

// The complete end-of-serve counter line, agreeing field-for-field with
// the op=stats registry surface (requests/rejected/batches plus every
// flush-trigger and store counter — nothing summarized away).
void PrintServeSummary(const serve::Router& server, std::uint64_t served,
                       std::uint64_t failures) {
  const serve::Router::Stats stats = server.stats();
  std::cout << "# served=" << served << " failed=" << failures
            << " replicas=" << server.replicas()
            << " requests=" << stats.batcher.requests
            << " rejected=" << stats.batcher.rejected_requests
            << " batches=" << stats.batcher.batches
            << " full_flushes=" << stats.batcher.full_flushes
            << " deadline_flushes=" << stats.batcher.deadline_flushes
            << " swap_flushes=" << stats.batcher.swap_flushes
            << " mean_batch_rows="
            << FormatDouble(stats.batcher.MeanBatchRows(), 2)
            << " mean_queue_micros="
            << FormatDouble(stats.batcher.MeanQueueMicros(), 1)
            << " store_hits=" << stats.store.hits
            << " store_misses=" << stats.store.misses
            << " store_reloads=" << stats.store.reloads
            << " store_evictions=" << stats.store.evictions << std::endl;
}

// serve --listen: hand the request stream to the TCP transport and park
// until a shutdown signal, then drain in order (transport first, so
// every in-flight request resolves through the router before it stops).
int RunServeListen(serve::Router* server, serve::RequestExecutor* executor,
                   net::TextEndpoint* stats_endpoint, int listen_port,
                   int handler_threads, int stats_every,
                   std::mutex* stdout_mu) {
  net::LineServerConfig net_config;
  net_config.port = listen_port;
  net_config.handler_threads = handler_threads;
  net::LineServer transport(net_config, executor);
  executor->AddStatsRegistry(&transport.registry());
  if (stats_every > 0) {
    transport.set_response_hook(
        [executor, stats_every, stdout_mu](std::uint64_t responses) {
          if (responses % static_cast<std::uint64_t>(stats_every) == 0) {
            PrintCommentedStats(*executor, stdout_mu);
          }
        });
  }
  const Status started = transport.Start();
  if (!started.ok()) return Fail(started);
  {
    std::lock_guard<std::mutex> lock(*stdout_mu);
    std::cout << "# listening port=" << transport.port()
              << " replicas=" << server->replicas() << std::endl;
  }
  while (g_serve_shutdown == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  transport.Drain();
  if (stats_endpoint != nullptr) stats_endpoint->Stop();
  // Everything is flushed; the final snapshot (pending gauges now zero)
  // and summary go out before the router stops.
  PrintCommentedStats(*executor, stdout_mu);
  PrintServeSummary(*server, transport.ok_responses(),
                    transport.error_responses());
  server->Shutdown();
  return 0;
}

int RunServe(const Args& args) {
  const Status valid = args.Validate({"requests", "max-batch-rows",
                                      "max-queue-micros", "store-capacity",
                                      "replicas", "max-pending",
                                      "max-inflight", "stats-every",
                                      "listen",
                                      "handler-threads", "stats-port",
                                      "trace-sample", "trace-jsonl",
                                      "threads"});
  if (!valid.ok()) return Fail(valid);
  serve::RouterConfig config;
  const int max_batch_rows = args.GetInt("max-batch-rows", 64);
  const int max_queue_micros = args.GetInt("max-queue-micros", 200);
  const int store_capacity = args.GetInt("store-capacity", 8);
  const int replicas = args.GetInt("replicas", 1);
  const int max_pending = args.GetInt("max-pending", 0);
  const int max_inflight = args.GetInt("max-inflight", 0);
  const int stats_every = args.GetInt("stats-every", 0);
  if (max_batch_rows < 1) return Fail("--max-batch-rows must be >= 1");
  if (max_queue_micros < 0) return Fail("--max-queue-micros must be >= 0");
  if (store_capacity < 1) return Fail("--store-capacity must be >= 1");
  if (replicas < 1) return Fail("--replicas must be >= 1");
  if (max_pending < 0) return Fail("--max-pending must be >= 0");
  if (max_inflight < 0) return Fail("--max-inflight must be >= 0");
  if (stats_every < 0) return Fail("--stats-every must be >= 0");
  config.batcher.max_batch_rows =
      static_cast<std::size_t>(max_batch_rows);
  config.batcher.max_queue_micros = max_queue_micros;
  config.batcher.max_pending_rows = static_cast<std::size_t>(max_pending);
  config.store_capacity = static_cast<std::size_t>(store_capacity);
  config.replicas = static_cast<std::size_t>(replicas);
  config.max_inflight_requests =
      static_cast<std::uint64_t>(max_inflight);

  const int listen_port = args.GetInt("listen", -1);
  const int handler_threads = args.GetInt("handler-threads", 4);
  const int stats_port = args.GetInt("stats-port", -1);
  const int trace_sample = args.GetInt("trace-sample", 0);
  const std::string trace_jsonl = args.Get("trace-jsonl", "");
  if (trace_sample < 0) return Fail("--trace-sample must be >= 0");
  if (!trace_jsonl.empty() && trace_sample == 0) {
    return Fail("--trace-jsonl needs --trace-sample N >= 1");
  }
  if (args.Has("listen") && (listen_port < 0 || listen_port > 65535)) {
    return Fail("--listen must be a port in [0, 65535] (0 = ephemeral)");
  }
  if (args.Has("stats-port") && (stats_port < 0 || stats_port > 65535)) {
    return Fail("--stats-port must be a port in [0, 65535] (0 = ephemeral)");
  }
  if (handler_threads < 1) return Fail("--handler-threads must be >= 1");
  if (args.Has("listen") && args.Has("requests")) {
    return Fail("--listen replaces the request stream; drop --requests");
  }

  int request_fd = 0;  // stdin
  const std::string requests_path = args.Get("requests", "-");
  if (!args.Has("listen") && requests_path != "-") {
    request_fd = ::open(requests_path.c_str(), O_RDONLY);
    if (request_fd < 0) {
      return Fail("cannot open request file " + requests_path);
    }
  }

  InstallServeSignalHandlers();
  serve::Router server(config);
  // --trace-sample N: every Nth request carries a span timeline
  // (obs/trace.h), queryable via op=trace and the --stats-port body;
  // --trace-jsonl additionally streams each completed trace as one JSON
  // line. The sink runs under the store's commit lock, so the plain
  // ofstream needs no extra synchronization.
  serve::ExecutorConfig executor_config;
  std::shared_ptr<std::ofstream> trace_jsonl_out;
  if (trace_sample > 0) {
    obs::TraceConfig trace_config;
    trace_config.sample_every_n = static_cast<std::uint64_t>(trace_sample);
    executor_config.trace_store =
        std::make_shared<obs::TraceStore>(trace_config);
    if (!trace_jsonl.empty()) {
      trace_jsonl_out =
          std::make_shared<std::ofstream>(trace_jsonl, std::ios::trunc);
      if (!*trace_jsonl_out) {
        return Fail("cannot open trace file " + trace_jsonl);
      }
      executor_config.trace_store->SetJsonlSink(
          [trace_jsonl_out](const std::string& json_line) {
            *trace_jsonl_out << json_line << '\n';
            trace_jsonl_out->flush();  // tail-able; complete on SIGTERM
          });
    }
  }
  serve::RequestExecutor executor(&server, executor_config);
  std::mutex stdout_mu;

  // --stats-port: a standalone read-only observability endpoint — every
  // connection receives the current metrics snapshot as text, then is
  // closed. Available in both listen and file/stdin modes.
  std::unique_ptr<net::TextEndpoint> stats_endpoint;
  if (args.Has("stats-port")) {
    stats_endpoint = std::make_unique<net::TextEndpoint>(
        "127.0.0.1", stats_port,
        [&executor] { return executor.RenderStatsAndTracesText(); });
    const Status started = stats_endpoint->Start();
    if (!started.ok()) return Fail(started);
    std::cout << "# stats port=" << stats_endpoint->port() << std::endl;
  }

  if (args.Has("listen")) {
    return RunServeListen(&server, &executor, stats_endpoint.get(),
                          listen_port, handler_threads, stats_every,
                          &stdout_mu);
  }

  ServeLineReader reader(request_fd);
  std::string line;
  int line_no = 0;
  std::uint64_t served = 0;
  std::uint64_t failures = 0;
  // A shutdown signal breaks the loop (the reader surfaces EINTR);
  // every request already answered stays answered, and the final stats
  // still print — the same drain contract as --listen.
  while (g_serve_shutdown == 0 && reader.Next(&line)) {
    ++line_no;
    const std::string trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    const std::string context = "line=" + std::to_string(line_no);
    bool ok = false;
    std::string payload;
    std::shared_ptr<obs::TraceContext> trace;
    auto request = serve::ParseRequestLine(trimmed);
    if (!request.ok()) {
      payload = serve::RequestExecutor::FormatError(request.status(), "",
                                                    context);
    } else {
      trace = executor.StartTrace(request.value(), MonotonicMicros());
      payload = executor.Execute(request.value(), context, &ok, trace);
    }
    {
      std::lock_guard<std::mutex> lock(stdout_mu);
      std::cout << payload << std::flush;
    }
    executor.FinishTrace(trace);
    if (ok) {
      ++served;
    } else {
      ++failures;
    }
    if (stats_every > 0 &&
        (served + failures) % static_cast<std::uint64_t>(stats_every) == 0) {
      // Periodic emission rides the comment channel ('# ' prefix), so
      // response consumers that count ok/error lines are unaffected.
      PrintCommentedStats(executor, &stdout_mu);
    }
  }
  if (request_fd != 0) ::close(request_fd);
  if (stats_endpoint != nullptr) stats_endpoint->Stop();
  if (g_serve_shutdown != 0) PrintCommentedStats(executor, &stdout_mu);
  PrintServeSummary(server, served, failures);
  server.Shutdown();
  return failures == 0 ? 0 : 1;
}

void PrintUsage() {
  std::string clusterers, models;
  for (const auto& name :
       clustering::ClustererRegistry::Global().ListRegistered()) {
    if (!clusterers.empty()) clusterers += "|";
    clusterers += name;
  }
  for (const auto& name : api::ModelRegistry::Global().ListRegistered()) {
    if (!models.empty()) models += "|";
    models += name;
  }
  std::cout <<
      "usage: mcirbm_cli <command> [--flag value | --flag=value ...]\n"
      "\n"
      "global flags:\n"
      "  --threads N   worker threads for the parallel runtime (default:\n"
      "                MCIRBM_THREADS env var, else hardware concurrency;\n"
      "                results are identical at any thread count)\n"
      "\n"
      "commands:\n"
      "  synth      --family msra|uci --index N --out <csv> [--seed N]\n"
      "  dataset    convert --in <spec> --out <path> [--chunk-rows N]\n"
      "             (a .csv output writes CSV, anything else the mmap-able\n"
      "             mcirbm-data v1 binary; conversion streams in bounded\n"
      "             memory) | info --in <spec>\n"
      "             <spec>: a path (.csv/.libsvm/.bin, else magic-sniffed)\n"
      "             or csv:|bin:|libsvm:|synth:<family>:<index>[:<seed>]\n"
      "  select-k   --data <csv> [--kmin 2] [--kmax 8] [--standardize|"
      "--binarize]\n"
      "  supervise  --data <csv> [--clusters K] [--strategy "
      "unanimous|majority]\n"
      "             [--voters dp,kmeans*3,ap] [--standardize|--binarize]\n"
      "  train      --data <csv> --model " + models + "\n"
      "             --out <path> [--config <file>] [--hidden N] "
      "[--epochs N]\n"
      "             [--lr F] [--eta F] [--scale F] [--clusters K]\n"
      "             [--standardize|--binarize] [--seed N]\n"
      "  transform  --data <csv> --model-file <path> --out <csv>\n"
      "             [--standardize|--binarize]\n"
      "  eval       --data <csv> [--model-file <path>]\n"
      "             [--clusterer " + clusterers + "]\n"
      "             [--k K] [--standardize|--binarize] [--seed N]\n"
      "  pipeline   --config <file> [--data <csv>] [--model-out <path>]\n"
      "             [--features-out <csv>] [--seed N]\n"
      "  serve      [--requests <file>|- | --listen PORT] [--stats-port P]\n"
      "             [--max-batch-rows N] [--max-queue-micros N]\n"
      "             [--store-capacity N] [--replicas N]\n"
      "             [--max-pending ROWS] [--max-inflight N]\n"
      "             [--stats-every N] [--handler-threads N]\n"
      "             [--trace-sample N] [--trace-jsonl <path>]\n"
      "             one key=value request per line (op=transform|evaluate\n"
      "             model=<artifact> data=<csv> [transform=...] [chunk=N]\n"
      "             [clusterer=...] [k=K] [seed=N] [out=<csv>] [id=TAG];\n"
      "             quote values with spaces: data=\"my file.csv\");\n"
      "             responses stream to stdout, '# ...' stats line at EOF;\n"
      "             op=stats returns live latency histograms + gauges as\n"
      "             name{model=\"k\"} value lines; --stats-every N emits\n"
      "             that snapshot as '# ' comments every N requests;\n"
      "             --trace-sample N records a span timeline\n"
      "             (parse/load/queue/exec/format/flush) for every Nth\n"
      "             request — query with 'op=trace last=K', read the\n"
      "             recent-trace section of --stats-port, or stream each\n"
      "             completed trace as JSON with --trace-jsonl <path>;\n"
      "             op=reload model=<artifact> hot-swaps one artifact;\n"
      "             overflow beyond --max-pending/--max-inflight rejects\n"
      "             fast with kUnavailable (reported as rejected=);\n"
      "             --listen PORT serves the same protocol over TCP\n"
      "             (multi-client, pipelined via id= tags, 0 = ephemeral\n"
      "             port printed as '# listening port=N'); --stats-port P\n"
      "             opens a read-only endpoint that returns the metrics\n"
      "             snapshot to every connection; SIGINT/SIGTERM drain\n"
      "             gracefully in both modes (finish in-flight requests,\n"
      "             flush, print final stats, exit 0)\n"
      "\n"
      "pipeline config keys: see src/api/config.h (key = value lines;\n"
      "model, rbm.*, sls.*, supervision.*, parallel.*, data.*, eval.*,\n"
      "out.*, seed)\n";
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    PrintUsage();
    return 1;
  }
  const std::string command = argv[1];
  if (command == "help" || command == "--help") {
    PrintUsage();
    return 0;
  }
  // `dataset` takes an action word before its flags, so it parses its own
  // argv (the shared Args ctor rejects positionals).
  if (command == "dataset") return RunDatasetCommand(argc, argv);
  const Args args(argc, argv);
  if (!args.status().ok()) return Fail(args.status());
  // Pool width: --threads beats the MCIRBM_THREADS env var beats hardware
  // concurrency. Applies to every subcommand.
  if (args.Has("threads")) {
    const int threads = args.GetInt("threads", 0);
    if (threads <= 0) return Fail("--threads must be a positive integer");
    parallel::SetNumThreads(threads);
  }
  if (command == "synth") return RunSynth(args);
  if (command == "select-k") return RunSelectK(args);
  if (command == "supervise") return RunSupervise(args);
  if (command == "train") return RunTrain(args);
  if (command == "transform") return RunTransform(args);
  if (command == "eval") return RunEval(args);
  if (command == "pipeline") return RunPipeline(args);
  if (command == "serve") return RunServe(args);
  // Same loud rejection style as unknown flags: name the input, list the
  // vocabulary, exit non-OK (no usage dump to scroll past).
  return Fail(Status::InvalidArgument(
      "unknown command '" + command +
      "' (expected one of synth|dataset|select-k|supervise|train|transform|"
      "eval|pipeline|serve|help)"));
}
