// The serve stack's layers, timed from outside in train_msra's traced
// run: the `mcirbm_cli serve --listen` stack that every workload's
// set-up starts serves the MSRA-shaped encoder. In-process executor,
// router and model calls, a small-request transport probe, server span
// traces of open-loop traffic over TCP, and the public op=stats surface.
// Every served response is checked against a one-shot api::Model call.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <iterator>
#include <map>
#include <string>
#include <vector>

#include "bench.h"
#include "data/io.h"
#include "data/loaders.h"
#include "loadgen.h"
#include "serve/request.h"
#include "util/string_util.h"

namespace perfbench {

namespace {

using mcirbm::FormatDouble;
using mcirbm::linalg::Matrix;
namespace api = mcirbm::api;

struct Traffic {
  std::vector<RequestTemplate> templates;
  std::vector<double> weights;
  RequestTemplate probe;  ///< a few-row, one-chunk transform
};

// The request mix: whole-dataset transforms at the default chunk=1 and
// kmeans evaluates, kArrivals Poisson arrivals at kRate req/s over
// kConnections connections.
constexpr double kRate = 8;
constexpr std::size_t kArrivals = 64;
constexpr int kConnections = 4;
constexpr std::uint64_t kEvalSeed = 7;
// Small-probe pairs (in-process / TCP), traced small probes, reloads.
constexpr int kProbePairs = 200;
constexpr int kTracedProbes = 100;
constexpr int kReloads = 5;

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

std::string TransformExpected(const std::string& request,
                              const Matrix& hidden, std::size_t chunks) {
  // RequestExecutor's ok line for a transform: one micro-request per
  // chunk, no admission bound so no retries.
  return request + " rows=" + std::to_string(hidden.rows()) +
         " cols=" + std::to_string(hidden.cols()) +
         " requests=" + std::to_string(chunks) +
         " retries=0 sum=" + FormatDouble(hidden.Sum(), 6);
}

std::string EvaluateExpected(const std::string& model_path,
                             const std::string& file,
                             const api::EvalResult& result) {
  const mcirbm::metrics::MetricBundle& m = result.metrics;
  return "op=evaluate model=" + model_path + " data=" + file +
         " clusterer=kmeans clusters=" + std::to_string(result.clusters_found) +
         " accuracy=" + FormatDouble(m.accuracy, 4) +
         " purity=" + FormatDouble(m.purity, 4) +
         " rand=" + FormatDouble(m.rand_index, 4) +
         " fmi=" + FormatDouble(m.fmi, 4) + " ari=" + FormatDouble(m.ari, 4) +
         " nmi=" + FormatDouble(m.nmi, 4);
}

// Builds the request mix and the small probe; every expected response
// comes from a one-shot api::Model call on the same file.
mcirbm::StatusOr<Traffic> MakeTraffic(const Fixture& fixture,
                                      const api::Model& model) {
  const std::string& m = fixture.model_path;
  const std::string& file = fixture.bulk_file;
  auto ds = mcirbm::data::LoadDataset(file);
  if (!ds.ok()) return ds.status();
  auto hidden = model.Transform(ds.value().x);
  if (!hidden.ok()) return hidden.status();
  api::EvalOptions eval;
  eval.clusterer = "kmeans";
  eval.seed = kEvalSeed;
  auto result = model.Evaluate(ds.value().x, ds.value().labels, eval);
  if (!result.ok()) return result.status();
  auto probe_ds = mcirbm::data::LoadDataset(fixture.probe_file);
  if (!probe_ds.ok()) return probe_ds.status();
  auto probe_hidden = model.Transform(probe_ds.value().x);
  if (!probe_hidden.ok()) return probe_hidden.status();

  Traffic traffic;
  const std::string transform = "op=transform model=" + m + " data=" + file;
  traffic.templates = {
      {transform,
       TransformExpected(transform, hidden.value(), hidden.value().rows())},
      {"op=evaluate model=" + m + " data=" + file + " clusterer=kmeans",
       EvaluateExpected(m, file, result.value())}};
  traffic.weights = {0.9, 0.1};
  // One chunk, so a traced probe's spans cover the whole request.
  const std::string probe = "op=transform model=" + m +
                            " data=" + fixture.probe_file + " chunk=" +
                            std::to_string(probe_hidden.value().rows());
  traffic.probe = {probe, TransformExpected("op=transform model=" + m +
                                                " data=" + fixture.probe_file,
                                            probe_hidden.value(), 1)};
  return traffic;
}

void CountPhase(const PhaseResult& phase, const std::string& what,
                Report* report) {
  for (const std::string& failure : phase.failures) {
    std::cerr << "perfbench: " << what << ": " << failure << "\n";
  }
  for (long i = 0; i < phase.attempted; ++i) {
    report->Check(i >= phase.failed, what + " request failed");
  }
}

// Sends every template once and checks the answers (fills the dataset
// cache and the model store before timing).
void WarmUp(int port, const Traffic& traffic, Report* report) {
  SyncClient client(port);
  std::vector<std::string> response;
  for (std::size_t k = 0; k < traffic.templates.size(); ++k) {
    const bool ok = client.Exchange(traffic.templates[k].request, &response) &&
                    response[0] == "ok " + traffic.templates[k].expected;
    report->Check(ok, "warm-up: " + traffic.templates[k].request);
  }
}

// Full-output parity: a served transform with out= writes the same CSV
// bytes as the one-shot Transform of the file.
void CheckServedCsv(int port, const Options& options, const Fixture& fixture,
                    const api::Model& model, Report* report) {
  const std::string served = options.work_dir + "/served.csv";
  const std::string expected = options.work_dir + "/oneshot.csv";
  auto ds = mcirbm::data::LoadDataset(fixture.bulk_file);
  auto hidden = ds.ok() ? model.Transform(ds.value().x)
                        : mcirbm::StatusOr<Matrix>(ds.status());
  bool ok = hidden.ok();
  if (ok) {
    mcirbm::data::Dataset out = ds.value();
    out.x = std::move(hidden).value();
    out.name = ds.value().name + ":hidden";
    ok = mcirbm::data::SaveDatasetCsv(out, expected).ok();
  }
  SyncClient client(port);
  std::vector<std::string> response;
  ok = ok && client.Exchange("op=transform model=" + fixture.model_path +
                                 " data=" + fixture.bulk_file + " out=" + served,
                             &response) &&
       response[0].rfind("ok ", 0) == 0 && ReadFile(served) == ReadFile(expected);
  report->Check(ok, "served CSV differs from one-shot Transform");
}

// Sums `name{...} value` lines of an op=stats payload by metric name
// (histogram quantiles keep their label in the key).
std::map<std::string, double> ParseStats(const std::vector<std::string>& lines) {
  std::map<std::string, double> stats;
  for (std::size_t i = 1; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos) continue;
    std::string name = line.substr(0, line.find_first_of("{ "));
    const std::size_t q = line.find("quantile=\"");
    if (q != std::string::npos && q < space) {
      name += "@" + line.substr(q + 10, line.find('"', q + 10) - q - 10);
    }
    stats[name] += std::atof(line.c_str() + space + 1);
  }
  return stats;
}

// A probe request line with an id, so its server trace can be found.
std::string ProbeLine(const Traffic& traffic, const std::string& id) {
  return "id=" + id + " " + traffic.probe.request;
}

bool ProbeAnswered(const std::string& response, const Traffic& traffic,
                   const std::string& id) {
  return response == "ok id=" + id + " " + traffic.probe.expected;
}

void Probe(const Options& options, Fixture* fixture, const Traffic& traffic,
           const api::Model& model, Report* report) {
  mcirbm::serve::Router& router = *fixture->stack->router;
  mcirbm::serve::RequestExecutor& executor = *fixture->stack->executor;
  WarmUp(fixture->stack->server->port(), traffic, report);
  const auto schedule =
      MakeSchedule(kRate, kArrivals, traffic.weights, options.seed);
  CheckServedCsv(fixture->stack->server->port(), options, *fixture, model,
                 report);

  // Request-line parse cost, on the small probe's line.
  const std::string probe_line = ProbeLine(traffic, "s0");
  std::vector<double> parse_us;
  for (int batch = 0; batch < 21; ++batch) {
    const double t0 = NowSeconds();
    for (int i = 0; i < 100; ++i) {
      if (!mcirbm::serve::ParseRequestLine(probe_line).ok()) {
        report->Fail("parse: " + probe_line);
      }
    }
    parse_us.push_back((NowSeconds() - t0) * 1e6 / 100);
  }
  report->Add("serve.parse_us", Median(parse_us), "us");

  // Transport cost on the small probe, whose execute is well under a
  // millisecond: in-process Execute interleaved with the same request's
  // round trip over one TCP connection; net = round trip - execute.
  std::vector<double> execute_ms, rtt_ms;
  {
    SyncClient client(fixture->stack->server->port());
    std::vector<std::string> response;
    auto request = mcirbm::serve::ParseRequestLine(probe_line);
    if (!report->Check(request.ok(), "parse: " + probe_line)) return;
    for (int i = 0; i < kProbePairs; ++i) {
      bool ok = false;
      double t0 = NowSeconds();
      const std::string executed = executor.Execute(request.value(), "", &ok);
      execute_ms.push_back(1e3 * (NowSeconds() - t0));
      report->Check(ok && executed == "ok id=s0 " + traffic.probe.expected + "\n",
                    "in-process probe Execute");
      t0 = NowSeconds();
      ok = client.Exchange(probe_line, &response);
      rtt_ms.push_back(1e3 * (NowSeconds() - t0));
      report->Check(ok && ProbeAnswered(response[0], traffic, "s0"),
                    "probe round trip");
    }
  }
  report->Add("net.self_ms", Median(rtt_ms) - Median(execute_ms), "ms");
  report->Note("probe_execute_ms", Median(execute_ms));
  report->Note("probe_round_trip_ms", Median(rtt_ms));

  // In-process Execute of the traffic mix, in schedule order.
  execute_ms.clear();
  for (std::size_t i = 0; i < 30; ++i) {
    const RequestTemplate& t =
        traffic.templates[schedule[i % schedule.size()].kind];
    auto request = mcirbm::serve::ParseRequestLine(t.request);
    if (!report->Check(request.ok(), "parse: " + t.request)) continue;
    bool ok = false;
    const double t0 = NowSeconds();
    const std::string executed = executor.Execute(request.value(), "", &ok);
    execute_ms.push_back(1e3 * (NowSeconds() - t0));
    report->Check(ok && executed == "ok " + t.expected + "\n",
                  "in-process Execute: " + t.request);
  }
  report->Add("serve.execute_p50_ms", Median(execute_ms), "ms");
  report->Add("serve.execute_p99_ms", Quantile(execute_ms, 0.99), "ms");

  // One whole-matrix Router::Submit versus the bare model call.
  auto ds = mcirbm::data::LoadDataset(fixture->bulk_file);
  if (!report->Check(ds.ok(), "load " + fixture->bulk_file)) return;
  const Matrix& x = ds.value().x;
  constexpr int kReps = 21;
  report->Add("serve.router_ms", 1e3 * MedianSeconds(kReps, [&] {
                auto part = router.Submit(fixture->model_path, x).get();
                if (!part.ok()) report->Fail("router submit");
              }),
              "ms");
  report->Add("api.transform_ms",
              1e3 * MedianSeconds(kReps, [&] { (void)model.Transform(x); }), "ms");
  api::EvalOptions eval;
  eval.seed = kEvalSeed;
  report->Add("api.evaluate_ms", 1e3 * MedianSeconds(5, [&] {
                (void)model.Evaluate(x, ds.value().labels, eval);
              }),
              "ms");
  // Open-loop traffic on a stack that records a span trace for every
  // request.
  fixture->stack.reset();
  auto traced_stack = StartServeStack(1);
  if (!report->Check(traced_stack.ok(), "traced stack start")) return;
  fixture->stack = std::move(traced_stack).value();
  const int port = fixture->stack->server->port();
  WarmUp(port, traffic, report);
  const PhaseResult traced =
      RunOpenLoop(port, kConnections, traffic.templates, schedule, 10.0);
  CountPhase(traced, "traced phase", report);
  report->Add("loadgen.late_p99_ms", Quantile(traced.late_ms, 0.99), "ms");
  report->Note("serve_latency_p50_ms", Median(traced.latency_ms));

  // The store's swap path: hot reloads of the served model.
  SyncClient client(port);
  std::vector<std::string> lines;
  const std::string reload = "op=reload model=" + fixture->model_path;
  for (int i = 0; i < kReloads; ++i) {
    report->Check(client.Exchange(reload, &lines) && lines[0] == "ok " + reload,
                  "reload");
  }

  // Batching, queueing and admission from the public op=stats surface.
  if (!report->Check(client.Exchange("op=stats", &lines) &&
                         lines[0].rfind("ok op=stats", 0) == 0,
                     "op=stats")) {
    return;
  }
  std::map<std::string, double> stats = ParseStats(lines);
  // Transforms + evaluates this stack served: warm-up and traced phase.
  const double served_requests =
      static_cast<double>(traffic.templates.size() + schedule.size());
  const double submits = stats["serve_requests_total"];
  const double rejected = stats["serve_rejected_total"];
  report->Add("serve.queue_wait_p99_us", stats["serve_queue_wait_micros@0.99"], "us");
  report->Add("serve.mean_batch_rows",
              stats["serve_batches_total"] > 0
                  ? stats["serve_rows_total"] / stats["serve_batches_total"]
                  : 0,
              "rows");
  report->Add("serve.submits_per_request", submits / served_requests, "count");
  report->Add("serve.rejected_total", rejected, "count");
  report->Add("serve.admit_ratio",
              submits + rejected > 0 ? submits / (submits + rejected) : 1.0,
              "fraction");
  report->Add("store.reload_ms",
              stats["store_reload_micros_count"] > 0
                  ? stats["store_reload_micros_sum"] / stats["store_reload_micros_count"] / 1e3
                  : 0,
              "ms");

  // Time no server span covers, on requests whose spans cover the whole
  // request: the traced phase's evaluates (a transform at chunk=1 traces
  // only its first chunk) and small probes sent one at a time.
  std::vector<double> probe_latency_ms(kTracedProbes);
  for (int i = 0; i < kTracedProbes; ++i) {
    const std::string id = "s" + std::to_string(i);
    const double t0 = NowSeconds();
    const bool ok = client.Exchange(ProbeLine(traffic, id), &lines);
    probe_latency_ms[i] = 1e3 * (NowSeconds() - t0);
    report->Check(ok && ProbeAnswered(lines[0], traffic, id),
                  "traced probe round trip");
  }
  std::map<std::string, double> span_ms;
  for (const mcirbm::obs::Trace& t :
       fixture->stack->executor->trace_store()->snapshot().traces) {
    double sum = 0;
    for (const mcirbm::obs::TraceSpan& s : t.spans) sum += s.duration_micros / 1e3;
    span_ms[t.tag] = sum;
  }
  std::vector<double> unattributed;
  std::size_t evaluates = 0;
  for (std::size_t i = 0; i < schedule.size(); ++i) {
    if (schedule[i].kind != 1 || std::isnan(traced.latency_by_request[i])) {
      continue;
    }
    ++evaluates;
    const auto it = span_ms.find("r" + std::to_string(i));
    if (it != span_ms.end()) {
      unattributed.push_back(traced.latency_by_request[i] -
                             traced.late_by_request[i] - it->second);
    }
  }
  for (int i = 0; i < kTracedProbes; ++i) {
    const auto it = span_ms.find("s" + std::to_string(i));
    if (it != span_ms.end()) unattributed.push_back(probe_latency_ms[i] - it->second);
  }
  report->Check(unattributed.size() == evaluates + kTracedProbes,
                "a fully traced request has no server trace");
  report->Add("unattributed_ms", Median(unattributed), "ms");
  report->Note("unattributed_samples", unattributed.size());
  report->Note("unattributed_evaluates", evaluates);
}

}  // namespace

void RunServeProbes(const Options& options, Fixture* fixture,
                    Report* report) {
  auto model = api::Model::Load(fixture->model_path);
  if (!report->Check(model.ok(), "load model: " + model.status().ToString())) return;
  auto traffic = MakeTraffic(*fixture, model.value());
  if (!report->Check(traffic.ok(), "traffic: " + traffic.status().ToString())) return;
  Probe(options, fixture, traffic.value(), model.value(), report);
}

}  // namespace perfbench
