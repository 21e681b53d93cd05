// Shared pieces of the perfbench harness: run options, the result report
// printed as the last stdout line, statistics helpers, and the set-up
// every workload performs (a served encoder behind a live TCP server).
#ifndef MCIRBM_PERFBENCH_BENCH_H_
#define MCIRBM_PERFBENCH_BENCH_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "api/api.h"
#include "net/line_server.h"
#include "serve/executor.h"
#include "serve/router.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch directory inside the checkout
};

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Everything one run reports. `attempted`/`failed` count checked
/// operations (pipeline runs, served requests, parity checks).
class Report {
 public:
  void Add(const std::string& name, double value, const std::string& unit);
  /// Free-form context (sample counts, rates, limits) printed before the
  /// result line.
  void Note(const std::string& key, const std::string& value);
  void Note(const std::string& key, double value);
  /// Counts one checked operation; a false `ok` is a failure and is
  /// described on stderr.
  bool Check(bool ok, const std::string& what);
  void Fail(const std::string& what) { Check(false, what); }

  long attempted() const { return attempted_; }
  long failed() const { return failed_; }
  /// Prints the notes, then the one-line JSON result with the metrics
  /// added. perfbench/run.py checks their names and units against
  /// BENCHMARK.json.
  void Print() const;

 private:
  std::vector<Metric> metrics_;
  std::vector<std::pair<std::string, std::string>> notes_;
  long attempted_ = 0;
  long failed_ = 0;
};

double NowSeconds();
double Median(std::vector<double> v);
/// Linear-interpolated quantile, q in [0, 1]; +inf samples sort last.
double Quantile(std::vector<double> v, double q);
double PeakRssMb();

/// Times fn() `reps` times and returns the median wall seconds.
template <typename Fn>
double MedianSeconds(int reps, Fn&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const double t0 = NowSeconds();
    fn();
    t.push_back(NowSeconds() - t0);
  }
  return Median(t);
}

// ---------------------------------------------------------------------------
// Set-up shared by every workload: synthesize the MSRA-shaped data,
// train the served sls-GRBM encoder (892 -> 96) through api::RunPipeline,
// write the served CSV files, and start the `mcirbm_cli serve --listen`
// stack (Router -> RequestExecutor -> LineServer) at its default settings.
// ---------------------------------------------------------------------------

struct ServeStack {
  std::unique_ptr<mcirbm::serve::Router> router;
  std::unique_ptr<mcirbm::serve::RequestExecutor> executor;
  std::unique_ptr<mcirbm::net::LineServer> server;

  /// Drains the transport, then stops the router (the CLI's order).
  void Stop();
  ~ServeStack() { Stop(); }
};

/// Starts the serve stack with the CLI defaults; `trace_every` > 0 turns
/// on per-request span sampling (traced runs only).
mcirbm::StatusOr<std::unique_ptr<ServeStack>> StartServeStack(
    std::uint64_t trace_every);

/// Rows of the small-probe file (the serve probes' per-request transport
/// and span-coverage probe).
constexpr std::size_t kProbeRows = 4;

struct Fixture {
  std::string model_path;               ///< saved served encoder
  std::string bulk_file;                ///< all 896 standardized rows
  std::string probe_file;               ///< its first kProbeRows rows
  std::unique_ptr<ServeStack> stack;
};

/// One full set-up in `dir`. It does not depend on the workload seed: the
/// served encoder and files are the same in every run.
mcirbm::StatusOr<std::unique_ptr<Fixture>> SetUp(const std::string& dir);

// Workload entry points; each fills `report`.
void RunTrainWorkload(const Options& options, Fixture* fixture,
                      Report* report);
/// Times the serve stack's layers on the fixture's server (traced runs
/// of train_msra, whose shape the served encoder has).
void RunServeProbes(const Options& options, Fixture* fixture, Report* report);

}  // namespace perfbench

#endif  // MCIRBM_PERFBENCH_BENCH_H_
