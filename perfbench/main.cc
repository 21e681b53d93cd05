// perfbench: the repository benchmark harness.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --work-dir <dir>
//
// Workloads: train_msra, train_uci (api::RunPipeline). With --trace 0
// the run reports the end-to-end metrics; with --trace 1 it replays the
// same workload through the modules' public functions and reports
// per-module metrics (train_msra's also times the serve stack's layers).
// The last stdout line is one JSON object:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// perfbench/run.py builds this binary and is the command to run.
#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "parallel/thread_pool.h"
#include "util/logging.h"

namespace {

constexpr int kSetupReps = 3;

int Usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload train_msra|train_uci "
               "--seed N --seconds S --trace 0|1 "
               "--work-dir DIR\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      options.workload = value;
    } else if (key == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      options.trace = value == "1";
    } else if (key == "--work-dir") {
      options.work_dir = value;
    } else {
      return Usage("unknown flag " + key);
    }
  }
  if (options.workload != "train_msra" && options.workload != "train_uci") {
    return Usage("unknown workload '" + options.workload + "'");
  }
  if (options.work_dir.empty()) return Usage("--work-dir is required");
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  mcirbm::SetLogLevel(mcirbm::LogLevel::kWarning);
  std::filesystem::create_directories(options.work_dir);

  perfbench::Report report;
  report.Note("workload", options.workload);
  report.Note("seed", static_cast<double>(options.seed));
  report.Note("pool_width", mcirbm::parallel::NumThreads());
  report.Note("deterministic",
              mcirbm::parallel::Deterministic() ? "true" : "false");

  // Set-up is repeated and its median reported, so set-up time is a
  // steady metric; the last fixture stays up for the workload.
  std::vector<double> setup_times;
  std::unique_ptr<perfbench::Fixture> fixture;
  const int setup_reps = options.trace ? 1 : kSetupReps;
  for (int r = 0; r < setup_reps; ++r) {
    fixture.reset();
    const double t0 = perfbench::NowSeconds();
    auto made = perfbench::SetUp(options.work_dir);
    setup_times.push_back(perfbench::NowSeconds() - t0);
    if (!made.ok()) {
      std::cerr << "perfbench: set-up failed: " << made.status().ToString()
                << "\n";
      return 1;
    }
    fixture = std::move(made).value();
  }

  perfbench::RunTrainWorkload(options, fixture.get(), &report);
  fixture.reset();

  if (!options.trace) {
    report.Add("setup_s", perfbench::Median(setup_times), "s");
    report.Add("peak_rss_mb", perfbench::PeakRssMb(), "MB");
    const double attempted = std::max<long>(report.attempted(), 1);
    report.Add("ok_frac", 1.0 - report.failed() / attempted, "fraction");
    report.Note("failed_frac", report.failed() / attempted);
  }
  std::error_code ignored;
  std::filesystem::remove_all(options.work_dir, ignored);
  report.Print();
  return 0;
}
