#include "bench_common.h"

#include <charconv>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <limits>
#include <string>
#include <system_error>
#include <utility>

#include "data/loaders.h"

namespace mcirbm::bench {
namespace {

// Reads one optional knob: unset yields `fallback`; a set value must be a
// whole decimal number in [min, max], else the bench exits 2 naming it.
long EnvLong(const char* name, long fallback, long min, long max) {
  const char* value = std::getenv(name);
  if (value == nullptr) return fallback;
  const char* end = value + std::strlen(value);
  long parsed = 0;
  const auto [ptr, ec] = std::from_chars(value, end, parsed);
  if (ec != std::errc() || ptr != end || parsed < min || parsed > max) {
    std::cerr << "error: " << name << "='" << value << "': expected "
              << (max == 1 ? "0 or 1" : "a positive integer") << "\n";
    std::exit(2);
  }
  return parsed;
}

std::vector<std::string>& MutableDataSpecs() {
  static std::vector<std::string> specs;
  return specs;
}

}  // namespace

bool ParseBenchArgs(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--data") {
      if (i + 1 >= argc) {
        std::cerr << "error: --data needs a loader spec\n";
        return false;
      }
      MutableDataSpecs().push_back(argv[++i]);
    } else if (arg.rfind("--data=", 0) == 0) {
      MutableDataSpecs().push_back(arg.substr(7));
    } else {
      std::cerr << "error: unknown bench flag '" << arg
                << "' (only --data <spec> is accepted)\n";
      return false;
    }
  }
  return true;
}

std::vector<data::Dataset> LoadBenchDatasets(std::uint64_t seed) {
  std::vector<data::Dataset> datasets;
  datasets.reserve(MutableDataSpecs().size());
  for (const std::string& spec : MutableDataSpecs()) {
    data::DataSourceConfig config;
    config.synth_seed = seed;
    auto loaded = data::LoadDataset(spec, config);
    if (!loaded.ok()) {
      std::cerr << "error: --data " << spec << ": "
                << loaded.status().ToString() << "\n";
      std::exit(2);
    }
    datasets.push_back(std::move(loaded).value());
  }
  return datasets;
}

eval::ExperimentConfig MakeBenchConfig(bool grbm_family) {
  eval::ExperimentConfig config = eval::MakePaperConfig(grbm_family);
  constexpr long kMaxLong = std::numeric_limits<long>::max();
  config.repeats = static_cast<int>(EnvLong(
      "MCIRBM_BENCH_REPEATS", 3, 1, std::numeric_limits<int>::max()));
  config.seed =
      static_cast<std::uint64_t>(EnvLong("MCIRBM_BENCH_SEED", 7, 1, kMaxLong));
  const long max_n = EnvLong("MCIRBM_BENCH_MAX_N", 250, 1, kMaxLong);
  if (EnvLong("MCIRBM_BENCH_FULL", 0, 0, 1) == 0) {
    config.max_instances = static_cast<std::size_t>(max_n);
  }
  config.data_specs = MutableDataSpecs();
  return config;
}

}  // namespace mcirbm::bench
