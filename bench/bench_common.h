// Shared argv/environment handling for the paper-repro and ablation
// bench binaries.
//
// Environment knobs of MakeBenchConfig (all optional; a malformed value
// exits 2 naming the variable):
//   MCIRBM_BENCH_FULL=0|1      1 runs at full dataset size (default 0:
//                              capped)
//   MCIRBM_BENCH_MAX_N=<int>   instance cap in fast mode (default 250)
//   MCIRBM_BENCH_REPEATS=<int> repeats per dataset (default 3)
//   MCIRBM_BENCH_SEED=<int>    experiment seed (default 7)
// The integers must be positive.
//
// Every bench also accepts repeatable `--data <spec>` flags (loader specs
// from data/loaders.h — paths or csv:|bin:|libsvm:|synth: forms). When
// given, the named datasets replace the generated family sweep, so the
// tables/figures/ablations run against real ingested data (e.g. a
// converted mcirbm-data binary).
#ifndef MCIRBM_BENCH_BENCH_COMMON_H_
#define MCIRBM_BENCH_BENCH_COMMON_H_

#include <cstdint>
#include <vector>

#include "data/dataset.h"
#include "eval/experiment.h"

namespace mcirbm::bench {

/// Parses the shared bench argv (`--data <spec>`, repeatable; `--data=x`
/// also accepted). Prints an error and returns false on unknown flags or
/// a missing value. Call once at the top of main.
bool ParseBenchArgs(int argc, char** argv);

/// Loads every --data spec, exiting(2) with the loader's message on
/// failure. Empty when no --data flags were given — callers fall back to
/// their generated datasets.
std::vector<data::Dataset> LoadBenchDatasets(std::uint64_t seed);

/// Experiment configuration honoring the environment knobs above (and the
/// parsed --data specs, which replace the generated family sweep). Full
/// size leaves `max_instances` at 0. Exits(2) on a malformed knob.
eval::ExperimentConfig MakeBenchConfig(bool grbm_family);

}  // namespace mcirbm::bench

#endif  // MCIRBM_BENCH_BENCH_COMMON_H_
