// Regenerates the paper's Tables 4-9 with their figure series (Figs. 2-4,
// 6-8) and the Fig. 5/9 averages, running each family's experiment grid
// once. Each table ends with its six shape checks; the closing line counts
// the failed ones. Checks known to fail today are listed, sorted, in
// bench/repro_expected_failures.txt; the `repro` CI job diffs against it:
//   ./build/bench_repro | tee repro.txt
//   sed -n 's/^  \[FAIL\] //p' repro.txt | LC_ALL=C sort |
//       diff bench/repro_expected_failures.txt -
// See bench_common.h for --data and the environment knobs.
#include <iostream>
#include <string>
#include <vector>

#include "bench_common.h"
#include "eval/report.h"
#include "util/timer.h"

using namespace mcirbm;  // NOLINT: bench driver

namespace {

struct FamilyRun {
  int checks = 0;
  int failures = 0;
};

FamilyRun RunFamily(bool grbm, const std::vector<eval::PaperTable>& tables) {
  const eval::ExperimentConfig config = bench::MakeBenchConfig(grbm);
  WallTimer timer;
  std::cout << "running "
            << (grbm ? "datasets I (MSRA-MM-like)" : "datasets II (UCI-like)")
            << " experiments"
            << (config.max_instances == 0 ? " [full size]" : " [fast mode]")
            << "...\n"
            << std::flush;
  const auto results = eval::RunFamilyExperiments(config);
  std::cout << "experiments done in " << timer.Seconds() << "s\n";

  FamilyRun run;
  for (const eval::PaperTable table : tables) {
    const std::string metric = eval::PaperTableMetric(table);
    if (config.data_specs.empty()) {
      eval::PrintTableComparison(std::cout, table, results);
    } else {
      // User-supplied --data sources: the paper's fixed 9-dataset
      // comparison doesn't apply, so render the measured grid alone.
      eval::PrintMeasuredTable(std::cout, metric, grbm, results);
    }
    eval::PrintFigureSeries(std::cout, table, results);
    const auto checks = eval::EvaluateShapeChecks(results, metric, grbm);
    run.checks += static_cast<int>(checks.size());
    run.failures += eval::PrintShapeChecks(std::cout, checks);
  }
  eval::PrintAveragesFigure(std::cout, grbm, results);
  return run;
}

}  // namespace

int main(int argc, char** argv) {
  if (!bench::ParseBenchArgs(argc, argv)) return 2;
  using eval::PaperTable;
  const FamilyRun msra = RunFamily(
      /*grbm=*/true, {PaperTable::kTable4AccuracyMsra,
                      PaperTable::kTable5PurityMsra,
                      PaperTable::kTable6FmiMsra});
  const FamilyRun uci = RunFamily(
      /*grbm=*/false, {PaperTable::kTable7AccuracyUci,
                       PaperTable::kTable8RandUci, PaperTable::kTable9FmiUci});
  std::cout << "\nbench_repro: " << msra.failures + uci.failures
            << " shape-check failure(s) of " << msra.checks + uci.checks
            << "\n";
  return 0;
}
