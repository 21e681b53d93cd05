#include "eval/report.h"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

namespace mcirbm::eval {
namespace {

// Fabricated results where sls strictly dominates: every shape check must
// pass. Values are arbitrary but ordered raw < plain < sls.
std::vector<DatasetExperimentResult> FakeResults(int n) {
  std::vector<DatasetExperimentResult> results(n);
  for (int i = 0; i < n; ++i) {
    results[i].dataset = "D" + std::to_string(i + 1);
    results[i].dataset_number = i + 1;
    for (int c = 0; c < kNumClusterers; ++c) {
      for (int v = 0; v < kNumVariants; ++v) {
        const double base = 0.3 + 0.1 * v + 0.01 * i + 0.005 * c;
        auto& cell = results[i].cells[v][c];
        cell.accuracy = {base, 1e-4};
        cell.purity = {base + 0.3, 1e-4};
        cell.rand_index = {base + 0.1, 1e-4};
        cell.fmi = {base + 0.05, 1e-4};
      }
    }
  }
  return results;
}

TEST(ShapeCheckTest, DominatingSlsPassesAllChecks) {
  const auto results = FakeResults(9);
  const auto checks = EvaluateShapeChecks(results, "accuracy", true);
  EXPECT_EQ(checks.size(), 6u);  // 2 checks x 3 clusterers
  for (const auto& check : checks) EXPECT_TRUE(check.Passes());
}

TEST(ShapeCheckTest, InvertedOrderFailsChecks) {
  auto results = FakeResults(6);
  // Make raw beat sls for every cell.
  for (auto& r : results) {
    for (int c = 0; c < kNumClusterers; ++c) {
      std::swap(r.cells[0][c], r.cells[2][c]);
    }
  }
  const auto checks = EvaluateShapeChecks(results, "accuracy", false);
  int failures = 0;
  for (const auto& check : checks) failures += !check.Passes();
  EXPECT_GT(failures, 0);
}

// bench/repro_expected_failures.txt names each failing check by its
// description, so the 36 checks bench_repro prints (GRBM family over
// accuracy/purity/fmi, RBM family over accuracy/rand/fmi) must differ.
TEST(ShapeCheckTest, ReproCheckDescriptionsAreDistinct) {
  std::set<std::string> descriptions;
  std::size_t total = 0;
  for (const bool grbm : {true, false}) {
    const auto results = FakeResults(grbm ? 9 : 6);
    for (const char* metric :
         {"accuracy", grbm ? "purity" : "rand", "fmi"}) {
      for (const auto& check : EvaluateShapeChecks(results, metric, grbm)) {
        descriptions.insert(check.description);
        ++total;
      }
    }
  }
  EXPECT_EQ(total, 36u);
  EXPECT_EQ(descriptions.size(), total);
}

TEST(PrintShapeChecksTest, CountsFailuresAndPrintsVerdicts) {
  std::vector<ShapeCheck> checks = {
      {"claim A", true, true},
      {"claim B", true, false},
  };
  std::ostringstream out;
  const int failures = PrintShapeChecks(out, checks);
  EXPECT_EQ(failures, 1);
  EXPECT_NE(out.str().find("[ OK ] claim A"), std::string::npos);
  EXPECT_NE(out.str().find("[FAIL] claim B"), std::string::npos);
}

TEST(PrintTableComparisonTest, ContainsHeadersAndPaperValues) {
  const auto results = FakeResults(9);
  std::ostringstream out;
  PrintTableComparison(out, PaperTable::kTable4AccuracyMsra, results);
  const std::string s = out.str();
  EXPECT_NE(s.find("Table IV"), std::string::npos);
  EXPECT_NE(s.find("DP+slsGRBM"), std::string::npos);
  EXPECT_NE(s.find("Average"), std::string::npos);
  // Paper value for BO / DP appears in parentheses.
  EXPECT_NE(s.find("(0.4275)"), std::string::npos);
}

TEST(PrintFigureSeriesTest, EmitsThreePanels) {
  const auto results = FakeResults(6);
  std::ostringstream out;
  PrintFigureSeries(out, PaperTable::kTable7AccuracyUci, results);
  const std::string s = out.str();
  EXPECT_NE(s.find("panel DP"), std::string::npos);
  EXPECT_NE(s.find("panel K-means"), std::string::npos);
  EXPECT_NE(s.find("panel AP"), std::string::npos);
}

TEST(PrintAveragesFigureTest, UsesFamilyMetrics) {
  const auto results = FakeResults(9);
  std::ostringstream out;
  PrintAveragesFigure(out, /*grbm_family=*/true, results);
  EXPECT_NE(out.str().find("purity"), std::string::npos);
  std::ostringstream out2;
  PrintAveragesFigure(out2, /*grbm_family=*/false, FakeResults(6));
  EXPECT_NE(out2.str().find("rand"), std::string::npos);
}

TEST(PrintTableComparisonDeathTest, WrongRowCountAborts) {
  const auto results = FakeResults(5);
  std::ostringstream out;
  EXPECT_DEATH(
      PrintTableComparison(out, PaperTable::kTable4AccuracyMsra, results),
      "CHECK failed");
}

}  // namespace
}  // namespace mcirbm::eval
