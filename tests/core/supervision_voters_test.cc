// Tests for repeated K-means members (VoterSpec::count) in the
// multi-clustering integration. More independently seeded voters make the
// unanimous vote stricter, trading coverage for precision.
#include <gtest/gtest.h>

#include "core/pipeline.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "metrics/external.h"

namespace mcirbm::core {
namespace {

data::Dataset NoisyMixture(std::uint64_t seed) {
  data::GaussianMixtureSpec spec;
  spec.name = "voters";
  spec.num_classes = 3;
  spec.num_instances = 240;
  spec.num_features = 16;
  spec.separation = 2.0;  // overlapping: K-means restarts disagree
  spec.informative_fraction = 0.5;
  spec.confusion_fraction = 0.15;
  data::Dataset ds = data::GenerateGaussianMixture(spec, seed);
  data::StandardizeInPlace(&ds.x);
  return ds;
}

// The paper's DP/K-means/AP trio with `kmeans` K-means repeats.
SupervisionConfig TrioWithKmeans(int kmeans) {
  SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = {{"dp", {}, 1}, {"kmeans", {}, kmeans}, {"ap", {}, 1}};
  return cfg;
}

TEST(SupervisionVotersTest, MoreVotersNeverRaiseCoverage) {
  const data::Dataset ds = NoisyMixture(3);
  double prev_coverage = 1.1;
  for (const int voters : {1, 3, 6}) {
    const auto sup =
        ComputeSelfLearningSupervision(ds.x, TrioWithKmeans(voters), 5);
    EXPECT_LE(sup.Coverage(), prev_coverage + 1e-12)
        << voters << " voters";
    prev_coverage = sup.Coverage();
  }
}

TEST(SupervisionVotersTest, StricterVoteDoesNotLowerPrecision) {
  // Consensus precision (accuracy of credible instances vs truth) with 5
  // voters should be at least that of 1 voter on overlapping data, since
  // only unstable instances are dropped. Allow a small tolerance: the
  // retained set changes, so exact monotonicity is not guaranteed.
  const data::Dataset ds = NoisyMixture(4);
  auto precision_with = [&](int voters) {
    const auto sup =
        ComputeSelfLearningSupervision(ds.x, TrioWithKmeans(voters), 5);
    std::vector<int> truth, pred;
    for (std::size_t i = 0; i < sup.cluster_of.size(); ++i) {
      if (sup.cluster_of[i] >= 0) {
        truth.push_back(ds.labels[i]);
        pred.push_back(sup.cluster_of[i]);
      }
    }
    return truth.empty() ? 0.0
                         : metrics::ClusteringAccuracy(truth, pred);
  };
  EXPECT_GE(precision_with(5), precision_with(1) - 0.05);
}

TEST(SupervisionVotersTest, DeterministicGivenSeed) {
  const data::Dataset ds = NoisyMixture(6);
  const SupervisionConfig cfg = TrioWithKmeans(3);
  const auto a = ComputeSelfLearningSupervision(ds.x, cfg, 9);
  const auto b = ComputeSelfLearningSupervision(ds.x, cfg, 9);
  EXPECT_EQ(a.cluster_of, b.cluster_of);
  EXPECT_EQ(a.num_clusters, b.num_clusters);
}

TEST(SupervisionVotersTest, ZeroCountIsInvalidArgument) {
  const data::Dataset ds = NoisyMixture(1);
  SupervisionConfig cfg;
  cfg.num_clusters = 3;
  cfg.voters = {{"kmeans", {}, 0}};
  const auto sup = TryComputeSelfLearningSupervision(ds.x, cfg, 1);
  ASSERT_FALSE(sup.ok());
  EXPECT_EQ(sup.status().code(), StatusCode::kInvalidArgument);
}

}  // namespace
}  // namespace mcirbm::core
