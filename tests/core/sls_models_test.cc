#include "core/sls_models.h"

#include <gtest/gtest.h>

#include "core/sls_gradient.h"
#include "data/synthetic.h"
#include "data/transforms.h"
#include "linalg/ops.h"

namespace mcirbm::core {
namespace {

// Structured data with a trustworthy supervision: the true labels of a
// well-separated mixture (stand-in for a high-precision unanimous vote).
struct Scenario {
  linalg::Matrix x;
  voting::LocalSupervision supervision;
  std::vector<int> labels;
};

Scenario MakeScenario(int n, int d, int k, double separation,
                      std::uint64_t seed, bool binary) {
  data::GaussianMixtureSpec spec;
  spec.name = "scenario";
  spec.num_classes = k;
  spec.num_instances = n;
  spec.num_features = d;
  spec.separation = separation;
  data::Dataset ds = data::GenerateGaussianMixture(spec, seed);
  Scenario s;
  if (binary) {
    data::MinMaxScaleInPlace(&ds.x);
  } else {
    data::StandardizeInPlace(&ds.x);
  }
  s.x = ds.x;
  s.labels = ds.labels;
  s.supervision.num_clusters = k;
  s.supervision.cluster_of = ds.labels;
  // Blank every third instance to exercise partial coverage.
  for (std::size_t i = 0; i < s.supervision.cluster_of.size(); i += 3) {
    s.supervision.cluster_of[i] = -1;
  }
  return s;
}

rbm::RbmConfig BaseConfig(int nv, int nh) {
  rbm::RbmConfig cfg;
  cfg.num_visible = nv;
  cfg.num_hidden = nh;
  cfg.learning_rate = 1e-3;
  cfg.epochs = 25;
  cfg.seed = 9;
  return cfg;
}

double MeanSlsObjective(const rbm::RbmBase& model, const linalg::Matrix& x,
                        const voting::LocalSupervision& sup) {
  std::vector<std::size_t> all(x.rows());
  for (std::size_t i = 0; i < x.rows(); ++i) all[i] = i;
  const SupervisionBatch sb = BuildSupervisionBatch(sup, all);
  const linalg::Matrix h = model.HiddenFeatures(x);
  return SlsObjective(x, h, sb, model.weights(), model.hidden_bias(),
                      SlsGradientOptions{});
}

TEST(SlsRbmTest, TrainingReducesConstrictDisperseObjective) {
  const Scenario s = MakeScenario(60, 12, 2, 3.0, 1, /*binary=*/true);
  SlsConfig sls;
  sls.eta = 0.5;
  sls.supervision_scale = 100.0;
  SlsRbm model(BaseConfig(12, 8), sls, s.supervision);
  const double before = MeanSlsObjective(model, s.x, s.supervision);
  model.Train(s.x);
  const double after = MeanSlsObjective(model, s.x, s.supervision);
  EXPECT_LT(after, before);
}

TEST(SlsGrbmTest, TrainingReducesConstrictDisperseObjective) {
  const Scenario s = MakeScenario(60, 12, 3, 3.0, 2, /*binary=*/false);
  SlsConfig sls;
  sls.eta = 0.4;
  sls.supervision_scale = 100.0;
  SlsGrbm model(BaseConfig(12, 8), sls, s.supervision);
  const double before = MeanSlsObjective(model, s.x, s.supervision);
  model.Train(s.x);
  const double after = MeanSlsObjective(model, s.x, s.supervision);
  EXPECT_LT(after, before);
}

TEST(SlsModelsTest, ConstrictionImprovesWithinBetweenRatio) {
  // The supervision should give the sls model a smaller within-class /
  // between-class hidden-distance ratio than an identically trained plain
  // GRBM. (Absolute spreads grow as weights grow, so the ratio is the
  // meaningful quantity.)
  const Scenario s = MakeScenario(80, 10, 2, 2.5, 3, /*binary=*/false);
  SlsConfig sls;
  sls.eta = 0.4;
  sls.supervision_scale = 1000.0;

  auto ratio = [&](const linalg::Matrix& h) {
    double within = 0, between = 0;
    int nw = 0, nb = 0;
    for (std::size_t i = 0; i < h.rows(); ++i) {
      for (std::size_t j = i + 1; j < h.rows(); ++j) {
        const double d = linalg::SquaredDistance(h.Row(i), h.Row(j));
        if (s.labels[i] == s.labels[j]) {
          within += d;
          ++nw;
        } else {
          between += d;
          ++nb;
        }
      }
    }
    return (within / nw) / std::max(between / nb, 1e-12);
  };

  SlsGrbm sls_model(BaseConfig(10, 6), sls, s.supervision);
  sls_model.Train(s.x);
  rbm::Grbm plain_model(BaseConfig(10, 6));
  plain_model.Train(s.x);
  EXPECT_LT(ratio(sls_model.HiddenFeatures(s.x)),
            ratio(plain_model.HiddenFeatures(s.x)));
}

TEST(SlsModelsTest, NamesIdentifyVariants) {
  const Scenario s = MakeScenario(20, 6, 2, 3.0, 4, true);
  SlsConfig sls;
  SlsRbm r(BaseConfig(6, 4), sls, s.supervision);
  SlsGrbm g(BaseConfig(6, 4), sls, s.supervision);
  EXPECT_EQ(r.name(), "sls-rbm");
  EXPECT_EQ(g.name(), "sls-grbm");
}

TEST(SlsModelsTest, ZeroScaleMatchesPlainModelWithEtaCd) {
  // With supervision_scale = 0 the only difference from a plain RBM is the
  // η scaling of the CD term.
  const Scenario s = MakeScenario(20, 6, 2, 3.0, 6, true);
  SlsConfig sls;
  sls.eta = 0.5;
  sls.supervision_scale = 0.0;
  rbm::RbmConfig base = BaseConfig(6, 4);
  base.epochs = 4;
  SlsRbm model(base, sls, s.supervision);
  model.Train(s.x);
  // Equivalent plain run: halve the learning rate (η·lr) on a plain RBM.
  rbm::RbmConfig plain_cfg = base;
  plain_cfg.learning_rate = base.learning_rate * sls.eta;
  // Weight decay interacts with lr scaling; compare against a small
  // tolerance rather than exact equality.
  rbm::Rbm plain(plain_cfg);
  plain.Train(s.x);
  EXPECT_TRUE(model.weights().AllClose(plain.weights(), 0.05));
}

TEST(SlsModelsDeathTest, EtaOutsideUnitIntervalAborts) {
  const Scenario s = MakeScenario(10, 4, 2, 3.0, 7, true);
  SlsConfig sls;
  sls.eta = 1.0;
  EXPECT_DEATH(SlsRbm(BaseConfig(4, 3), sls, s.supervision), "eta");
}

TEST(SlsModelsDeathTest, InvalidSupervisionAborts) {
  const Scenario s = MakeScenario(10, 4, 2, 3.0, 8, true);
  voting::LocalSupervision bad = s.supervision;
  bad.cluster_of[0] = 5;  // out of range for num_clusters = 2
  SlsConfig sls;
  EXPECT_DEATH(SlsRbm(BaseConfig(4, 3), sls, bad), "out of range");
}

}  // namespace
}  // namespace mcirbm::core
