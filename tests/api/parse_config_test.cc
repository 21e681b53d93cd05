// ParseConfig / ParsePipelineSpec error paths and Model::Load rejection of
// malformed, truncated, and too-new model files.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <string>

#include "api/api.h"

namespace mcirbm::api {
namespace {

TEST(ParseConfigTest, AppliesKeysOverBase) {
  core::PipelineConfig base;
  base.rbm.num_hidden = 7;
  auto config = ParseConfig(
      "model = sls-rbm\n"
      "# comment line\n"
      "rbm.epochs = 3\n"
      "sls.eta = 0.25\n"
      "supervision.voters = dp,kmeans*2\n",
      base);
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  EXPECT_EQ(config.value().model, core::ModelKind::kSlsRbm);
  EXPECT_EQ(config.value().rbm.num_hidden, 7);  // untouched base value
  EXPECT_EQ(config.value().rbm.epochs, 3);
  EXPECT_DOUBLE_EQ(config.value().sls.eta, 0.25);
  ASSERT_EQ(config.value().supervision.voters.size(), 2u);
  EXPECT_EQ(config.value().supervision.voters[1].count, 2);
}

TEST(ParseConfigTest, LaterLinesWin) {
  auto config = ParseConfig("rbm.epochs = 3\nrbm.epochs = 9\n");
  ASSERT_TRUE(config.ok());
  EXPECT_EQ(config.value().rbm.epochs, 9);
}

TEST(ParseConfigTest, UnknownKeyIsNotFoundWithLineNumber) {
  for (const char* line :
       {"rbm.bogus = 1\n", "parallel.deterministic = false\n",
        "sls.use_fast_gradient = false\n"}) {
    auto config = ParseConfig(std::string("rbm.epochs = 3\n") + line);
    ASSERT_FALSE(config.ok()) << line;
    EXPECT_EQ(config.status().code(), StatusCode::kNotFound) << line;
    EXPECT_NE(config.status().message().find("line 2"), std::string::npos)
        << config.status().ToString();
  }
}

TEST(ParseConfigTest, MalformedValueIsParseError) {
  auto config = ParseConfig("rbm.epochs = three\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kParseError);
}

TEST(ParseConfigTest, LineWithoutEqualsRejected) {
  auto config = ParseConfig("just some words\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kParseError);
}

TEST(ParseConfigTest, UnknownModelNameRejected) {
  auto config = ParseConfig("model = autoencoder\n");
  ASSERT_FALSE(config.ok());
  EXPECT_EQ(config.status().code(), StatusCode::kNotFound);
}

TEST(ParseConfigTest, BadEnumValuesRejected) {
  EXPECT_EQ(ParseConfig("rbm.weight_init = xavier\n").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(ParseConfig("supervision.strategy = plurality\n").status().code(),
            StatusCode::kParseError);
}

TEST(ParsePipelineSpecTest, RequiresExactlyOneDataSource) {
  auto neither = ParsePipelineSpec("rbm.epochs = 2\n");
  ASSERT_FALSE(neither.ok());
  EXPECT_EQ(neither.status().code(), StatusCode::kInvalidArgument);

  auto both = ParsePipelineSpec(
      "data.path = x.csv\ndata.family = uci\ndata.index = 0\n");
  ASSERT_FALSE(both.ok());
  EXPECT_EQ(both.status().code(), StatusCode::kInvalidArgument);
}

TEST(ParsePipelineSpecTest, ModelKeySelectsFamilyBaseConfig) {
  auto grbm = ParsePipelineSpec("data.family = uci\nmodel = sls-grbm\n");
  ASSERT_TRUE(grbm.ok()) << grbm.status().ToString();
  auto rbm = ParsePipelineSpec("data.family = uci\nmodel = sls-rbm\n");
  ASSERT_TRUE(rbm.ok()) << rbm.status().ToString();
  // The paper uses different family hyper-parameters; the spec should have
  // picked them up before any overrides.
  EXPECT_NE(grbm.value().config.rbm.learning_rate,
            rbm.value().config.rbm.learning_rate);
}

TEST(ParsePipelineSpecTest, RejectsBadSpecValues) {
  EXPECT_EQ(
      ParsePipelineSpec("data.family = imagenet\n").status().code(),
      StatusCode::kParseError);
  EXPECT_EQ(ParsePipelineSpec("data.family = uci\ndata.transform = fft\n")
                .status()
                .code(),
            StatusCode::kParseError);
  EXPECT_EQ(
      ParsePipelineSpec("data.family = uci\neval.clusterer = birch\n")
          .status()
          .code(),
      StatusCode::kNotFound);
  EXPECT_EQ(
      ParsePipelineSpec("data.family = uci\ndata.max_instances = -5\n")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  EXPECT_EQ(
      ParsePipelineSpec("data.family = uci\nparallel.threads = -2\n")
          .status()
          .code(),
      StatusCode::kInvalidArgument);
  // 0 keeps the current pool.
  EXPECT_TRUE(
      ParsePipelineSpec("data.family = uci\nparallel.threads = 0\n").ok());
}

TEST(ParsePipelineSpecFileTest, MissingFileIsIoError) {
  auto spec = ParsePipelineSpecFile("/nonexistent/run.cfg");
  ASSERT_FALSE(spec.ok());
  EXPECT_EQ(spec.status().code(), StatusCode::kIoError);
}

class ModelLoadErrorTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "/api_model_load_error_test.mcirbm";
  }
  void TearDown() override { std::remove(path_.c_str()); }

  void WriteFile(const std::string& contents) {
    std::ofstream out(path_);
    out << contents;
  }

  std::string path_;
};

TEST_F(ModelLoadErrorTest, MissingFileIsIoError) {
  auto model = Model::Load("/nonexistent/model.mcirbm");
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kIoError);
}

TEST_F(ModelLoadErrorTest, EmptyFileRejected) {
  WriteFile("");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, GarbageMagicRejected) {
  WriteFile("definitely not a model\n1 2 3\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, NewerFormatVersionRejected) {
  WriteFile("mcirbm-model v999\nkind: rbm\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineValidationTest, BadCdKFromConfigIsStatusNotAbort) {
  auto config = ParseConfig("rbm.cd_k = 0\n");
  ASSERT_TRUE(config.ok()) << config.status().ToString();
  linalg::Matrix x(8, 3);
  auto model = Model::Train(x, config.value(), 1);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kInvalidArgument);
}

TEST(PipelineValidationTest, RegistryRejectsBadHyperParameters) {
  auto& registry = ModelRegistry::Global();
  EXPECT_EQ(registry.Create("rbm", {{"visible", "4"}, {"cd_k", "0"}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("rbm", {{"visible", "4"}, {"lr", "-1"}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(registry.Create("rbm", {{"visible", "4"}, {"epochs", "-2"}})
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  voting::LocalSupervision sup;
  sup.cluster_of = {0, 0, 1, 1};
  sup.num_clusters = 2;
  EXPECT_EQ(registry
                .Create("sls-rbm",
                        {{"visible", "4"}, {"scale", "-1"}}, sup)
                .status()
                .code(),
            StatusCode::kInvalidArgument);
}

TEST_F(ModelLoadErrorTest, MissingKindHeaderRejected) {
  WriteFile("mcirbm-model v1\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, ImplausibleShapeRejectedNotAborted) {
  // A corrupted shape line must not overflow the int narrowing in
  // LoadInferenceModel or attempt a giant allocation.
  WriteFile("mcirbm-model v1\nkind: rbm\nmcirbm-rbm v1\nrbm\n"
            "2147483648 4\na: 0\nb: 0\nW:\n0\n");
  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());
  EXPECT_EQ(model.status().code(), StatusCode::kParseError);
}

TEST_F(ModelLoadErrorTest, TruncatedPayloadRejected) {
  // Train a real tiny model, save it, then chop the file mid-payload.
  linalg::Matrix x(12, 4);
  for (std::size_t i = 0; i < x.rows(); ++i) {
    for (std::size_t j = 0; j < x.cols(); ++j) {
      x(i, j) = static_cast<double>((i * 7 + j * 3) % 5) / 5.0;
    }
  }
  core::PipelineConfig config;
  config.model = core::ModelKind::kRbm;
  config.rbm.num_hidden = 3;
  config.rbm.epochs = 1;
  auto trained = Model::Train(x, config, 5);
  ASSERT_TRUE(trained.ok()) << trained.status().ToString();
  ASSERT_TRUE(trained.value().Save(path_).ok());

  std::string contents;
  {
    std::ifstream in(path_);
    contents.assign(std::istreambuf_iterator<char>(in),
                    std::istreambuf_iterator<char>());
  }
  ASSERT_GT(contents.size(), 40u);
  WriteFile(contents.substr(0, contents.size() / 2));

  auto model = Model::Load(path_);
  ASSERT_FALSE(model.ok());  // must not abort
}

}  // namespace
}  // namespace mcirbm::api
