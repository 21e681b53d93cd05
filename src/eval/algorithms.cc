#include "eval/algorithms.h"

#include <string>

#include "clustering/registry.h"
#include "util/check.h"
#include "util/param_map.h"

namespace mcirbm::eval {

const char* ClustererKindName(ClustererKind kind) {
  switch (kind) {
    case ClustererKind::kDensityPeaks:
      return "DP";
    case ClustererKind::kKMeans:
      return "K-means";
    case ClustererKind::kAffinityProp:
      return "AP";
  }
  return "?";
}

clustering::ClusteringResult RunClusterer(ClustererKind kind,
                                          const linalg::Matrix& x, int k,
                                          std::uint64_t seed) {
  ParamMap params;
  params.Set("k", std::to_string(k));
  const char* name = nullptr;
  switch (kind) {
    case ClustererKind::kDensityPeaks:
      name = "dp";
      break;
    case ClustererKind::kKMeans:
      // Best-of-3 restarts by SSE (single-run matches MATLAB-era
      // defaults).
      name = "kmeans";
      break;
    case ClustererKind::kAffinityProp:
      name = "ap";
      break;
  }
  MCIRBM_CHECK(name != nullptr) << "unreachable";
  auto clusterer =
      clustering::ClustererRegistry::Global().Create(name, params);
  MCIRBM_CHECK(clusterer.ok()) << clusterer.status().ToString();
  return clusterer.value()->Cluster(x, seed);
}

}  // namespace mcirbm::eval
