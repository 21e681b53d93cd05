#include "linalg/ops.h"

#include <algorithm>
#include <cmath>

#include "linalg/ops_internal.h"
#include "parallel/thread_pool.h"

namespace mcirbm::linalg {

namespace {
constexpr std::size_t kTargetShardWork = std::size_t{1} << 16;

// Rows per shard so one shard carries ~64k multiply-adds. Depends only on
// the problem shape (never the thread count), so shard boundaries — and
// therefore results — are identical at any pool width. Small problems
// collapse to a single shard, which ParallelFor runs inline.
std::size_t RowGrain(std::size_t unit_cost) {
  return std::max<std::size_t>(
      1, kTargetShardWork / std::max<std::size_t>(1, unit_cost));
}

// GEMM register tile: kMr rows x kNr columns of C live in kMr·kNr scalar
// accumulators, which the compiler keeps in vector registers: 8 xmm in the
// baseline copy of the kernel, 4 ymm in the AVX2 copy.
constexpr std::size_t kMr = 2;
constexpr std::size_t kNr = 8;
// A GEMM shard owns a kShardRows x kShardCols block of C and walks the
// summed dimension in slices of kKc, so one packed kKc x kNr panel of the
// right operand (16 KB) stays in L1 while the left operand's tiles stream.
constexpr std::size_t kShardRows = 32;
constexpr std::size_t kShardCols = 32;
constexpr std::size_t kKc = 256;
static_assert(kShardRows % kMr == 0 && kShardCols % kNr == 0);

// A GEMM operand read as x(r, p) = base[r * row_stride + p * p_stride]:
// p runs over the summed dimension, r over C's rows (left operand) or C's
// columns (right operand). A transpose is a swap of the two strides.
struct Operand {
  const double* base;
  std::size_t row_stride;
  std::size_t p_stride;
};

// c (row-major m x n) += alpha·a · b; see GemmKernel.
struct GemmProblem {
  std::size_t m, n, k;
  double alpha;
  Operand a, b;
  double* c;
};

// PackPanel, MicroKernel and RunShards are always inlined so each copy of
// the shard loop below compiles them with its own instruction set.

// Packs rows [r0, r0 + rows) of `x`, times `scale`, into a p-major panel of
// `width` >= rows lanes: dst[p * width + r] = scale · x(r0 + r, p), with
// lanes past `rows` zero.
[[gnu::always_inline]] inline void PackPanel(const Operand& x, std::size_t r0,
                                             std::size_t rows, std::size_t k,
                                             std::size_t width, double scale,
                                             double* dst) {
  if (rows < width) std::fill(dst, dst + k * width, 0.0);
  const double* src = x.base + r0 * x.row_stride;
  for (std::size_t p = 0; p < k; ++p, src += x.p_stride, dst += width) {
    for (std::size_t r = 0; r < rows; ++r) {
      dst[r] = scale * src[r * x.row_stride];
    }
  }
}

// One full kMr x kNr tile: c(ii, jj) += Σ_p a[p][ii] · b[p][jj] for
// p = 0..k-1 in order, one accumulator per element. A wider vector only
// holds more of these independent accumulators per register.
[[gnu::always_inline]] inline void MicroKernel(std::size_t k, const double* a,
                                               const double* b, double* c,
                                               std::size_t ldc) {
  double acc[kMr][kNr] = {};
  for (std::size_t ii = 0; ii < kMr; ++ii) {
    for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] = c[ii * ldc + jj];
  }
  for (std::size_t p = 0; p < k; ++p, a += kMr, b += kNr) {
    for (std::size_t ii = 0; ii < kMr; ++ii) {
      for (std::size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += a[ii] * b[jj];
    }
  }
  for (std::size_t ii = 0; ii < kMr; ++ii) {
    for (std::size_t jj = 0; jj < kNr; ++jj) c[ii * ldc + jj] = acc[ii][jj];
  }
}

// Runs shards [s0, s1) of `g`. Shards are kShardRows x kShardCols blocks of
// c, numbered row-major. A shard walks k in slices of kKc: it packs the
// slice of alpha·a as kc x kMr tiles and of b as kc x kNr panels
// (zero-padded at the edges), then runs every tile against every panel.
// Between slices the running sums are parked in c itself; a store and
// reload of a double is exact.
[[gnu::always_inline]] inline void RunShards(const GemmProblem& g,
                                             std::size_t s0,
                                             std::size_t s1) {
  const std::size_t m = g.m, n = g.n, k = g.k;
  const std::size_t col_blocks = (n + kShardCols - 1) / kShardCols;
  const std::size_t kc_max = std::min(k, kKc);
  std::vector<double> a_tiles(kc_max * kShardRows);
  std::vector<double> b_panels(kc_max * kShardCols);
  double edge[kMr * kNr] = {};
  for (std::size_t s = s0; s < s1; ++s) {
    const std::size_t i0 = s / col_blocks * kShardRows;
    const std::size_t j0 = s % col_blocks * kShardCols;
    const std::size_t i1 = std::min(i0 + kShardRows, m);
    const std::size_t j1 = std::min(j0 + kShardCols, n);
    for (std::size_t pc = 0; pc < k; pc += kKc) {
      const std::size_t kc = std::min(kKc, k - pc);
      const Operand a_slice{g.a.base + pc * g.a.p_stride, g.a.row_stride,
                            g.a.p_stride};
      const Operand b_slice{g.b.base + pc * g.b.p_stride, g.b.row_stride,
                            g.b.p_stride};
      for (std::size_t i = i0; i < i1; i += kMr) {
        PackPanel(a_slice, i, std::min(kMr, i1 - i), kc, kMr, g.alpha,
                  a_tiles.data() + (i - i0) * kc);
      }
      for (std::size_t j = j0; j < j1; j += kNr) {
        PackPanel(b_slice, j, std::min(kNr, j1 - j), kc, kNr, 1.0,
                  b_panels.data() + (j - j0) * kc);
      }
      for (std::size_t j = j0; j < j1; j += kNr) {
        const std::size_t nr = std::min(kNr, j1 - j);
        const double* b_panel = b_panels.data() + (j - j0) * kc;
        for (std::size_t i = i0; i < i1; i += kMr) {
          const std::size_t mr = std::min(kMr, i1 - i);
          const double* a_tile = a_tiles.data() + (i - i0) * kc;
          double* ct = g.c + i * n + j;
          if (mr == kMr && nr == kNr) {
            MicroKernel(kc, a_tile, b_panel, ct, n);
            continue;
          }
          // Edge tile: run the full kernel on a staging copy; the
          // padded lanes multiply packed zeros and are discarded.
          for (std::size_t ii = 0; ii < mr; ++ii) {
            std::copy_n(ct + ii * n, nr, edge + ii * kNr);
          }
          MicroKernel(kc, a_tile, b_panel, edge, kNr);
          for (std::size_t ii = 0; ii < mr; ++ii) {
            std::copy_n(edge + ii * kNr, nr, ct + ii * n);
          }
        }
      }
    }
  }
}

// The shard loop, compiled once per instruction set from the one source
// above. The AVX2 copy enables exactly "avx2": never "fma" or
// "arch=x86-64-v3" (which implies FMA), so a product and its sum stay two
// roundings, as in the baseline copy.
using ShardLoop = void (*)(const GemmProblem&, std::size_t, std::size_t);

void RunShardsBaseline(const GemmProblem& g, std::size_t s0,
                       std::size_t s1) {
  RunShards(g, s0, s1);
}

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define MCIRBM_GEMM_AVX2 1
[[gnu::target("avx2")]] void RunShardsAvx2(const GemmProblem& g,
                                           std::size_t s0, std::size_t s1) {
  RunShards(g, s0, s1);
}
#endif

ShardLoop ShardLoopFor(internal::GemmBuild build) {
  MCIRBM_CHECK(internal::GemmBuildRuns(build))
      << "GEMM build not runnable on this CPU";
#ifdef MCIRBM_GEMM_AVX2
  if (build == internal::GemmBuild::kAvx2) return RunShardsAvx2;
#endif
  return RunShardsBaseline;
}

// c (row-major m x n) += alpha·a · b, i.e. every element becomes
//   c(i,j) + (alpha·a(i,0))·b(0,j) + ... + (alpha·a(i,k-1))·b(k-1,j),
// summed left to right in one accumulator. That sequence depends only on
// row i of a and column j of b — not on m, n, the tile, the shard, the
// thread count or the compiled copy — so results are bit-identical at any
// pool width, on any CPU, and for any row subset of a.
void GemmKernel(internal::GemmBuild build, const GemmProblem& g) {
  if (g.m == 0 || g.n == 0 || g.k == 0) return;
  const ShardLoop shards = ShardLoopFor(build);
  const std::size_t blocks = (g.m + kShardRows - 1) / kShardRows *
                             ((g.n + kShardCols - 1) / kShardCols);
  // Whole blocks per shard so a shard carries >= kTargetShardWork
  // multiply-adds; a product smaller than that runs inline.
  const std::size_t block_work =
      std::min(g.m, kShardRows) * std::min(g.n, kShardCols) * g.k;
  const std::size_t grain =
      (kTargetShardWork + block_work - 1) / block_work;
  parallel::ParallelFor(blocks, grain, [&](std::size_t s0, std::size_t s1) {
    shards(g, s0, s1);
  });
}
}  // namespace

namespace internal {

bool GemmBuildRuns(GemmBuild build) {
  if (build == GemmBuild::kBaseline) return true;
#ifdef MCIRBM_GEMM_AVX2
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
#else
  return false;
#endif
}

GemmBuild SelectedGemmBuild() {
  static const GemmBuild build = GemmBuildRuns(GemmBuild::kAvx2)
                                     ? GemmBuild::kAvx2
                                     : GemmBuild::kBaseline;
  return build;
}

Matrix Gemm(GemmBuild build, const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.cols(), b.rows()) << "Gemm shape mismatch";
  const std::size_t m = a.rows(), k = a.cols(), n = b.cols();
  Matrix c(m, n);
  GemmKernel(build, {m, n, k, 1.0, {a.data(), k, 1}, {b.data(), 1, n},
                     c.data()});
  return c;
}

Matrix GemmTransA(GemmBuild build, const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows()) << "GemmTransA shape mismatch";
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  Matrix c(m, n);
  GemmKernel(build, {m, n, k, 1.0, {a.data(), 1, m}, {b.data(), 1, n},
                     c.data()});
  return c;
}

Matrix GemmTransB(GemmBuild build, const Matrix& a, const Matrix& b) {
  MCIRBM_CHECK_EQ(a.cols(), b.cols()) << "GemmTransB shape mismatch";
  const std::size_t m = a.rows(), k = a.cols(), n = b.rows();
  Matrix c(m, n);
  GemmKernel(build, {m, n, k, 1.0, {a.data(), k, 1}, {b.data(), k, 1},
                     c.data()});
  return c;
}

void AccumulateGemmTransA(GemmBuild build, double alpha, const Matrix& a,
                          const Matrix& b, Matrix* out) {
  MCIRBM_CHECK_EQ(a.rows(), b.rows());
  MCIRBM_CHECK(out->rows() == a.cols() && out->cols() == b.cols());
  const std::size_t k = a.rows(), m = a.cols(), n = b.cols();
  GemmKernel(build, {m, n, k, alpha, {a.data(), 1, m}, {b.data(), 1, n},
                     out->data()});
}

}  // namespace internal

Matrix Gemm(const Matrix& a, const Matrix& b) {
  return internal::Gemm(internal::SelectedGemmBuild(), a, b);
}

Matrix GemmTransA(const Matrix& a, const Matrix& b) {
  return internal::GemmTransA(internal::SelectedGemmBuild(), a, b);
}

Matrix GemmTransB(const Matrix& a, const Matrix& b) {
  return internal::GemmTransB(internal::SelectedGemmBuild(), a, b);
}

void AccumulateGemmTransA(double alpha, const Matrix& a, const Matrix& b,
                          Matrix* out) {
  internal::AccumulateGemmTransA(internal::SelectedGemmBuild(), alpha, a, b,
                                 out);
}

std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x) {
  MCIRBM_CHECK_EQ(a.cols(), x.size());
  std::vector<double> y(a.rows(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double* row = a.data() + i * a.cols();
    double s = 0;
    for (std::size_t j = 0; j < a.cols(); ++j) s += row[j] * x[j];
    y[i] = s;
  }
  return y;
}

std::vector<double> MatTVec(const Matrix& a, const std::vector<double>& x) {
  MCIRBM_CHECK_EQ(a.rows(), x.size());
  std::vector<double> y(a.cols(), 0.0);
  for (std::size_t i = 0; i < a.rows(); ++i) {
    const double xi = x[i];
    if (xi == 0.0) continue;
    const double* row = a.data() + i * a.cols();
    for (std::size_t j = 0; j < a.cols(); ++j) y[j] += xi * row[j];
  }
  return y;
}

void AddRowVector(Matrix* m, const std::vector<double>& v) {
  MCIRBM_CHECK_EQ(m->cols(), v.size());
  const std::size_t cols = m->cols();
  parallel::ParallelFor(
      m->rows(), RowGrain(cols), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          double* row = m->data() + i * cols;
          for (std::size_t j = 0; j < cols; ++j) row[j] += v[j];
        }
      });
}

std::vector<double> ColSums(const Matrix& m) {
  std::vector<double> s(m.cols(), 0.0);
  // Partitioned by *column*: each shard owns a column slice and walks the
  // rows in order, so every s[j] accumulates in exactly the serial order.
  const std::size_t rows = m.rows(), cols = m.cols();
  parallel::ParallelFor(
      cols, RowGrain(rows), [&](std::size_t j0, std::size_t j1) {
        for (std::size_t i = 0; i < rows; ++i) {
          const double* row = m.data() + i * cols;
          for (std::size_t j = j0; j < j1; ++j) s[j] += row[j];
        }
      });
  return s;
}

std::vector<double> ColMeans(const Matrix& m) {
  MCIRBM_CHECK_GT(m.rows(), 0u);
  std::vector<double> s = ColSums(m);
  for (double& v : s) v /= static_cast<double>(m.rows());
  return s;
}

std::vector<double> RowSums(const Matrix& m) {
  std::vector<double> s(m.rows(), 0.0);
  const std::size_t cols = m.cols();
  parallel::ParallelFor(
      m.rows(), RowGrain(cols), [&](std::size_t i0, std::size_t i1) {
        for (std::size_t i = i0; i < i1; ++i) {
          const double* row = m.data() + i * cols;
          double acc = 0;
          for (std::size_t j = 0; j < cols; ++j) acc += row[j];
          s[i] = acc;
        }
      });
  return s;
}

void Apply(Matrix* m, const std::function<double(double)>& f) {
  double* p = m->data();
  const std::size_t n = m->size();
  parallel::ParallelFor(n, RowGrain(4), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) p[i] = f(p[i]);
  });
}

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

void SigmoidInPlace(Matrix* m) {
  double* p = m->data();
  const std::size_t n = m->size();
  parallel::ParallelFor(n, RowGrain(8), [&](std::size_t b, std::size_t e) {
    for (std::size_t i = b; i < e; ++i) p[i] = Sigmoid(p[i]);
  });
}

Matrix SigmoidDeriv(const Matrix& a) {
  Matrix d(a.rows(), a.cols());
  const double* src = a.data();
  double* dst = d.data();
  parallel::ParallelFor(
      a.size(), RowGrain(4), [&](std::size_t b, std::size_t e) {
        for (std::size_t i = b; i < e; ++i) dst[i] = src[i] * (1 - src[i]);
      });
  return d;
}

double SquaredDistance(std::span<const double> a,
                       std::span<const double> b) {
  MCIRBM_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return s;
}

Matrix PairwiseSquaredDistances(const Matrix& m) {
  const std::size_t n = m.rows();
  // The Gram matrix is overwritten by the distances in place; its diagonal
  // is copied out first because every row reads all of it.
  Matrix d = GemmTransB(m, m);  // n x n
  std::vector<double> sq(n);
  for (std::size_t i = 0; i < n; ++i) sq[i] = d(i, i);
  // Full-row expansion (rather than mirrored upper-triangle writes) keeps
  // every element owned by exactly one row shard; the symmetric formula
  // yields the identical value for (i,j) and (j,i).
  parallel::ParallelFor(n, RowGrain(n), [&](std::size_t i0, std::size_t i1) {
    for (std::size_t i = i0; i < i1; ++i) {
      double* drow = d.data() + i * n;
      for (std::size_t j = 0; j < n; ++j) {
        double v = sq[i] + sq[j] - 2.0 * drow[j];
        if (v < 0) v = 0;  // numeric guard
        drow[j] = v;
      }
      drow[i] = 0.0;
    }
  });
  return d;
}

double Dot(std::span<const double> a, std::span<const double> b) {
  MCIRBM_DCHECK(a.size() == b.size());
  double s = 0;
  for (std::size_t i = 0; i < a.size(); ++i) s += a[i] * b[i];
  return s;
}

}  // namespace mcirbm::linalg
