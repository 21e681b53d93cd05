// Matrix kernels: GEMM variants, row/column reductions, element maps.
//
// GEMM variants are named by operand orientation so call sites read like the
// math: Gemm(A,B) = A·B; GemmTransA(A,B) = Aᵀ·B; GemmTransB(A,B) = A·Bᵀ.
// All four are wrappers over one packed, register-blocked kernel (Goto &
// van de Geijn, "Anatomy of High-Performance Matrix Multiplication", ACM
// TOMS 2008): each shard of C packs zero-padded panels of both operands and
// runs a 2x8 tile of scalar accumulators that g++ auto-vectorizes to SSE2.
//
// Per-element order contract: every C(i,j) starts from its initial value
// (0, or `out` for AccumulateGemmTransA) and adds a(i,p)·b(p,j) for
// p = 0..k-1 in ascending order into one accumulator; the accumulating
// variant multiplies alpha into a(i,p) first. That sequence depends only on
// row i of A and column j of B — never on the matrix shape, tile, shard or
// thread count — so results are bit-identical at any pool width, and a row
// of A·B computed on a row subset of A equals the same row of the full
// product (serve's row-independence rests on this). Splitting k across
// accumulators, FMA contraction, -ffast-math or -march would each change
// bits, so none is used.
#ifndef MCIRBM_LINALG_OPS_H_
#define MCIRBM_LINALG_OPS_H_

#include <functional>
#include <vector>

#include "linalg/matrix.h"

namespace mcirbm::linalg {

/// C = A·B. Shapes: (m,k)·(k,n) -> (m,n).
Matrix Gemm(const Matrix& a, const Matrix& b);

/// C = Aᵀ·B. Shapes: (k,m)ᵀ·(k,n) -> (m,n).
Matrix GemmTransA(const Matrix& a, const Matrix& b);

/// C = A·Bᵀ. Shapes: (m,k)·(n,k)ᵀ -> (m,n).
Matrix GemmTransB(const Matrix& a, const Matrix& b);

/// out += alpha · Aᵀ·B (accumulating version used by gradient code).
void AccumulateGemmTransA(double alpha, const Matrix& a, const Matrix& b,
                          Matrix* out);

/// y = A·x for a row-major matrix and dense vector (length cols()).
std::vector<double> MatVec(const Matrix& a, const std::vector<double>& x);

/// y = Aᵀ·x (x has length rows()).
std::vector<double> MatTVec(const Matrix& a, const std::vector<double>& x);

/// Adds `v` (length cols) to every row of `m` in place.
void AddRowVector(Matrix* m, const std::vector<double>& v);

/// Column sums: length cols().
std::vector<double> ColSums(const Matrix& m);

/// Column means: length cols(); requires rows() > 0.
std::vector<double> ColMeans(const Matrix& m);

/// Row sums: length rows().
std::vector<double> RowSums(const Matrix& m);

/// Applies f element-wise in place.
void Apply(Matrix* m, const std::function<double(double)>& f);

/// Element-wise logistic sigmoid, numerically stable for large |x|.
double Sigmoid(double x);

/// Applies the logistic sigmoid element-wise in place.
void SigmoidInPlace(Matrix* m);

/// out(i,j) = a(i,j) * (1 - a(i,j)); the sigmoid derivative given sigmoid
/// activations. Used heavily by the sls gradient.
Matrix SigmoidDeriv(const Matrix& a);

/// Squared Euclidean distance between two equal-length spans.
double SquaredDistance(std::span<const double> a, std::span<const double> b);

/// Dense pairwise squared-distance matrix between rows of `m` (n x n,
/// symmetric, zero diagonal). Uses the expansion |a|²+|b|²−2a·b with a GEMM
/// and writes the distances over the Gram buffer (one n x n allocation).
Matrix PairwiseSquaredDistances(const Matrix& m);

/// Dot product of two equal-length spans.
double Dot(std::span<const double> a, std::span<const double> b);

}  // namespace mcirbm::linalg

#endif  // MCIRBM_LINALG_OPS_H_
