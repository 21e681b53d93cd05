// Symmetric eigendecomposition: Householder tridiagonalization followed by
// implicit-shift QL with eigenvector accumulation (tred2/tql2; Golub &
// Van Loan §8.3).
//
// The spectral-clustering substrate and the PCA module need eigenpairs of
// dense symmetric matrices (covariance / graph Laplacians, n up to ~1k).
// The solver is serial and O(n³) with small constants: callers already
// run it inside a parallel fan-out (one spectral voter among several), so
// it owns no thread-pool dispatch. Both phases update contiguous rows.
#ifndef MCIRBM_LINALG_EIGEN_H_
#define MCIRBM_LINALG_EIGEN_H_

#include <vector>

#include "linalg/matrix.h"

namespace mcirbm::linalg {

/// Eigenpairs of a symmetric matrix.
struct EigenDecomposition {
  /// Eigenvalues in descending order.
  std::vector<double> values;
  /// Column j of `vectors` is the unit eigenvector for values[j], signed
  /// so that its largest-magnitude entry (lowest index on ties) is
  /// positive.
  Matrix vectors;
  /// False when some eigenvalue needed more than 30 QL iterations; the
  /// remaining fields are then unreliable.
  bool converged = false;
};

/// Decomposes a symmetric matrix `a` (validated: squareness, finiteness,
/// symmetry up to 1e-9 relative). Takes `a` by value and works in its
/// buffer, so callers that are done with the matrix can `std::move` it
/// in. Returns eigenvalues sorted descending with matching eigenvector
/// columns.
EigenDecomposition SymmetricEigen(Matrix a);

/// The `k` eigenvector columns with the largest eigenvalues, as an
/// n x k matrix (convenience for PCA / spectral embedding).
Matrix TopEigenvectors(const EigenDecomposition& eig, std::size_t k);

/// The `k` eigenvector columns with the smallest eigenvalues (ascending),
/// as an n x k matrix (convenience for Laplacian embeddings).
Matrix BottomEigenvectors(const EigenDecomposition& eig, std::size_t k);

}  // namespace mcirbm::linalg

#endif  // MCIRBM_LINALG_EIGEN_H_
