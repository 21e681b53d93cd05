#include "linalg/eigen.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "util/check.h"

namespace mcirbm::linalg {
namespace {

// EISPACK's per-eigenvalue QL iteration cap.
constexpr int kMaxQlIterations = 30;

void ValidateSymmetric(const Matrix& a) {
  MCIRBM_CHECK_EQ(a.rows(), a.cols()) << "eigensolver needs a square matrix";
  double max_abs = 0;
  double max_asym = 0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = i; j < a.cols(); ++j) {
      MCIRBM_CHECK(std::isfinite(a(i, j)) && std::isfinite(a(j, i)))
          << "eigensolver input has a non-finite entry at (" << i << ","
          << j << ")";
      max_abs = std::max(max_abs, std::abs(a(i, j)));
      max_asym = std::max(max_asym, std::abs(a(i, j) - a(j, i)));
    }
  }
  MCIRBM_CHECK_LE(max_asym, 1e-9 * std::max(1.0, max_abs))
      << "eigensolver input is not symmetric";
}

// Householder reduction of the symmetric matrix held in `a`'s lower
// triangle to tridiagonal form T = Qᵀ·A·Q (the upper triangle is never
// read). Step i (from n-1 down) reflects row i's sub-diagonal part onto
// its last entry with P_i = I − u·uᵀ/h[i], u stored over row i's lower
// part, and applies P_i to the leading i×i block as the rank-2 update
// A −= q·uᵀ + u·qᵀ. Every pass walks rows of the lower triangle. Leaves
// T's diagonal in `d`, its sub-diagonal in `e` (e[i] couples rows i-1
// and i; e[0] = 0) and h[i] = 0 where no reflection was needed.
void Tridiagonalize(Matrix* a, std::vector<double>* d, std::vector<double>* e,
                    std::vector<double>* h) {
  const std::size_t n = a->rows();
  std::vector<double> q(n);
  for (std::size_t i = n - 1; i >= 1; --i) {
    double* u = a->data() + i * n;
    double scale = 0;
    for (std::size_t k = 0; k < i; ++k) scale += std::abs(u[k]);
    (*h)[i] = 0;
    if (i == 1 || scale == 0) {
      (*e)[i] = u[i - 1];
    } else {
      // Scaling by the 1-norm keeps the sum of squares in range.
      double sigma2 = 0;
      for (std::size_t k = 0; k < i; ++k) {
        u[k] /= scale;
        sigma2 += u[k] * u[k];
      }
      const double f = u[i - 1];
      const double g = f >= 0 ? -std::sqrt(sigma2) : std::sqrt(sigma2);
      (*e)[i] = scale * g;
      const double hi = sigma2 - f * g;  // = uᵀu / 2
      u[i - 1] = f - g;
      // q = A·u over the leading block, read row by row from the lower
      // triangle: row j supplies A(j,k≤j)·u(k) to q(j) and, by symmetry,
      // A(j,k<j)·u(j) to q(k).
      std::fill(q.begin(), q.begin() + i, 0.0);
      for (std::size_t j = 0; j < i; ++j) {
        const double* row = a->data() + j * n;
        const double uj = u[j];
        double dot = row[j] * uj;
        for (std::size_t k = 0; k < j; ++k) {
          dot += row[k] * u[k];
          q[k] += row[k] * uj;
        }
        q[j] += dot;
      }
      // p = A·u / h, then q = p − (uᵀp / 2h)·u.
      double up = 0;
      for (std::size_t j = 0; j < i; ++j) {
        q[j] /= hi;
        up += u[j] * q[j];
      }
      const double kk = up / (hi + hi);
      for (std::size_t j = 0; j < i; ++j) q[j] -= kk * u[j];
      for (std::size_t j = 0; j < i; ++j) {
        double* row = a->data() + j * n;
        const double qj = q[j];
        const double uj = u[j];
        for (std::size_t k = 0; k <= j; ++k) {
          row[k] -= qj * u[k] + uj * q[k];
        }
      }
      (*h)[i] = hi;
    }
    (*d)[i] = u[i];
  }
  (*d)[0] = (*a)(0, 0);
  (*e)[0] = 0;
}

// Overwrites `a` (holding Tridiagonalize's reflectors) with Qᵀ =
// P_1·P_2···P_{n-1}, built by right-multiplying one reflector at a time.
// P_1···P_{k-1} is the identity outside its leading k-1 rows and
// columns, so P_k only touches rows 0..k-1, each as one dot product and
// one axpy over its first k entries; row k still holds u_k until then.
void AccumulateReflectors(const std::vector<double>& h, Matrix* a) {
  const std::size_t n = a->rows();
  for (std::size_t k = 1; k < n; ++k) {
    auto prev = a->Row(k - 1);
    std::fill(prev.begin(), prev.end(), 0.0);
    prev[k - 1] = 1.0;
    if (h[k] == 0) continue;
    const double* u = a->data() + k * n;
    for (std::size_t r = 0; r < k; ++r) {
      double* row = a->data() + r * n;
      double g = 0;
      for (std::size_t c = 0; c < k; ++c) g += row[c] * u[c];
      g /= h[k];
      for (std::size_t c = 0; c < k; ++c) row[c] -= g * u[c];
    }
  }
  auto last = a->Row(n - 1);
  std::fill(last.begin(), last.end(), 0.0);
  last[n - 1] = 1.0;
}

// Implicit-shift QL on the tridiagonal (d, e), applying every Givens
// rotation to `w`, whose rows start as Qᵀ. Row j of `w` ends as the
// eigenvector for d[j]: rotating rows rather than columns of the
// eigenvector matrix keeps each update on two contiguous rows. Returns
// false if an eigenvalue needs more than kMaxQlIterations iterations.
bool TridiagonalQl(std::vector<double>* d_ptr, std::vector<double>* e_ptr,
                   Matrix* w) {
  std::vector<double>& d = *d_ptr;
  std::vector<double>& e = *e_ptr;
  const std::size_t n = d.size();
  // Re-index so e[i] couples d[i] and d[i+1].
  for (std::size_t i = 1; i < n; ++i) e[i - 1] = e[i];
  e[n - 1] = 0;

  const double eps = std::numeric_limits<double>::epsilon();
  double shift_sum = 0;
  double tst1 = 0;
  for (std::size_t l = 0; l < n; ++l) {
    // Find the first negligible sub-diagonal element at or after l.
    tst1 = std::max(tst1, std::abs(d[l]) + std::abs(e[l]));
    std::size_t m = l;
    while (m + 1 < n && std::abs(e[m]) > eps * tst1) ++m;

    if (m > l) {
      int iterations = 0;
      do {
        if (++iterations > kMaxQlIterations) return false;
        // Shift by the eigenvalue of the leading 2×2 block nearer d[l].
        const double g0 = d[l];
        double p = (d[l + 1] - g0) / (2 * e[l]);
        double r = std::hypot(p, 1.0);
        if (p < 0) r = -r;
        d[l] = e[l] / (p + r);
        d[l + 1] = e[l] * (p + r);
        const double dl1 = d[l + 1];
        const double shift = g0 - d[l];
        for (std::size_t i = l + 2; i < n; ++i) d[i] -= shift;
        shift_sum += shift;

        // Chase the bulge from m-1 up to l.
        p = d[m];
        double c = 1, c2 = 1, c3 = 1;
        const double el1 = e[l + 1];
        double s = 0, s2 = 0;
        for (std::size_t i = m; i-- > l;) {
          c3 = c2;
          c2 = c;
          s2 = s;
          const double g = c * e[i];
          const double hp = c * p;
          r = std::hypot(p, e[i]);
          e[i + 1] = s * r;
          s = e[i] / r;
          c = p / r;
          p = c * d[i] - s * g;
          d[i + 1] = hp + s * (c * g + s * d[i]);
          double* wi = w->data() + i * n;
          double* wi1 = wi + n;
          for (std::size_t k = 0; k < n; ++k) {
            const double t = wi1[k];
            wi1[k] = s * wi[k] + c * t;
            wi[k] = c * wi[k] - s * t;
          }
        }
        p = -s * s2 * c3 * el1 * e[l] / dl1;
        e[l] = s * p;
        d[l] = c * p;
      } while (std::abs(e[l]) > eps * tst1);
    }
    d[l] += shift_sum;
    e[l] = 0;
  }
  return true;
}

}  // namespace

EigenDecomposition SymmetricEigen(Matrix a) {
  ValidateSymmetric(a);
  const std::size_t n = a.rows();
  EigenDecomposition out;
  if (n == 0) {
    out.converged = true;
    return out;
  }

  std::vector<double> d(n), e(n), h(n);
  Tridiagonalize(&a, &d, &e, &h);
  AccumulateReflectors(h, &a);
  out.converged = TridiagonalQl(&d, &e, &a);

  // Sign convention: each eigenvector's largest-|·| entry (first on
  // ties) is positive.
  for (std::size_t j = 0; j < n; ++j) {
    auto row = a.Row(j);
    std::size_t arg = 0;
    for (std::size_t k = 1; k < n; ++k) {
      if (std::abs(row[k]) > std::abs(row[arg])) arg = k;
    }
    if (row[arg] < 0) {
      for (double& v : row) v = -v;
    }
  }

  // Rows of `a` are eigenvectors; transpose in place so they become
  // columns, then gather each row's columns into descending-eigenvalue
  // order (stable on ties).
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) std::swap(a(i, j), a(j, i));
  }
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t x, std::size_t y) { return d[x] > d[y]; });
  out.values.resize(n);
  for (std::size_t j = 0; j < n; ++j) out.values[j] = d[order[j]];
  std::vector<double> gathered(n);
  for (std::size_t i = 0; i < n; ++i) {
    auto row = a.Row(i);
    for (std::size_t j = 0; j < n; ++j) gathered[j] = row[order[j]];
    std::copy(gathered.begin(), gathered.end(), row.begin());
  }
  out.vectors = std::move(a);
  return out;
}

Matrix TopEigenvectors(const EigenDecomposition& eig, std::size_t k) {
  const std::size_t n = eig.vectors.rows();
  MCIRBM_CHECK_LE(k, n) << "asking for more eigenvectors than exist";
  Matrix out(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) out(i, j) = eig.vectors(i, j);
  }
  return out;
}

Matrix BottomEigenvectors(const EigenDecomposition& eig, std::size_t k) {
  const std::size_t n = eig.vectors.rows();
  MCIRBM_CHECK_LE(k, n) << "asking for more eigenvectors than exist";
  Matrix out(n, k);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < k; ++j) {
      // Column n-1-j holds the (j+1)-th smallest eigenvalue's vector;
      // emit them in ascending-eigenvalue order.
      out(i, j) = eig.vectors(i, n - 1 - j);
    }
  }
  return out;
}

}  // namespace mcirbm::linalg
