// Test-only access to each compiled copy of the GEMM kernel in ops.cc.
//
// ops.cc builds the kernel's shard loop once for the baseline target and,
// on x86-64 GCC/Clang, once more for AVX2. The public GEMM variants
// in ops.h run the copy picked once per process by the CPU; these entry
// points run a named copy, so a test can hold every copy the CPU can run
// to the per-element order contract in ops.h. Only tests include this
// header; nothing switches copies at run time.
#ifndef MCIRBM_LINALG_OPS_INTERNAL_H_
#define MCIRBM_LINALG_OPS_INTERNAL_H_

#include "linalg/matrix.h"

namespace mcirbm::linalg::internal {

/// One compiled copy of the GEMM shard loop.
enum class GemmBuild { kBaseline, kAvx2 };

/// True when this binary holds `build` and this CPU can run it. The
/// baseline copy always runs.
bool GemmBuildRuns(GemmBuild build);

/// The copy the public GEMM variants use in this process: kAvx2 when it
/// runs, else kBaseline.
GemmBuild SelectedGemmBuild();

/// The ops.h variants of the same names, run through `build`, which must
/// run here (GemmBuildRuns).
Matrix Gemm(GemmBuild build, const Matrix& a, const Matrix& b);
Matrix GemmTransA(GemmBuild build, const Matrix& a, const Matrix& b);
Matrix GemmTransB(GemmBuild build, const Matrix& a, const Matrix& b);
void AccumulateGemmTransA(GemmBuild build, double alpha, const Matrix& a,
                          const Matrix& b, Matrix* out);

}  // namespace mcirbm::linalg::internal

#endif  // MCIRBM_LINALG_OPS_INTERNAL_H_
