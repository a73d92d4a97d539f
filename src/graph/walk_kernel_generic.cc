// The portable scalar flavour of the walk kernel's row passes: the
// 4-accumulator unrolled gather every instruction set must match bit for
// bit. Compiled with the project's default flags on every target.
#include "graph/walk_kernel_isa.h"

namespace longtail {
namespace internal {
namespace {

// The hot gather: Σ_k prob[k]·x[col[k]] over one CSR row, 4-way unrolled
// into independent accumulators so the loads pipeline, reduced with the
// fixed (a0+a1)+(a2+a3) tree. The default build has no FMA ISA, so the
// products and sums below are individual roundings — the contract the
// AVX2 flavour reproduces exactly.
inline double RowGather(const double* prob, const NodeId* col, int64_t begin,
                        int64_t end, const double* x) {
  int64_t k = begin;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (; k + 4 <= end; k += 4) {
    a0 += prob[k] * x[col[k]];
    a1 += prob[k + 1] * x[col[k + 1]];
    a2 += prob[k + 2] * x[col[k + 2]];
    a3 += prob[k + 3] * x[col[k + 3]];
  }
  double sum = (a0 + a1) + (a2 + a3);
  for (; k < end; ++k) sum += prob[k] * x[col[k]];
  return sum;
}

// Normalizing gather for the plan's "simple" mode: the transition value
// w[k]·inv is formed on the fly — the exact product BuildTransitions would
// have stored — then multiplied into x, so every rounding matches the
// materialized path and results stay bit-identical.
inline double RowGatherNorm(const double* w, const NodeId* col, int64_t begin,
                            int64_t end, const double* x, double inv) {
  int64_t k = begin;
  double a0 = 0.0, a1 = 0.0, a2 = 0.0, a3 = 0.0;
  for (; k + 4 <= end; k += 4) {
    a0 += (w[k] * inv) * x[col[k]];
    a1 += (w[k + 1] * inv) * x[col[k + 1]];
    a2 += (w[k + 2] * inv) * x[col[k + 2]];
    a3 += (w[k + 3] * inv) * x[col[k + 3]];
  }
  double sum = (a0 + a1) + (a2 + a3);
  for (; k < end; ++k) sum += (w[k] * inv) * x[col[k]];
  return sum;
}

#include "graph/walk_kernel_rows.inc"

}  // namespace

const WalkKernelIsa* GenericWalkKernelIsa() {
  static constexpr WalkKernelIsa isa = {"generic",
                                        &AbsorbingRows,
                                        &AbsorbingRowsFused,
                                        &AbsorbingRowsNorm,
                                        &AbsorbingRowsFusedNorm,
                                        &AbsorbingRowsNormLanes,
                                        &ApplyRows};
  return &isa;
}

}  // namespace internal
}  // namespace longtail
