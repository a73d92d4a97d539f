// The AVX2 flavour of the walk kernel's row passes. This translation unit
// — and only this one — is compiled with -mavx2 (plus -mno-fma and
// -ffp-contract=off, so neither the intrinsic loop's surroundings nor the
// scalar tail get contracted into FMA and every rounding matches the
// generic flavour). CMake defines LONGTAIL_COMPILE_AVX2 for it exactly
// when those flags are available; on other toolchains/targets the TU
// degrades to a stub returning nullptr and runtime dispatch stays on the
// generic path. Whether this code ever *executes* is decided per process
// by the CPUID probe in walk_kernel.cc — the binary itself stays portable.
#include "graph/walk_kernel_isa.h"

#if defined(LONGTAIL_COMPILE_AVX2)

#include <immintrin.h>

namespace longtail {
namespace internal {
namespace {

// AVX2 gather over one CSR row: vgatherdpd on the int32 column indices.
// Lane i accumulates exactly like scalar accumulator a_i of the generic
// flavour, and the reduction uses the same (a0+a1)+(a2+a3) tree, so both
// paths round identically.
inline double RowGather(const double* prob, const NodeId* col, int64_t begin,
                        int64_t end, const double* x) {
  int64_t k = begin;
  __m256d acc = _mm256_setzero_pd();
  // All-lanes mask + zeroed source: same vgatherdpd as the unmasked
  // intrinsic, but avoids its _mm256_undefined_pd() source, which GCC 12
  // flags with a spurious -Wmaybe-uninitialized.
  const __m256d gather_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (; k + 4 <= end; k += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + k));
    const __m256d xv = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx,
                                                gather_mask, /*scale=*/8);
    const __m256d pv = _mm256_loadu_pd(prob + k);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(pv, xv));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; k < end; ++k) sum += prob[k] * x[col[k]];
  return sum;
}

// Normalizing gather ("simple" mode): w[k]·inv is formed per lane before
// the multiply into x — each lane performs the same two individually
// rounded products as scalar accumulator a_i of the generic flavour, and
// the reduction tree is shared, so both paths round identically.
inline double RowGatherNorm(const double* w, const NodeId* col, int64_t begin,
                            int64_t end, const double* x, double inv) {
  int64_t k = begin;
  __m256d acc = _mm256_setzero_pd();
  const __m256d vinv = _mm256_set1_pd(inv);
  const __m256d gather_mask = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
  for (; k + 4 <= end; k += 4) {
    const __m128i idx =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(col + k));
    const __m256d xv = _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, idx,
                                                gather_mask, /*scale=*/8);
    const __m256d pv = _mm256_mul_pd(_mm256_loadu_pd(w + k), vinv);
    acc = _mm256_add_pd(acc, _mm256_mul_pd(pv, xv));
  }
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double sum = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (; k < end; ++k) sum += (w[k] * inv) * x[col[k]];
  return sum;
}

#include "graph/walk_kernel_rows.inc"

}  // namespace

const WalkKernelIsa* Avx2WalkKernelIsa() {
  static constexpr WalkKernelIsa isa = {"avx2",
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

#else  // !LONGTAIL_COMPILE_AVX2

namespace longtail {
namespace internal {

const WalkKernelIsa* Avx2WalkKernelIsa() { return nullptr; }

}  // namespace internal
}  // namespace longtail

#endif  // LONGTAIL_COMPILE_AVX2
