// Internal: the WalkKernel's runtime-dispatched row-pass implementations.
//
// One binary ships both a portable scalar gather and an AVX2 gather; a
// one-time CPUID check (OSXSAVE + AVX + XCR0 XMM/YMM + leaf-7 AVX2) picks
// the table every WalkKernel constructed in this process dispatches
// through. The two implementations are bit-identical by construction: the
// AVX2 gather accumulates lane i exactly like scalar accumulator a_i and
// reduces with the same (a0+a1)+(a2+a3) tree, and the AVX2 translation
// unit is compiled with FP contraction off so its scalar tail rounds like
// the generic build (tests/walk_kernel_test.cc pins this).
//
// This header is an implementation detail of src/graph/walk_kernel*;
// walk_kernel.h includes it only for the lane width, and nothing outside
// the kernel should use it.
#ifndef LONGTAIL_GRAPH_WALK_KERNEL_ISA_H_
#define LONGTAIL_GRAPH_WALK_KERNEL_ISA_H_

#include <cstdint>

#include "core/types.h"

namespace longtail {
namespace internal {

/// Queries one lane pass advances together (exported as WalkKernel::kLanes).
inline constexpr int kLaneWidth = 8;

/// One instruction-set flavour of the kernel's hot row passes. All passes
/// process local node rows [lo, hi) of a transition CSR (`ptr`, `col`,
/// `prob`); callers own blocking and iteration structure.
///
/// Every absorbing pass skips the gather of rows with scale == self == 0
/// (absorbing rows) and writes exactly +0.0 — the value the full
/// expression produces for any finite gather, since 0·acc and 0·cur are
/// signed zeros that +0.0 absorbs. Queries absorb the probe user's rated
/// items, often the highest-degree rows, so the skip removes a large slice
/// of edge work without perturbing a single bit.
struct WalkKernelIsa {
  const char* name;  // "generic" or "avx2"

  /// Absorbing-sweep pass: nxt[v] = (add[v] + scale[v]·⟨prob_row(v), cur⟩)
  /// + self[v]·cur[v]. `cur == nxt` is allowed when the gathered columns
  /// never overlap [lo, hi) (the bipartite ranking sweep).
  void (*absorbing_rows)(int32_t lo, int32_t hi, const int64_t* ptr,
                         const NodeId* col, const double* prob,
                         const double* add, const double* scale,
                         const double* self, const double* cur, double* nxt);

  /// In-place double-step pass of the ranking sweep: ordinary rows advance
  /// one gather, isolated rows (self = 1) accumulate their cost twice in
  /// the same order the full sweep would:
  /// x[v] = ((add[v] + scale[v]·⟨prob_row(v), x⟩) + self[v]·x[v])
  ///        + self[v]·add[v].
  void (*absorbing_rows_fused)(int32_t lo, int32_t hi, const int64_t* ptr,
                               const NodeId* col, const double* prob,
                               const double* add, const double* scale,
                               const double* self, double* x);

  /// Normalizing flavour of absorbing_rows for the adaptive plan's
  /// "simple" mode: no materialized prob array — each row derives
  /// inv = 1/wdeg[v] and gathers (w[k]·inv)·cur[col[k]], the exact
  /// products BuildTransitions would have stored, so results stay
  /// bit-identical to the blocked path while skipping the O(entries)
  /// transition build that dominates tiny subgraphs.
  void (*absorbing_rows_norm)(int32_t lo, int32_t hi, const int64_t* ptr,
                              const NodeId* col, const double* w,
                              const double* wdeg, const double* add,
                              const double* scale, const double* self,
                              const double* cur, double* nxt);

  /// Normalizing flavour of absorbing_rows_fused (same contract).
  void (*absorbing_rows_fused_norm)(int32_t lo, int32_t hi,
                                    const int64_t* ptr, const NodeId* col,
                                    const double* w, const double* wdeg,
                                    const double* add, const double* scale,
                                    const double* self, double* x);

  /// Lane flavour of absorbing_rows_norm (`double_step` false) and
  /// absorbing_rows_fused_norm (`double_step` true) for kLaneWidth queries
  /// sharing one identity-order plan and one node-cost vector. Values are
  /// interleaved x[v·kLaneWidth + l]; bit l of absorbing[v] marks v
  /// absorbing for lane l. Every other lane gets the coefficients
  /// CompileAbsorbingSweep gives a transient row: add = cost[v], and
  /// scale = 1, self = 0 (scale = 0, self = 1 when wdeg[v] <= 0). Each
  /// edge's w·(1/d) is formed once and multiplied into all lanes' values;
  /// lane l accumulates, reduces and rounds exactly like the single-query
  /// pass, and an absorbing lane writes +0.0. A row skips its gather only
  /// when every lane absorbs it.
  void (*absorbing_rows_norm_lanes)(int32_t lo, int32_t hi,
                                    const int64_t* ptr, const NodeId* col,
                                    const double* w, const double* wdeg,
                                    const double* cost,
                                    const uint8_t* absorbing,
                                    bool double_step, double* x);

  /// Power-iteration pass: y[v] = alpha·⟨prob_row(v), x⟩ + beta·restart[v]
  /// (`restart == nullptr` drops the second term). `x` and `y` must not
  /// alias.
  void (*apply_rows)(int32_t lo, int32_t hi, const int64_t* ptr,
                     const NodeId* col, const double* prob, double alpha,
                     const double* x, double beta, const double* restart,
                     double* y);
};

/// The portable scalar implementation; always available.
const WalkKernelIsa* GenericWalkKernelIsa();

/// The AVX2 implementation, or nullptr when the build carries no AVX2
/// translation unit (non-x86 target or a compiler without -mavx2).
const WalkKernelIsa* Avx2WalkKernelIsa();

/// True when the running CPU and OS support AVX2 (CPUID + XGETBV). Pure
/// capability probe; does not consider whether the build carries the AVX2
/// translation unit.
bool CpuSupportsAvx2();

/// The table kernels dispatch through: AVX2 when both the build and the
/// CPU support it, generic otherwise. The probe runs once per process.
const WalkKernelIsa* ActiveWalkKernelIsa();

}  // namespace internal
}  // namespace longtail

#endif  // LONGTAIL_GRAPH_WALK_KERNEL_ISA_H_
