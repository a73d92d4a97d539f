#include "graph/walk_kernel.h"

#include <algorithm>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "graph/walk_kernel_isa.h"
#include "util/logging.h"

namespace longtail {

namespace internal {

bool CpuSupportsAvx2() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (!__get_cpuid(1, &eax, &ebx, &ecx, &edx)) return false;
  // AVX needs OS cooperation: OSXSAVE says XGETBV exists, XCR0 bits 1|2
  // say the OS actually saves XMM+YMM state across context switches.
  // Checking the AVX2 feature bit alone would fault on such hosts.
  const bool osxsave = (ecx & (1u << 27)) != 0;
  const bool avx = (ecx & (1u << 28)) != 0;
  if (!osxsave || !avx) return false;
  unsigned xcr0_lo = 0, xcr0_hi = 0;
  // xgetbv(0), byte-encoded so no -mxsave is needed at compile time.
  __asm__ volatile(".byte 0x0f, 0x01, 0xd0"
                   : "=a"(xcr0_lo), "=d"(xcr0_hi)
                   : "c"(0));
  if ((xcr0_lo & 0x6) != 0x6) return false;
  if (__get_cpuid_max(0, nullptr) < 7) return false;
  __cpuid_count(7, 0, eax, ebx, ecx, edx);
  return (ebx & (1u << 5)) != 0;  // leaf 7.0 EBX bit 5: AVX2
#else
  return false;
#endif
}

const WalkKernelIsa* ActiveWalkKernelIsa() {
  // One probe per process; every kernel constructed afterwards reuses the
  // cached choice.
  static const WalkKernelIsa* active = [] {
    const WalkKernelIsa* avx2 = Avx2WalkKernelIsa();
    if (avx2 != nullptr && CpuSupportsAvx2()) return avx2;
    return GenericWalkKernelIsa();
  }();
  return active;
}

}  // namespace internal

namespace {

/// Rows per L1 tile of the blocked row pass: each row streams ~48 B of
/// dense state (cur/nxt values, three coefficients, a row pointer), and
/// budgeting half of L1d for those streams leaves the other half to the
/// gathered value window. 48 KiB L1d → 512-row tiles.
int32_t RowTileForL1() {
  const size_t tile = ProbeCacheGeometry().l1d_bytes / 96;
  return static_cast<int32_t>(std::clamp<size_t>(tile, 256, 16384));
}

}  // namespace

size_t WalkKernel::SimplePlanMaxValueBytes() {
  return ProbeCacheGeometry().l2_bytes;
}

int32_t WalkKernel::BlockedPlanRowTile() { return RowTileForL1(); }

namespace {

/// The first 64-byte-aligned double of a lane block allocated with
/// WalkKernel::kLanes slack doubles.
double* AlignedLaneBlock(std::vector<double>& block) {
  const uintptr_t addr = reinterpret_cast<uintptr_t>(block.data());
  const uintptr_t pad = (64 - addr % 64) % 64;
  return block.data() + pad / sizeof(double);
}

}  // namespace

WalkKernel::WalkKernel() : isa_(internal::ActiveWalkKernelIsa()) {}

const char* WalkKernel::isa_name() const { return isa_->name; }

bool WalkKernel::RuntimeAvx2Available() {
  return internal::ActiveWalkKernelIsa() == internal::Avx2WalkKernelIsa() &&
         internal::Avx2WalkKernelIsa() != nullptr;
}

void WalkKernel::ForceGenericIsaForTesting() {
  isa_ = internal::GenericWalkKernelIsa();
}

const char* WalkPlan::sweep_strategy() const {
  if (norm_fly_ && row_tile_ == 0) return "simple";
  return perm_ != nullptr ? "blocked_reordered" : "blocked";
}

size_t WalkPlan::OwnedBytes() const {
  size_t bytes = sizeof(WalkPlan);
  bytes += prob_.capacity() * sizeof(double);
  bytes += own_layout_.perm.capacity() * sizeof(int32_t);
  bytes += own_layout_.ptr.capacity() * sizeof(int64_t);
  bytes += own_layout_.col.capacity() * sizeof(NodeId);
  bytes += own_layout_.row_prob.capacity() * sizeof(double);
  return bytes;
}

const char* WalkKernel::sweep_strategy() const {
  if (plan_ == nullptr) return "unbound";
  return plan_->sweep_strategy();
}

void WalkKernel::BuildTransitions(const BipartiteGraph& g, Normalization norm,
                                  std::shared_ptr<const WalkLayout> layout) {
  // Rebuild the kernel-owned plan in place (buffer capacity survives, so
  // steady-state cold queries stay allocation-free) and drop any
  // previously adopted shared plan.
  own_plan_.Build(g, norm, std::move(layout), forced_plan_);
  adopted_.reset();
  plan_ = &own_plan_;
}

void WalkKernel::AdoptPlan(std::shared_ptr<const WalkPlan> plan) {
  LT_CHECK(plan != nullptr && plan->built())
      << "AdoptPlan needs a built WalkPlan";
  adopted_ = std::move(plan);
  plan_ = adopted_.get();
}

void WalkPlan::Build(const BipartiteGraph& g, WalkNormalization norm,
                     std::shared_ptr<const WalkLayout> layout,
                     WalkSweepMode forced) {
  graph_ = &g;
  norm_ = norm;
  num_nodes_ = g.num_nodes();
  const int32_t n = num_nodes_;
  const auto gptr = g.RowPointers();
  const auto gcol = g.FlatNeighbors();
  const auto w = g.FlatWeights();
  const int64_t entries = n > 0 ? gptr[n] : 0;

  // ---- Pick the plan (one-time cost probe per build) ----
  bool simple = false;
  bool reorder = false;
  switch (forced) {
    case WalkSweepMode::kSimple:
      simple = true;
      break;
    case WalkSweepMode::kBlocked:
      break;
    case WalkSweepMode::kBlockedReordered:
      reorder = true;
      break;
    case WalkSweepMode::kAuto:
      if (layout != nullptr) {
        // A pre-built permutation rides in (SubgraphCache payload): the
        // reorder decision was made at insert time; adopt it.
        reorder = true;
      } else {
        // One-shot builds never self-permute: the layout BFS + scatter
        // cannot amortize over a single query's τ sweeps (measured ~1.0x
        // e2e at the sizes where the reordered sweep itself wins 1.5x).
        // Reordered plans arrive via SubgraphCache payloads, where the
        // permutation is paid once and shared by every adopter.
        simple = norm_ == WalkNormalization::kRowStochastic &&
                 static_cast<size_t>(n) * sizeof(double) <=
                     WalkKernel::SimplePlanMaxValueBytes();
      }
      break;
  }
  LT_CHECK(!simple || norm_ == WalkNormalization::kRowStochastic)
      << "simple sweeps normalize rows on the fly (row-stochastic only)";
  // An empty graph has nothing to permute (and n == 0 skips the CSR bind
  // below); fall back to the identity plan so a forced kBlockedReordered
  // on an empty seed subgraph doesn't try to materialize transitions.
  if (n == 0) reorder = false;

  // Identity-order row-stochastic plans never materialize transitions:
  // the normalizing gather reads the raw weight strip (which a
  // materialized sweep would read as the prob strip — same bytes moved)
  // and folds the one divide per row into a register, so skipping the
  // O(entries) prob build is free per sweep and saves its full cost per
  // build. The rounding sequence is identical — w·(1/d), then ·x — so
  // results are bit-identical (enforced by walk_kernel_test.cc).
  norm_fly_ = !reorder && norm_ == WalkNormalization::kRowStochastic;
  row_tile_ = simple ? 0 : RowTileForL1();
  perm_ = nullptr;
  layout_.reset();
  prob_data_ = nullptr;
  w_ = nullptr;
  wdeg_ = nullptr;

  if (norm_fly_) {
    ptr_ = gptr.data();
    col_ = gcol.data();
    w_ = w.data();
    wdeg_ = g.WeightedDegrees().data();
    return;
  }

  // ---- Bind the CSR the sweeps will walk ----
  const WalkLayout* lay = nullptr;
  if (reorder && n > 0) {
    if (layout != nullptr) {
      LT_CHECK_EQ(layout->num_nodes, n);
      LT_CHECK_EQ(layout->num_users, g.num_users());
      LT_CHECK_EQ(static_cast<int64_t>(layout->col.size()), entries);
      layout_ = std::move(layout);
      lay = layout_.get();
    } else {
      // One-shot large build: pay the O(nodes + entries) permutation here;
      // it amortizes over the τ sweep iterations that follow.
      BuildWalkLayout(g, norm_ == WalkNormalization::kRowStochastic,
                      &own_layout_);
      lay = &own_layout_;
    }
    ptr_ = lay->ptr.data();
    col_ = lay->col.data();
    perm_ = lay->perm.data();
  } else {
    ptr_ = gptr.data();
    col_ = gcol.data();
  }

  // ---- Materialize transition values in sweep order ----
  if (perm_ == nullptr) {
    switch (norm_) {
      case WalkNormalization::kRowStochastic:
        LT_CHECK(false)
            << "identity row-stochastic plans normalize on the fly";
        break;
      case WalkNormalization::kColumnStochastic: {
        prob_.resize(w.size());
        for (size_t k = 0; k < w.size(); ++k) {
          const double d = g.WeightedDegree(gcol[k]);
          prob_[k] = d > 0.0 ? w[k] / d : 0.0;
        }
        prob_data_ = prob_.data();
        break;
      }
      case WalkNormalization::kRaw:
        // Raw gathers read the graph's weight array as-is; no copy.
        prob_data_ = w.data();
        break;
    }
    return;
  }

  if (norm_ == WalkNormalization::kRowStochastic &&
      static_cast<int64_t>(lay->row_prob.size()) == entries) {
    // The layout carries the row-stochastic values (same rounding as the
    // identity build; see BuildWalkLayout).
    prob_data_ = lay->row_prob.data();
    return;
  }
  // Permuted-order materialization for the remaining normalizations: same
  // per-entry expressions as the identity branches above, written at the
  // permuted offsets.
  prob_.resize(w.size());
  for (int32_t v = 0; v < n; ++v) {
    const double row_d = g.WeightedDegree(v);
    const double row_inv = row_d > 0.0 ? 1.0 / row_d : 0.0;
    int64_t dst = ptr_[perm_[v]];
    for (int64_t k = gptr[v]; k < gptr[v + 1]; ++k) {
      double p;
      switch (norm_) {
        case WalkNormalization::kRowStochastic:
          p = w[k] * row_inv;
          break;
        case WalkNormalization::kColumnStochastic: {
          const double d = g.WeightedDegree(gcol[k]);
          p = d > 0.0 ? w[k] / d : 0.0;
          break;
        }
        case WalkNormalization::kRaw:
        default:
          p = w[k];
          break;
      }
      prob_[dst++] = p;
    }
  }
  prob_data_ = prob_.data();
}

void WalkKernel::CompileAbsorbingSweep(const std::vector<bool>& absorbing,
                                       const std::vector<double>& node_cost) {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  LT_CHECK(p.norm_ == Normalization::kRowStochastic)
      << "absorbing sweeps need row-stochastic transitions";
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), absorbing.size());
  LT_CHECK_EQ(static_cast<size_t>(n), node_cost.size());
  add_.resize(n);
  scale_.resize(n);
  self_.resize(n);
  const BipartiteGraph& g = *p.graph_;
  const int32_t* perm = p.perm_;
  // Coefficients live in sweep space: scattered through the permutation
  // when the plan reordered, so the row passes stay oblivious to layout.
  for (int32_t v = 0; v < n; ++v) {
    const int32_t row = perm != nullptr ? perm[v] : v;
    if (absorbing[v]) {
      add_[row] = 0.0;
      scale_[row] = 0.0;
      self_[row] = 0.0;
    } else if (g.WeightedDegree(v) <= 0.0) {
      // Isolated transient node: never absorbed, accumulates cost forever.
      add_[row] = node_cost[v];
      scale_[row] = 0.0;
      self_[row] = 1.0;
    } else {
      add_[row] = node_cost[v];
      scale_[row] = 1.0;
      self_[row] = 0.0;
    }
  }
}

void WalkKernel::CompileAbsorbingLanes(
    std::span<const std::vector<bool>> absorbing,
    const std::vector<double>& node_cost) {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  // norm_fly_ is exactly "identity order, row-stochastic": the lane pass
  // normalizes on the fly and indexes values by original node id.
  LT_CHECK(p.norm_fly_)
      << "lane sweeps need an identity-order row-stochastic plan";
  LT_CHECK_LE(absorbing.size(), static_cast<size_t>(kLanes));
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), node_cost.size());
  for (const std::vector<bool>& lane : absorbing) {
    LT_CHECK_EQ(static_cast<size_t>(n), lane.size());
  }
  lane_absorbing_.resize(n);
  lane_cost_ = node_cost.data();
  const unsigned used = (1u << absorbing.size()) - 1;
  const uint8_t padding =
      static_cast<uint8_t>(((1u << kLanes) - 1) & ~used);
  for (int32_t v = 0; v < n; ++v) {
    uint8_t mask = padding;
    for (size_t l = 0; l < absorbing.size(); ++l) {
      if (absorbing[l][v]) mask |= static_cast<uint8_t>(1u << l);
    }
    lane_absorbing_[v] = mask;
  }
}

void WalkKernel::PrefetchRows(int32_t lo, int32_t hi) const {
#if defined(__GNUC__) || defined(__clang__)
  // Warm the next tile's column-index and value strips while the current
  // tile's gathers are in flight. Bounded: past ~4 KiB per strip the
  // lines would be evicted again before the tile is reached.
  const WalkPlan& p = *plan_;
  constexpr int64_t kMaxPrefetchBytes = 4096;
  const int64_t k0 = p.ptr_[lo];
  const int64_t span = p.ptr_[hi] - k0;
  const int64_t col_bytes = std::min<int64_t>(
      span * static_cast<int64_t>(sizeof(NodeId)), kMaxPrefetchBytes);
  const char* cp = reinterpret_cast<const char*>(p.col_ + k0);
  for (int64_t off = 0; off < col_bytes; off += 64) {
    __builtin_prefetch(cp + off, 0, 1);
  }
  const double* vals = p.norm_fly_ ? p.w_ : p.prob_data_;
  const int64_t val_bytes = std::min<int64_t>(
      span * static_cast<int64_t>(sizeof(double)), kMaxPrefetchBytes);
  const char* pp = reinterpret_cast<const char*>(vals + k0);
  for (int64_t off = 0; off < val_bytes; off += 64) {
    __builtin_prefetch(pp + off, 0, 1);
  }
#else
  (void)lo;
  (void)hi;
#endif
}

void WalkKernel::RunAbsorbingRange(int32_t lo, int32_t hi, const double* cur,
                                   double* nxt) const {
  const WalkPlan& p = *plan_;
  const double* add = add_.data();
  const double* scale = scale_.data();
  const double* self = self_.data();
  if (p.row_tile_ <= 0) {
    // Simple plan: tiny working set by construction — tiling would only
    // add loop overhead.
    isa_->absorbing_rows_norm(lo, hi, p.ptr_, p.col_, p.w_, p.wdeg_, add,
                              scale, self, cur, nxt);
    return;
  }
  for (int32_t b = lo; b < hi; b += p.row_tile_) {
    const int32_t b_end = b + p.row_tile_ < hi ? b + p.row_tile_ : hi;
    if (b_end < hi) {
      PrefetchRows(b_end, b_end + p.row_tile_ < hi ? b_end + p.row_tile_ : hi);
    }
    if (p.norm_fly_) {
      isa_->absorbing_rows_norm(b, b_end, p.ptr_, p.col_, p.w_, p.wdeg_, add,
                                scale, self, cur, nxt);
    } else {
      isa_->absorbing_rows(b, b_end, p.ptr_, p.col_, p.prob_data_, add, scale,
                           self, cur, nxt);
    }
  }
}

void WalkKernel::RunFusedRange(int32_t lo, int32_t hi, double* x) const {
  const WalkPlan& p = *plan_;
  const double* add = add_.data();
  const double* scale = scale_.data();
  const double* self = self_.data();
  if (p.row_tile_ <= 0) {
    isa_->absorbing_rows_fused_norm(lo, hi, p.ptr_, p.col_, p.w_, p.wdeg_,
                                    add, scale, self, x);
    return;
  }
  for (int32_t b = lo; b < hi; b += p.row_tile_) {
    const int32_t b_end = b + p.row_tile_ < hi ? b + p.row_tile_ : hi;
    if (b_end < hi) {
      PrefetchRows(b_end, b_end + p.row_tile_ < hi ? b_end + p.row_tile_ : hi);
    }
    if (p.norm_fly_) {
      isa_->absorbing_rows_fused_norm(b, b_end, p.ptr_, p.col_, p.w_, p.wdeg_,
                                      add, scale, self, x);
    } else {
      isa_->absorbing_rows_fused(b, b_end, p.ptr_, p.col_, p.prob_data_, add,
                                 scale, self, x);
    }
  }
}

void WalkKernel::RunLanesRange(int32_t lo, int32_t hi, bool double_step,
                               double* x) const {
  const WalkPlan& p = *plan_;
  const int32_t tile = p.row_tile_ > 0 ? p.row_tile_ : hi - lo;
  for (int32_t b = lo; b < hi; b += tile) {
    const int32_t b_end = b + tile < hi ? b + tile : hi;
    if (b_end < hi) {
      PrefetchRows(b_end, b_end + tile < hi ? b_end + tile : hi);
    }
    isa_->absorbing_rows_norm_lanes(b, b_end, p.ptr_, p.col_, p.w_, p.wdeg_,
                                    lane_cost_, lane_absorbing_.data(),
                                    double_step, x);
  }
}

void WalkKernel::SweepTruncated(int iterations, std::vector<double>* value,
                                std::vector<double>* scratch) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), add_.size())
      << "CompileAbsorbingSweep must run first";
  value->assign(n, 0.0);
  scratch->assign(n, 0.0);
  if (n == 0) return;
  double* cur;
  double* nxt;
  if (p.perm_ == nullptr) {
    cur = value->data();
    nxt = scratch->data();
  } else {
    // Reordered plan: sweep in permuted space, read out through the
    // permutation below. V_0 ≡ 0 needs no seed scatter.
    pval_.assign(n, 0.0);
    pscratch_.assign(n, 0.0);
    cur = pval_.data();
    nxt = pscratch_.data();
  }
  for (int t = 0; t < iterations; ++t) {
    RunAbsorbingRange(0, n, cur, nxt);
    double* tmp = cur;
    cur = nxt;
    nxt = tmp;
  }
  if (p.perm_ == nullptr) {
    if (cur != value->data()) value->swap(*scratch);
  } else {
    double* out = value->data();
    for (int32_t v = 0; v < n; ++v) out[v] = cur[p.perm_[v]];
  }
}

void WalkKernel::SweepTruncatedItemValues(int iterations,
                                          std::vector<double>* value) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  const int32_t n = p.num_nodes_;
  LT_CHECK_EQ(static_cast<size_t>(n), add_.size())
      << "CompileAbsorbingSweep must run first";
  value->assign(n, 0.0);
  if (n == 0 || iterations <= 0) return;
  double* x;
  if (p.perm_ == nullptr) {
    x = value->data();
  } else {
    pval_.assign(n, 0.0);
    x = pval_.data();
  }
  // The permutation preserves sides, so the side boundary — and with it
  // the alternating chain — is the same in sweep space.
  const int32_t num_users = p.graph_->num_users();
  // Step t updates the side whose value the chain labels "iteration t":
  // items when (τ - t) is even, users otherwise, ending on items at t = τ.
  // In-place is safe because a side's gathers read only the *other* side.
  for (int t = 1; t <= iterations; ++t) {
    const bool item_side = ((iterations - t) & 1) == 0;
    const int32_t lo = item_side ? num_users : 0;
    const int32_t hi = item_side ? n : num_users;
    if (t == 1) {
      // The chain's first step advances its side by a single DP iteration.
      RunAbsorbingRange(lo, hi, x, x);
    } else {
      // Every later step advances its side by two DP iterations. Ordinary
      // rows never reference the skipped intermediate, but isolated rows
      // (self = 1) accumulate cost on both: the trailing self·add term
      // applies the second addition in the same order the full sweep
      // would, keeping them bit-identical to it.
      RunFusedRange(lo, hi, x);
    }
  }
  if (p.perm_ != nullptr) {
    double* out = value->data();
    for (int32_t v = 0; v < n; ++v) out[v] = x[p.perm_[v]];
  }
}

void WalkKernel::SweepTruncatedItemValuesLanes(int iterations) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  const int32_t n = p.num_nodes_;
  LT_CHECK(lane_cost_ != nullptr &&
           lane_absorbing_.size() == static_cast<size_t>(n))
      << "CompileAbsorbingLanes must run first";
  lane_x_.assign((static_cast<size_t>(n) + 1) * kLanes, 0.0);
  double* x = AlignedLaneBlock(lane_x_);
  // The same alternating chain as SweepTruncatedItemValues, every lane at
  // once: one side per step, a single DP iteration first, then doubles.
  const int32_t num_users = p.graph_->num_users();
  for (int t = 1; t <= iterations; ++t) {
    const bool item_side = ((iterations - t) & 1) == 0;
    RunLanesRange(item_side ? num_users : 0, item_side ? n : num_users,
                  /*double_step=*/t > 1, x);
  }
}

void WalkKernel::LaneValues(int lane, std::vector<double>* value) const {
  LT_CHECK(lane >= 0 && lane < kLanes) << "lane " << lane;
  const size_t n = lane_absorbing_.size();
  LT_CHECK_EQ((n + 1) * kLanes, lane_x_.size())
      << "SweepTruncatedItemValuesLanes must run first";
  value->resize(n);
  const double* x = AlignedLaneBlock(lane_x_) + lane;
  for (size_t v = 0; v < n; ++v) (*value)[v] = x[v * kLanes];
}

void WalkKernel::Apply(double alpha, const double* x, double beta,
                       const double* restart, double* y) const {
  LT_CHECK(plan_ != nullptr) << "BuildTransitions/AdoptPlan must run first";
  const WalkPlan& p = *plan_;
  LT_CHECK(!p.norm_fly_)
      << "Apply needs materialized transitions; no caller applies "
         "row-stochastic transitions, see walk_kernel.h";
  const int32_t n = p.num_nodes_;
  // Sparse-input fast path: a dense pull always walks every adjacency
  // entry, which would make the first Katz steps / PPR iterations (a
  // frontier of one user node) cost O(total edges) where the pre-kernel
  // scatter cost O(frontier edges). When the nonzero rows of x carry
  // under half the entries, push from just those rows instead. The push
  // re-derives the per-row normalization from the raw weights (the
  // stored prob array is column-normalized for pulls), so push and pull
  // agree to rounding, and the branch is a pure function of x. It runs
  // in original id space off the graph's own CSR, independent of the
  // sweep plan's layout.
  if (p.norm_ != Normalization::kRowStochastic && n > 0) {
    const int64_t* gp = p.graph_->RowPointers().data();
    const NodeId* gc = p.graph_->FlatNeighbors().data();
    const int64_t total_entries = gp[n];
    int64_t nonzero_entries = 0;
    for (int32_t v = 0; v < n; ++v) {
      if (x[v] != 0.0) nonzero_entries += gp[v + 1] - gp[v];
    }
    if (nonzero_entries * 2 < total_entries) {
      if (restart != nullptr) {
        for (int32_t v = 0; v < n; ++v) y[v] = beta * restart[v];
      } else {
        for (int32_t v = 0; v < n; ++v) y[v] = 0.0;
      }
      const double* w = p.graph_->FlatWeights().data();
      for (int32_t v = 0; v < n; ++v) {
        const double mass = x[v];
        if (mass == 0.0) continue;
        double out;
        if (p.norm_ == Normalization::kColumnStochastic) {
          // Symmetric graph: pushing x[v]·w/d(v) along row v produces
          // exactly the pull's Σ_u (w_vu/d_u)·x[u] terms.
          const double d = p.graph_->WeightedDegree(v);
          if (d <= 0.0) continue;
          out = alpha * mass / d;
        } else {  // kRaw
          out = alpha * mass;
        }
        for (int64_t k = gp[v]; k < gp[v + 1]; ++k) {
          y[gc[k]] += out * w[k];
        }
      }
      return;
    }
  }
  const double* in = x;
  const double* rst = restart;
  double* out = y;
  if (p.perm_ != nullptr && n > 0) {
    // Permute the operands into sweep space, pull there, scatter back.
    px_.resize(n);
    pval_.resize(n);
    for (int32_t v = 0; v < n; ++v) px_[p.perm_[v]] = x[v];
    in = px_.data();
    out = pval_.data();
    if (restart != nullptr) {
      pscratch_.resize(n);
      for (int32_t v = 0; v < n; ++v) pscratch_[p.perm_[v]] = restart[v];
      rst = pscratch_.data();
    }
  }
  for (int32_t b = 0; b < n; b += p.row_tile_) {
    const int32_t b_end = b + p.row_tile_ < n ? b + p.row_tile_ : n;
    if (b_end < n) {
      PrefetchRows(b_end, b_end + p.row_tile_ < n ? b_end + p.row_tile_ : n);
    }
    isa_->apply_rows(b, b_end, p.ptr_, p.col_, p.prob_data_, alpha, in, beta,
                     rst, out);
  }
  if (p.perm_ != nullptr && n > 0) {
    for (int32_t v = 0; v < n; ++v) y[v] = pval_[p.perm_[v]];
  }
}

}  // namespace longtail
