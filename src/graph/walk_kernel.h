// The unified walk kernel: one tuned inner loop for every truncated
// random-walk sweep in the system.
//
// Before this subsystem existed, five call sites — the truncated DP behind
// HT/AT/AC1/AC2 (markov.cc via graph_recommender_base.cc) and the PPR/Katz
// power iterations (baselines/pagerank.cc, baselines/katz.cc) — each kept a
// bespoke loop over BipartiteGraph adjacency, re-deriving transition
// probabilities (a weighted-degree load plus a divide per row) and
// re-branching on absorbing/isolated nodes every iteration. WalkKernel
// retires those loops, and is itself split along the immutable/mutable
// seam:
//
//  * WalkPlan is the *immutable, shareable* half: the normalized transition
//    CSR (or the on-the-fly-normalization binding that skips materializing
//    it), the execution-plan selection from the probed cache geometry, and
//    the optional WalkLayout permutation. A plan is built once per graph —
//    at SubgraphCache admission for cached subgraphs, at Fit/LoadModel for
//    the PPR/Katz global graphs — and shared by shared_ptr across any
//    number of concurrently sweeping workers. After Build it is never
//    mutated, so N pool threads can sweep one plan at once.
//  * WalkKernel is the *per-worker scratch* half: the branch-free
//    coefficient vectors CompileAbsorbingSweep fills per query, the
//    permuted-space value buffers, and the runtime ISA binding. One kernel
//    lives in each WalkWorkspace and inside each PPR/Katz recommender;
//    kernels either build their own private plan (BuildTransitions — the
//    cold path, capacity reused across queries) or adopt a shared one
//    (AdoptPlan — the warm path, zero per-query O(E)/O(V) setup).
//
//  * CompileAbsorbingSweep folds per-query absorbing flags, isolated
//    nodes, and per-node costs into three dense coefficient vectors so the
//    sweep's inner loop is branch-free:
//        next[v] = add[v] + scale[v]·⟨prob_row(v), value⟩ + self[v]·value[v]
//    (absorbing: add=scale=self=0 pins the value at exactly 0; isolated
//    transient: scale=0, self=1 accumulates cost forever; ordinary rows:
//    scale=1, self=0).
//  * CompileAbsorbingLanes / SweepTruncatedItemValuesLanes run the ranking
//    sweep for up to kLanes = 8 queries that share one identity-order plan
//    (whole-graph mode, where every user adopts the same Fit-time plan):
//    one pass over the edge stream serves all lanes, values interleaved
//    x[v·8 + lane], each lane bit-identical to its own
//    SweepTruncatedItemValues. See docs/KERNELS.md "Lane sweeps".
//  * SweepTruncated / Apply run the sweep as a blocked, 4-way-unrolled
//    gather over the transition CSR. The gather is *runtime-dispatched*:
//    one portable binary carries both a scalar flavour and an AVX2 flavour
//    (hardware vgatherdpd, compiled in its own -mavx2 translation unit),
//    and a one-time CPUID probe at kernel construction picks the table —
//    no recompilation per host. The two flavours are bit-identical (same
//    per-lane accumulation order and reduction tree, FP contraction off in
//    the AVX2 TU), enforced by tests/walk_kernel_test.cc. See
//    docs/KERNELS.md for the layout, the blocking/unroll parameters and
//    how to re-tune them.
//
// Numerical contract: results agree with the retained reference loop
// (AbsorbingValueTruncatedReference in markov.h) to relative tolerance
// ~1e-13 per iteration — pre-normalization changes (Σ w·v)/d into
// Σ (w/d)·v and the unroll changes the summation tree, so bit-identity
// with the *old* loop is impossible; what the system guarantees instead is
// that every production path (single-user, batch at any thread count,
// cache-hit on a shared plan, checkpoint-restored) runs the same kernel
// and is therefore bit-identical across those paths. A plan makes the
// same decisions Build-by-kernel would for the same (graph, layout)
// inputs, so adopted and privately built plans sweep identically.
// tests/walk_kernel_test.cc and tests/warm_plan_test.cc enforce this.
#ifndef LONGTAIL_GRAPH_WALK_KERNEL_H_
#define LONGTAIL_GRAPH_WALK_KERNEL_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "graph/bipartite_graph.h"
#include "graph/walk_kernel_isa.h"
#include "graph/walk_layout.h"

namespace longtail {

/// How a plan derives the contiguous transition-value array from the
/// graph's edge weights. (Namespace-scope so WalkPlan can use it; WalkKernel
/// re-exports it as WalkKernel::Normalization for call-site continuity.)
enum class WalkNormalization {
  /// prob[k] = w[k] / weighted_degree(row): row-stochastic. The DP
  /// gather ⟨prob_row(v), value⟩ is then exactly Σ_j p_vj·value[j] of
  /// Eq. 1 — what the truncated absorbing-value sweeps consume.
  kRowStochastic,
  /// prob[k] = w[k] / weighted_degree(col[k]): column-stochastic. On a
  /// symmetric graph, gathering row v yields (Pᵀx)[v] — the push step of
  /// the PPR power iteration expressed as a pull, which vectorizes.
  kColumnStochastic,
  /// prob[k] = w[k] unchanged: raw adjacency gathers (Katz's β-damped
  /// path counting).
  kRaw,
};

/// The execution plan WalkPlan::Build picks per graph shape (one-time
/// cost probe against the machine's measured cache geometry; see
/// docs/KERNELS.md for the thresholds):
///  * kSimple — flat reference-style loop, no row tiling. Wins while
///    one value vector (the window row gathers read from) still fits in
///    L2, where tile bookkeeping is pure overhead. Row-stochastic only.
///  * kBlocked — L1-tiled row pass with next-tile prefetch, identity
///    node order; wins once the value vector exceeds L2.
/// Both identity-order plans normalize row-stochastic transitions on the
/// fly from the raw weights — the O(entries) transition materialization
/// is skipped entirely, with the same per-entry rounding sequence (w·(1/d)
/// then ·x), so results are bit-identical to a materialized sweep. Other
/// normalizations (PPR/Katz) materialize once and amortize over many
/// Apply calls.
///  * kBlockedReordered — kBlocked over a WalkLayout-permuted CSR
///    (adopted from the SubgraphCache or built here); seeds are injected
///    and values read back through the permutation, outputs bit-identical
///    in original id space.
/// kAuto is only a ForcePlanForTesting value: restore the cost probe.
enum class WalkSweepMode { kAuto, kSimple, kBlocked, kBlockedReordered };

/// The immutable half of the walk kernel: one graph's normalized transition
/// CSR (or on-the-fly binding), the sweep-plan selection, and the optional
/// layout permutation. Built exactly once per graph and shared by
/// shared_ptr — a SubgraphCache payload carries the plan for its subgraph,
/// PPR/Katz carry one for their fitted global graph. Immutable after
/// Build(), so any number of WalkKernels (one per worker, each with private
/// scratch) may sweep one plan concurrently.
///
/// Lifetime: the plan points into the graph's CSR arrays (and the layout's,
/// when adopted) but owns neither — the graph and layout must outlive every
/// use of the plan. Cache payloads satisfy this structurally: graph, layout
/// and plan all live in one shared, immutable Subgraph payload.
class WalkPlan {
 public:
  WalkPlan() = default;
  WalkPlan(const WalkPlan&) = delete;
  WalkPlan& operator=(const WalkPlan&) = delete;

  /// Compiles `g` into transition bindings and picks the sweep plan.
  /// Identical decision procedure to the kernel's own BuildTransitions:
  /// passing the same (graph, norm, layout) here and there yields plans
  /// that sweep bit-identically. `forced` pins the plan for tests/benches
  /// (kAuto = cost probe). Reuses this object's buffer capacity, so a
  /// kernel-owned plan rebuilt per cold query performs no steady-state
  /// allocation. Rows with weighted degree <= 0 get all-zero transition
  /// values (compiled as isolated by CompileAbsorbingSweep).
  void Build(const BipartiteGraph& g, WalkNormalization norm,
             std::shared_ptr<const WalkLayout> layout = nullptr,
             WalkSweepMode forced = WalkSweepMode::kAuto);

  /// True once Build has run.
  bool built() const { return graph_ != nullptr; }
  /// The graph the plan was built from (nullptr before Build).
  const BipartiteGraph* graph() const { return graph_; }
  WalkNormalization normalization() const { return norm_; }
  int32_t num_nodes() const { return num_nodes_; }
  /// "simple", "blocked" or "blocked_reordered"; bench/introspection only.
  const char* sweep_strategy() const;
  /// True when the plan sweeps a permuted CSR (adopted or privately built).
  bool reordered() const { return perm_ != nullptr; }
  /// Rows per L1 tile of the blocked row pass (0 in simple mode).
  int32_t row_tile() const { return row_tile_; }
  /// Heap bytes this plan owns beyond the graph/layout it points into
  /// (materialized transition values + any privately built layout). The
  /// SubgraphCache adds this to its resident-byte accounting.
  size_t OwnedBytes() const;

 private:
  friend class WalkKernel;

  const BipartiteGraph* graph_ = nullptr;
  WalkNormalization norm_ = WalkNormalization::kRowStochastic;
  int32_t num_nodes_ = 0;
  /// True when the plan normalizes rows on the fly from w_/wdeg_ instead
  /// of a materialized transition array (kRowStochastic, identity order —
  /// both the simple and the blocked plan).
  bool norm_fly_ = false;
  /// Rows per L1 tile of the blocked row pass (0 = flat simple loop).
  int32_t row_tile_ = 0;
  /// The CSR the sweeps walk: the graph's own arrays (identity order) or a
  /// WalkLayout's permuted arrays.
  const int64_t* ptr_ = nullptr;
  const NodeId* col_ = nullptr;
  /// Materialized transition values parallel to col_ (null when norm_fly_):
  /// layout row_prob, prob_.data(), or the graph's raw weights.
  const double* prob_data_ = nullptr;
  /// Raw weights + weighted degrees for the normalizing row passes.
  const double* w_ = nullptr;
  const double* wdeg_ = nullptr;
  /// Original local id → sweep-space row (null ⇔ identity layout).
  /// CompileAbsorbingSweep scatters coefficients through it; sweeps gather
  /// outputs back through it.
  const int32_t* perm_ = nullptr;
  /// Keeps an adopted layout alive for the lifetime of the plan.
  std::shared_ptr<const WalkLayout> layout_;
  /// Privately built layout (large one-shot builds); capacity reused.
  WalkLayout own_layout_;
  /// Normalized transition values in sweep order, parallel to col_ (unused
  /// when the layout supplies row_prob or the plan normalizes on the fly).
  std::vector<double> prob_;
};

/// The mutable, per-worker half: per-query sweep coefficients, value
/// buffers, and the runtime ISA binding, executing against a bound
/// WalkPlan. One kernel lives in each WalkWorkspace and inside each
/// PPR/Katz recommender. Buffers are sized lazily and keep their capacity,
/// so steady-state reuse performs no heap allocation. Not thread-safe: one
/// kernel per worker — but many kernels may share one adopted plan.
class WalkKernel {
 public:
  using Normalization = WalkNormalization;
  using SweepMode = WalkSweepMode;

  /// Binds the kernel to the best row-gather implementation the running
  /// CPU supports (one CPUID probe per process, cached; see
  /// walk_kernel_isa.h). The binary is portable — an AVX2 host runs the
  /// vgatherdpd flavour, any other host the scalar flavour, with
  /// bit-identical results.
  WalkKernel();
  WalkKernel(const WalkKernel&) = delete;
  WalkKernel& operator=(const WalkKernel&) = delete;

  /// Name of the row-gather flavour this kernel dispatches to ("avx2" or
  /// "generic").
  const char* isa_name() const;
  /// True when this build carries the AVX2 translation unit *and* the
  /// running CPU/OS support AVX2 — i.e. when new kernels bind to "avx2".
  static bool RuntimeAvx2Available();
  /// Test-only: rebinds this kernel to the portable scalar flavour so
  /// parity tests can compare both paths within one process.
  void ForceGenericIsaForTesting();

  /// Cold path: (re)builds this kernel's private plan for `g` and binds to
  /// it. O(edges); call once per extracted subgraph / fitted graph, then
  /// reuse across any number of sweeps. The plan keeps a pointer to `g`
  /// and reads its CSR arrays during sweeps, so `g` must outlive the
  /// kernel's use and must not be rebuilt in between.
  ///
  /// `layout` is an optional pre-built permutation of `g` (typically the
  /// one riding on a SubgraphCache payload): passing it makes the kernel
  /// sweep the permuted CSR without re-permuting. When absent, auto plans
  /// stay in identity order (a one-shot query cannot amortize the
  /// permutation build; only ForcePlanForTesting(kBlockedReordered)
  /// self-builds one). Either way every public input/output stays in
  /// original local id space, bit-identical to the identity layout.
  void BuildTransitions(const BipartiteGraph& g, Normalization norm,
                        std::shared_ptr<const WalkLayout> layout = nullptr);

  /// Warm path: binds to a shared, already-built plan — zero O(E) or O(V)
  /// work, just two pointer stores. The plan (and the graph/layout it
  /// points into) must stay alive while bound; SubgraphCache payloads
  /// guarantee this by carrying graph, layout and plan together. Any
  /// number of kernels may adopt one plan and sweep concurrently.
  void AdoptPlan(std::shared_ptr<const WalkPlan> plan);

  /// True once BuildTransitions or AdoptPlan has bound a plan; sweeps
  /// LT_CHECK this.
  bool has_transitions() const { return plan_ != nullptr; }
  /// The bound plan (nullptr before any build/adopt).
  const WalkPlan* plan() const { return plan_; }
  /// The graph the bound plan was built from (nullptr before any build).
  const BipartiteGraph* graph() const {
    return plan_ != nullptr ? plan_->graph_ : nullptr;
  }
  Normalization normalization() const {
    return plan_ != nullptr ? plan_->norm_ : Normalization::kRowStochastic;
  }

  /// The bound plan's strategy ("simple", "blocked" or "blocked_reordered");
  /// bench/introspection only.
  const char* sweep_strategy() const;
  /// True when the bound plan sweeps a permuted CSR (adopted or private).
  bool reordered() const { return plan_ != nullptr && plan_->reordered(); }
  /// Rows per L1 tile of the blocked row pass (0 in simple mode).
  int32_t row_tile() const { return plan_ != nullptr ? plan_->row_tile_ : 0; }
  /// Test/bench hook: pin the plan for subsequent BuildTransitions calls
  /// (kAuto restores the cost probe). kSimple requires kRowStochastic;
  /// kBlockedReordered builds a private layout when none is passed. Has no
  /// effect on AdoptPlan — adopted plans were decided at build time.
  void ForcePlanForTesting(SweepMode mode) { forced_plan_ = mode; }

  /// Plan constants on this machine (bench/introspection): the
  /// value-vector ceiling under which the cost probe picks the simple
  /// plan, and the rows-per-L1-tile the blocked plans sweep with. Derived
  /// from the measured cache geometry (walk_layout.h) once per process.
  static size_t SimplePlanMaxValueBytes();
  static int32_t BlockedPlanRowTile();

  /// Compiles one query's absorbing flags and per-node immediate costs
  /// into the branch-free coefficient vectors. Requires kRowStochastic
  /// transitions for the current graph. `absorbing` and `node_cost` are
  /// local (subgraph) node-indexed, sizes == graph()->num_nodes();
  /// `node_cost[v]` is the cost paid per step leaving v (1.0 for absorbing
  /// *time*, the Eq. 9 entropy costs for absorbing *cost*). Absorbing
  /// nodes are pinned at exactly 0 regardless of cost. O(nodes). Writes
  /// only this kernel's scratch — safe to run concurrently with other
  /// kernels compiled against the same shared plan.
  void CompileAbsorbingSweep(const std::vector<bool>& absorbing,
                             const std::vector<double>& node_cost);

  /// Runs `iterations` truncated-DP sweeps (Algorithm 1 step 4) from
  /// V_0 ≡ 0 using the compiled coefficients; the result lands in
  /// `*value` (resized to num_nodes) and `*scratch` holds the double
  /// buffer. Semantics match AbsorbingValueTruncatedReference: absorbing
  /// nodes stay exactly 0, isolated transient nodes grow by their cost
  /// each sweep, everything else contracts toward the absorbing fixed
  /// point. `iterations <= 0` leaves `*value` all zero.
  void SweepTruncated(int iterations, std::vector<double>* value,
                      std::vector<double>* scratch) const;

  /// Ranking flavour of SweepTruncated, exploiting bipartiteness: user
  /// rows gather only item values and vice versa, and the recommenders
  /// rank *items* only, so the final item values depend on a single
  /// alternating chain item_τ ← user_{τ-1} ← item_{τ-2} ← … ← V_0 ≡ 0.
  /// This sweep updates exactly one side per step — half the edge work of
  /// the full DP, in place in `*value` with no double buffer. On return,
  /// item rows of `*value` (local ids >= num_users) are BIT-IDENTICAL to
  /// SweepTruncated's; user rows hold their last intermediate update
  /// (iteration τ-1) and must not be consumed. Requires a genuinely
  /// bipartite graph (every edge user↔item, which BipartiteGraph
  /// construction guarantees) and compiled kRowStochastic coefficients.
  void SweepTruncatedItemValues(int iterations,
                                std::vector<double>* value) const;

  /// Queries one lane sweep advances together.
  static constexpr int kLanes = internal::kLaneWidth;

  /// Lane flavour of CompileAbsorbingSweep: compiles up to kLanes queries
  /// that share this plan and their node costs (lane l absorbs where
  /// absorbing[l] is set; lanes past absorbing.size() are padding that
  /// absorbs everywhere). Per-lane state is one absorbing-lane bit per
  /// node; the sweep reads `node_cost` in place (no per-kernel coefficient
  /// copy), so it must outlive the next SweepTruncatedItemValuesLanes.
  /// Valid only on identity-order row-stochastic plans (checked).
  /// O(nodes · lanes).
  void CompileAbsorbingLanes(std::span<const std::vector<bool>> absorbing,
                             const std::vector<double>& node_cost);

  /// Runs SweepTruncatedItemValues for every compiled lane in one pass per
  /// step: each edge's column and w·(1/d) are read once for all lanes,
  /// and each gather reads one contiguous block of the lanes' values. A row
  /// is skipped only when every lane absorbs it. Lane l's values
  /// (LaneValues) are bit-identical to SweepTruncatedItemValues after
  /// CompileAbsorbingSweep(absorbing[l], node_cost), user rows included.
  void SweepTruncatedItemValuesLanes(int iterations) const;

  /// Copies lane `lane`'s values from the last lane sweep into `*value`
  /// (resized to num_nodes).
  void LaneValues(int lane, std::vector<double>* value) const;

  /// One power-iteration step over the transition CSR:
  ///     y[v] = alpha·⟨prob_row(v), x⟩ + beta·restart[v]
  /// (`restart == nullptr` drops the second term). With kColumnStochastic
  /// transitions this is y = alpha·Pᵀx + beta·r — the PPR update; with
  /// kRaw it is y = alpha·A·x — the Katz frontier push. `x` and `y` must
  /// have num_nodes elements and must not alias.
  ///
  /// Sparse inputs stay cheap: when the rows with x != 0 carry less than
  /// half the graph's adjacency entries (the early Katz frontier, the
  /// first PPR iterations), the step runs as a push over those rows only
  /// — on a symmetric graph the push along row u with weight w/d(u)
  /// produces the same terms as the column-stochastic pull — instead of
  /// gathering all edges. The two execution paths agree to the kernel's
  /// ~1e-13 parity tolerance (not bit-identically), and the choice is a
  /// deterministic function of x, so repeated runs are reproducible.
  /// kRowStochastic transitions always take the dense pull (no Apply
  /// caller uses them).
  void Apply(double alpha, const double* x, double beta,
             const double* restart, double* y) const;

 private:
  /// Tiled absorbing pass over sweep-space rows [lo, hi): simple mode
  /// dispatches the normalizing rows once, blocked modes walk L1-sized row
  /// tiles and prefetch the next tile's index/value strips.
  void RunAbsorbingRange(int32_t lo, int32_t hi, const double* cur,
                         double* nxt) const;
  /// Same for the ranking sweep's in-place double-step pass.
  void RunFusedRange(int32_t lo, int32_t hi, double* x) const;
  /// Same for the lane sweep (single step, or double when `double_step`).
  void RunLanesRange(int32_t lo, int32_t hi, bool double_step,
                     double* x) const;
  /// Prefetches the col/prob strips of sweep-space rows [lo, hi).
  void PrefetchRows(int32_t lo, int32_t hi) const;

  /// The instruction-set flavour every sweep dispatches through; bound at
  /// construction, never null.
  const internal::WalkKernelIsa* isa_;
  SweepMode forced_plan_ = SweepMode::kAuto;

  /// The bound plan: &own_plan_ after BuildTransitions, adopted_.get()
  /// after AdoptPlan, null before either.
  const WalkPlan* plan_ = nullptr;
  /// Kernel-owned plan for the cold BuildTransitions path; capacity kept
  /// across rebuilds.
  WalkPlan own_plan_;
  /// Keeps an adopted shared plan alive while bound.
  std::shared_ptr<const WalkPlan> adopted_;

  /// Per-row sweep coefficients compiled by CompileAbsorbingSweep, indexed
  /// in sweep space (permuted when reordered).
  std::vector<double> add_;    // constant term (0 for absorbing rows)
  std::vector<double> scale_;  // 1 ordinary row, 0 absorbing/isolated
  std::vector<double> self_;   // 1 isolated transient row, else 0
  /// Lane sweeps: bit l set ⇔ the node absorbs for lane l, and the
  /// caller's node costs; set by CompileAbsorbingLanes.
  std::vector<uint8_t> lane_absorbing_;
  const double* lane_cost_ = nullptr;
  /// Interleaved lane values x[v·kLanes + l], kLanes slack doubles so the
  /// block can start on a 64-byte line: every gather then reads exactly
  /// one cache line.
  mutable std::vector<double> lane_x_;
  /// Permuted-space sweep buffers (reordered plans only). Mutable because
  /// sweeps are logically const — the kernel is single-owner per worker.
  mutable std::vector<double> pval_;
  mutable std::vector<double> pscratch_;
  mutable std::vector<double> px_;
};

}  // namespace longtail

#endif  // LONGTAIL_GRAPH_WALK_KERNEL_H_
