// Shared machinery for the paper's graph recommenders (HT, AT, AC1, AC2).
//
// Query flow (Algorithm 1): seed nodes → BFS subgraph capped at µ item
// nodes → truncated DP for τ iterations on the workspace's WalkKernel
// (the item-side ranking sweep; an exact linear solve when configured)
// → rank items by smallest time/cost. When µ cannot cap (µ <= 0 or µ >=
// the catalog size) the BFS subgraph is always the user's whole connected
// component, so every query instead sweeps one whole-graph plan built at
// Fit/LoadModel and filters items by component label. See
// docs/ARCHITECTURE.md for the full serving pipeline and docs/KERNELS.md
// for the kernel.
//
// All query state lives in a WalkWorkspace, so the per-query walk performs
// no global-sized heap allocation in the steady state. Every thread —
// single-user callers and serving-pool workers alike — pins one
// thread-local workspace; QueryBatch runs one walk per distinct user in the
// batch (in whole-graph mode, one 8-lane sweep per eight distinct users),
// fans those walks out over the process-lifetime ServingPool (no
// per-batch thread spawn, workspaces stay warm across batches), serves the
// top-k and candidate-scoring halves of every query for that user from the
// single walk, and can reuse extracted subgraphs through a shared
// SubgraphCache (BatchOptions::subgraph_cache).
#ifndef LONGTAIL_CORE_GRAPH_RECOMMENDER_BASE_H_
#define LONGTAIL_CORE_GRAPH_RECOMMENDER_BASE_H_

#include <memory>
#include <vector>

#include "core/recommender.h"
#include "graph/bipartite_graph.h"
#include "graph/markov.h"
#include "graph/subgraph.h"

namespace longtail {

/// Options shared by all graph-walk recommenders.
struct GraphWalkOptions {
  /// τ: truncated-DP sweeps (paper default 15, §5.2.2).
  int iterations = 15;
  /// µ: BFS subgraph cap on item nodes (paper default 6000, §5.2.2).
  /// µ <= 0 or µ >= the catalog size cannot cap: the BFS subgraph would be
  /// the user's whole component on every query, so Fit/LoadModel build one
  /// whole-graph plan that every query sweeps — no per-query extraction,
  /// and a BatchOptions::subgraph_cache is never consulted.
  int32_t max_subgraph_items = 6000;
  /// Edge weight = rating (paper) vs 1.0 (ablation).
  bool weighted_edges = true;
  /// Replace the truncated DP with an exact Gauss–Seidel solve
  /// (tests/ablation; slower).
  bool exact = false;
  SolverOptions solver;
};

/// Base class implementing Fit/RecommendTopK/ScoreItems/QueryBatch on top
/// of three hooks: seed nodes, absorbing flags, and per-node costs. The
/// hooks write into caller-owned buffers so the batch engine can reuse them
/// across queries.
class GraphRecommenderBase : public Recommender {
 public:
  /// Builds the bipartite rating graph from `data` (edge weight = rating
  /// when options().weighted_edges) and runs FitImpl. Must be called
  /// exactly once; `data` must outlive the recommender.
  Status Fit(const Dataset& data) override;

  /// Runs one walk for `user` and returns up to `k` unrated items ranked
  /// by smallest time/cost (ScoredItem::score is the negated walk value,
  /// so larger = better as everywhere else). Items outside the extracted
  /// subgraph (in whole-graph mode: outside the user's connected
  /// component) or unreachable from the absorbing set are never returned.
  /// FailedPrecondition for unfitted models and cold-start users.
  Result<std::vector<ScoredItem>> RecommendTopK(UserId user,
                                                int k) const override;

  /// Scores an explicit candidate list from one walk; aligned with
  /// `items`. Candidates outside the subgraph or the user's component (or
  /// unreachable) get kUnreachableScore; out-of-range ids fail with
  /// OutOfRange.
  Result<std::vector<double>> ScoreItems(
      UserId user, std::span<const ItemId> items) const override;

  /// Batch engine: groups the batch's non-empty queries by user and runs
  /// ONE walk per distinct user — every walker seeds from the user's own
  /// node, so duplicates of a user would walk identically — serving each
  /// member (its own top_k and score list) from that walk. Distinct users
  /// fan out on the long-lived ServingPool with one pinned WalkWorkspace
  /// per worker thread. A failed walk fails every member with the same
  /// status.
  ///
  /// In whole-graph mode the truncated walkers share one plan, so when the
  /// batch holds at least WalkKernel::kLanes distinct users they are
  /// validated first (an invalid user fails only its own members), then
  /// all swept kLanes = 8 at a time, the last lane group padded: one pass
  /// over the edge stream per lane group, after which each lane's values
  /// serve that user's members unchanged. Smaller batches, the capped-µ
  /// path and the exact solver walk one user per task.
  ///
  /// Results are bit-identical to the sequential per-user calls at any
  /// thread count, with or without lanes or a subgraph cache (which
  /// whole-graph mode never consults).
  std::vector<UserQueryResult> QueryBatch(
      std::span<const UserQuery> queries,
      const BatchOptions& options = {}) const override;

  /// Persists the fitted walker: walk options + the bipartite graph, plus
  /// whatever SaveExtraChunks appends (AC entropies, AC2's LDA tables).
  Status SaveModel(CheckpointWriter& writer) const override;

  /// Restores a walker saved by SaveModel; serves bit-identically to the
  /// fitted original without refitting.
  Status LoadModel(CheckpointReader& reader, const Dataset& data) override;

  /// The walk configuration this recommender was constructed (or
  /// checkpoint-restored) with.
  const GraphWalkOptions& options() const { return options_; }
  /// The fitted global rating graph; valid only after Fit/LoadModel.
  const BipartiteGraph& graph() const { return graph_; }

 protected:
  explicit GraphRecommenderBase(GraphWalkOptions options)
      : options_(options) {}

  /// Extra training after the graph is built (entropies, LDA). Default none.
  virtual Status FitImpl() { return Status::OK(); }

  /// Appends the global node ids seeding the BFS subgraph for this query
  /// to `*seeds` (cleared by the caller).
  virtual Status SeedNodes(UserId user, std::vector<NodeId>* seeds) const = 0;

  /// Writes local absorbing flags on the extracted subgraph into
  /// `*absorbing` (resized to the subgraph's node count, indexed by local
  /// node id). The walk pins absorbing nodes at value exactly 0; rankings
  /// order the remaining items by how fast the walk reaches this set.
  virtual void AbsorbingFlags(const Subgraph& sub, UserId user,
                              std::vector<bool>* absorbing) const = 0;

  /// Writes local per-node immediate costs into `*costs` (resized to the
  /// subgraph's node count): the cost a walker pays per step leaving each
  /// node. Default unit cost — values become expected steps (absorbing
  /// *time*); AC1/AC2 override with the Eq. 9 entropy costs (absorbing
  /// *cost*). Entries for absorbing nodes are ignored. Must not depend on
  /// the query user: whole-graph mode evaluates it once, at Fit/LoadModel,
  /// and every query reuses the result.
  virtual void NodeCosts(const Subgraph& sub,
                         std::vector<double>* costs) const;

  /// Appends subclass checkpoint chunks after the shared walker chunks.
  virtual Status SaveExtraChunks(CheckpointWriter& writer) const;

  /// Offers a chunk the base loader does not recognise to the subclass;
  /// sets `*handled` when consumed. Unhandled chunks are skipped (forward
  /// compatibility).
  virtual Status LoadExtraChunk(ChunkReader& chunk, bool* handled);

  /// Validates subclass state (filled in by LoadExtraChunk) once the whole
  /// chunk stream is consumed. Runs *before* the base commits options_,
  /// graph_ and data_, so a failure leaves the object unfitted and a
  /// fallback Fit() still works; validate against `data`, not data_.
  virtual Status FinishLoad(const Dataset& data);

  BipartiteGraph graph_;
  GraphWalkOptions options_;

 private:
  /// The fitted graph as one immutable identity payload (users and items
  /// as 0..n-1, node index and row-stochastic WalkPlan), with the node
  /// costs and per-node connected-component labels every query shares.
  struct WholeGraphPlan;

  /// Builds whole_graph_ when µ cannot cap (see
  /// GraphWalkOptions::max_subgraph_items), resets it otherwise. Runs at
  /// the end of Fit and LoadModel, once subclass state (AC entropies) is
  /// in place, since NodeCosts is evaluated here once for every query.
  void BuildWholeGraphPlan();

  /// The query-validity half of ComputeWalk: the user must be a fitted,
  /// in-range user with a non-empty seed set (written to `*seeds`).
  Status CheckSeeds(UserId user, std::vector<NodeId>* seeds) const;
  /// Runs Algorithm 1 for one user: subgraph into ws->sub() (the shared
  /// whole-graph payload when µ cannot cap; otherwise adopted from `cache`
  /// on a hit, extracted — and inserted — on a miss; nullptr disables
  /// caching), walk values into ws->values. On the default
  /// truncated path only the item rows (local ids >= sub().users.size())
  /// are valid — the kernel's ranking sweep leaves user rows as
  /// intermediates — and all values are finite; the exact path fills
  /// every row and marks unreachable nodes +inf. TopKFromWalk /
  /// ScoresFromWalk read item rows only and treat non-finite as
  /// unreachable, which is correct for both.
  Status ComputeWalk(UserId user, WalkWorkspace* ws,
                     SubgraphCache* cache) const;
  /// Serves the top-k and scoring halves of `query` from the walk values
  /// already in `ws` (every member of a QueryBatch user group).
  void ServeFromWalk(const UserQuery& query, const WalkWorkspace& ws,
                     UserQueryResult* out) const;
  /// False for items outside `user`'s connected component in whole-graph
  /// mode, which a per-query extraction would never have reached; true
  /// whenever µ caps (the extracted subgraph already bounds the walk).
  bool InUserComponent(UserId user, ItemId item) const;
  Result<std::vector<ScoredItem>> TopKFromWalk(UserId user, int k,
                                               const WalkWorkspace& ws) const;
  Result<std::vector<double>> ScoresFromWalk(UserId user,
                                             std::span<const ItemId> items,
                                             const WalkWorkspace& ws) const;

  /// Non-null exactly when µ cannot cap; immutable once built, so every
  /// pool worker sweeps it concurrently.
  std::shared_ptr<const WholeGraphPlan> whole_graph_;
};

}  // namespace longtail

#endif  // LONGTAIL_CORE_GRAPH_RECOMMENDER_BASE_H_
