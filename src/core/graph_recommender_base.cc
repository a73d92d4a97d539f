#include "core/graph_recommender_base.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>

#include "data/serialization.h"
#include "graph/subgraph_cache.h"
#include "util/serving_pool.h"

namespace longtail {

namespace {

/// Workspace pinned to the current thread. Serving-pool workers live for
/// the process, so their workspaces stay warm across batches — the
/// per-worker pinning the serving layer is built around. Ad-hoc
/// single-user RecommendTopK/ScoreItems callers get the same
/// zero-allocation steady state on their own threads. Deliberate
/// trade-off: the buffers (O(global nodes)) stay resident for the thread's
/// lifetime and can outlive the recommender that sized them.
WalkWorkspace& LocalWorkspace() {
  static thread_local WalkWorkspace workspace;
  return workspace;
}

/// Connected-component label of every node of `g`: the smallest node id
/// of its component. One O(V + E) BFS pass; a zero-degree node is its own
/// component.
std::vector<int32_t> ComponentLabels(const BipartiteGraph& g) {
  std::vector<int32_t> label(g.num_nodes(), -1);
  std::vector<NodeId> queue;
  for (NodeId root = 0; root < g.num_nodes(); ++root) {
    if (label[root] >= 0) continue;
    label[root] = root;
    queue.assign(1, root);
    for (size_t head = 0; head < queue.size(); ++head) {
      for (NodeId nbr : g.Neighbors(queue[head])) {
        if (label[nbr] >= 0) continue;
        label[nbr] = root;
        queue.push_back(nbr);
      }
    }
  }
  return label;
}

}  // namespace

struct GraphRecommenderBase::WholeGraphPlan {
  /// Identity payload over a compact copy of graph_: local ids equal
  /// global node ids, so adopters resolve ids through its node index.
  std::shared_ptr<const Subgraph> sub;
  /// NodeCosts(*sub), evaluated once; user-independent for every walker.
  std::vector<double> node_costs;
  /// ComponentLabels(graph_): a per-query extraction would have kept only
  /// the seed's component, so items labelled otherwise are skipped.
  std::vector<int32_t> component;
};

Status GraphRecommenderBase::Fit(const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition("Fit() must be called exactly once");
  }
  data_ = &data;
  graph_ = BipartiteGraph::FromDataset(data, options_.weighted_edges);
  LT_RETURN_IF_ERROR(FitImpl());
  BuildWholeGraphPlan();
  return Status::OK();
}

void GraphRecommenderBase::BuildWholeGraphPlan() {
  whole_graph_.reset();
  // While µ caps, each query extracts its own subgraph instead.
  const int32_t mu = options_.max_subgraph_items;
  if (mu > 0 && mu < graph_.num_items()) return;
  auto sub = std::make_shared<Subgraph>();
  sub->graph = graph_.CompactCopy();
  sub->users.resize(graph_.num_users());
  std::iota(sub->users.begin(), sub->users.end(), 0);
  sub->items.resize(graph_.num_items());
  std::iota(sub->items.begin(), sub->items.end(), 0);
  // The same plan the cold path's BuildTransitions would build for this
  // graph (no layout), built once instead of once per query.
  auto plan = std::make_shared<WalkPlan>();
  plan->Build(sub->graph, WalkNormalization::kRowStochastic);
  sub->plan = std::move(plan);
  sub->node_index.Build(graph_.num_users(), graph_.num_items(), *sub);
  auto whole = std::make_shared<WholeGraphPlan>();
  NodeCosts(*sub, &whole->node_costs);
  whole->component = ComponentLabels(graph_);
  whole->sub = std::move(sub);
  whole_graph_ = std::move(whole);
}

void GraphRecommenderBase::NodeCosts(const Subgraph& sub,
                                     std::vector<double>* costs) const {
  costs->assign(sub.graph.num_nodes(), 1.0);
}

Status GraphRecommenderBase::SaveExtraChunks(CheckpointWriter& writer) const {
  (void)writer;
  return Status::OK();
}

Status GraphRecommenderBase::LoadExtraChunk(ChunkReader& chunk,
                                            bool* handled) {
  (void)chunk;
  *handled = false;
  return Status::OK();
}

Status GraphRecommenderBase::FinishLoad(const Dataset& data) {
  (void)data;
  return Status::OK();
}

Status GraphRecommenderBase::SaveModel(CheckpointWriter& writer) const {
  if (data_ == nullptr) {
    return Status::FailedPrecondition("SaveModel requires a fitted model");
  }
  ChunkWriter options;
  options.Scalar<int32_t>(options_.iterations);
  options.Scalar<int32_t>(options_.max_subgraph_items);
  options.Scalar<uint8_t>(options_.weighted_edges ? 1 : 0);
  options.Scalar<uint8_t>(options_.exact ? 1 : 0);
  options.Scalar<int32_t>(options_.solver.max_iterations);
  options.Scalar<double>(options_.solver.tolerance);
  LT_RETURN_IF_ERROR(writer.WriteChunk(kChunkGraphWalkOptions,
                                       kCheckpointChunkVersion, options));
  ChunkWriter graph;
  graph_.SaveTo(&graph);
  LT_RETURN_IF_ERROR(
      writer.WriteChunk(kChunkBipartiteGraph, kCheckpointChunkVersion, graph));
  return SaveExtraChunks(writer);
}

Status GraphRecommenderBase::LoadModel(CheckpointReader& reader,
                                       const Dataset& data) {
  if (data_ != nullptr) {
    return Status::FailedPrecondition(
        "LoadModel requires an unfitted recommender");
  }
  // Staged into locals and committed only after the whole stream parses:
  // a failed load must not leave half-restored options behind, or a
  // fallback Fit() would silently train under the checkpoint's
  // configuration instead of the caller's. (Subclass state touched by
  // LoadExtraChunk needs no staging — FitImpl recomputes all of it.)
  bool have_options = false;
  bool have_graph = false;
  GraphWalkOptions loaded_options = options_;
  BipartiteGraph loaded_graph;
  ChunkReader chunk;
  while (true) {
    LT_ASSIGN_OR_RETURN(const bool more, reader.Next(&chunk));
    if (!more) break;
    switch (chunk.tag()) {
      case kChunkGraphWalkOptions: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported walk-options chunk version");
        }
        int32_t iterations = 0;
        int32_t max_items = 0;
        uint8_t weighted = 0;
        uint8_t exact = 0;
        LT_RETURN_IF_ERROR(chunk.Scalar(&iterations));
        LT_RETURN_IF_ERROR(chunk.Scalar(&max_items));
        LT_RETURN_IF_ERROR(chunk.Scalar(&weighted));
        LT_RETURN_IF_ERROR(chunk.Scalar(&exact));
        LT_RETURN_IF_ERROR(
            chunk.Scalar(&loaded_options.solver.max_iterations));
        LT_RETURN_IF_ERROR(chunk.Scalar(&loaded_options.solver.tolerance));
        loaded_options.iterations = iterations;
        loaded_options.max_subgraph_items = max_items;
        loaded_options.weighted_edges = weighted != 0;
        loaded_options.exact = exact != 0;
        have_options = true;
        break;
      }
      case kChunkBipartiteGraph: {
        if (chunk.version() > kCheckpointChunkVersion) {
          return Status::IOError("unsupported graph chunk version");
        }
        LT_ASSIGN_OR_RETURN(loaded_graph, BipartiteGraph::LoadFrom(&chunk));
        have_graph = true;
        break;
      }
      default: {
        bool handled = false;
        LT_RETURN_IF_ERROR(LoadExtraChunk(chunk, &handled));
        // Unhandled tags are skipped: newer checkpoints stay loadable.
        break;
      }
    }
  }
  if (!have_options || !have_graph) {
    return Status::IOError(
        "checkpoint is missing the graph walker chunks for " + name());
  }
  // Value validation mirrors what Fit-time construction guarantees: a
  // checksummed-but-hostile file must not bind a walker whose every query
  // silently returns garbage. (max_subgraph_items may be <= 0: uncapped.)
  if (loaded_options.iterations < 1 ||
      loaded_options.solver.max_iterations < 1 ||
      !std::isfinite(loaded_options.solver.tolerance) ||
      loaded_options.solver.tolerance < 0.0) {
    return Status::IOError("checkpoint walk options are invalid");
  }
  if (loaded_graph.num_users() != data.num_users() ||
      loaded_graph.num_items() != data.num_items()) {
    return Status::InvalidArgument(
        "checkpoint graph shape does not match the dataset");
  }
  // Subclass validation runs before the commit below: if it fails, the
  // object stays unfitted (data_ null, caller's options intact) and the
  // harness's fallback Fit() still works.
  LT_RETURN_IF_ERROR(FinishLoad(data));
  options_ = loaded_options;
  graph_ = std::move(loaded_graph);
  data_ = &data;
  BuildWholeGraphPlan();
  return Status::OK();
}

Status GraphRecommenderBase::CheckSeeds(UserId user,
                                        std::vector<NodeId>* seeds) const {
  LT_RETURN_IF_ERROR(CheckQueryUser(data_, user));
  seeds->clear();
  LT_RETURN_IF_ERROR(SeedNodes(user, seeds));
  if (seeds->empty()) {
    return Status::FailedPrecondition(
        "no seed nodes for user " + std::to_string(user) +
        " (cold-start users cannot be served by graph recommenders)");
  }
  return Status::OK();
}

Status GraphRecommenderBase::ComputeWalk(UserId user, WalkWorkspace* ws,
                                         SubgraphCache* cache) const {
  LT_RETURN_IF_ERROR(CheckSeeds(user, &ws->seeds));
  const std::vector<double>* costs = &ws->node_costs;
  if (whole_graph_ != nullptr) {
    // Whole-graph mode: extraction would return the seed's whole component
    // every time, so every user adopts the one Fit-time payload instead —
    // no BFS, no induced-CSR rebuild, no cache traffic, no plan or cost
    // build. TopKFromWalk/ScoresFromWalk drop items outside the user's
    // component.
    ws->AdoptSharedSubgraph(whole_graph_->sub);
    costs = &whole_graph_->node_costs;
  } else {
    SubgraphOptions sub_options;
    sub_options.max_items = options_.max_subgraph_items;
    // Subgraph extraction is a pure function of (graph, seeds, µ), so a
    // cached extraction — possibly inserted by a sibling recommender
    // fitted on the same dataset — is adopted verbatim; the walk below is
    // bit-identical either way. The cache's single-flight front door also
    // coalesces concurrent identical misses into one extraction.
    if (cache != nullptr) {
      cache->GetOrExtract(graph_, ws->seeds, sub_options, ws);
    } else {
      ExtractSubgraphInto(graph_, ws->seeds, sub_options, ws);
    }
    NodeCosts(ws->sub(), &ws->node_costs);
  }
  const Subgraph& sub = ws->sub();
  AbsorbingFlags(sub, user, &ws->absorbing);
  if (options_.exact) {
    LT_RETURN_IF_ERROR(AbsorbingValueExactInto(sub.graph, ws->absorbing,
                                               *costs, options_.solver,
                                               &ws->values, &ws->solver));
  } else {
    // Ranking sweep: TopKFromWalk/ScoresFromWalk consume item-side values
    // only, so the kernel runs the alternating half of the DP those values
    // depend on (bit-identical item values, half the edge work). User rows
    // of ws->values hold intermediates and must not be read.
    if (sub.plan != nullptr) {
      // Warm path: the cache payload carries the plan built at admission
      // (transitions + sweep-plan selection + layout binding), the
      // whole-graph payload the plan built at Fit/LoadModel. Adoption is
      // two pointer stores — the query's only remaining per-node work is
      // the coefficient compile below. Bit-identical to the cold branch:
      // the admission build ran the same decision procedure on the same
      // graph and layout.
      ws->kernel.AdoptPlan(sub.plan);
    } else {
      // Cold path: fresh extraction — rebuild the kernel's own plan. A
      // cache-borne layout (sub.layout) would make it sweep the
      // pre-permuted CSR, but fresh extractions have none.
      ws->kernel.BuildTransitions(sub.graph,
                                  WalkKernel::Normalization::kRowStochastic,
                                  sub.layout);
    }
    ws->kernel.CompileAbsorbingSweep(ws->absorbing, *costs);
    ws->kernel.SweepTruncatedItemValues(options_.iterations, &ws->values);
  }
  return Status::OK();
}

bool GraphRecommenderBase::InUserComponent(UserId user, ItemId item) const {
  if (whole_graph_ == nullptr) return true;
  const std::vector<int32_t>& component = whole_graph_->component;
  return component[graph_.ItemNode(item)] == component[graph_.UserNode(user)];
}

Result<std::vector<ScoredItem>> GraphRecommenderBase::TopKFromWalk(
    UserId user, int k, const WalkWorkspace& ws) const {
  const Subgraph& sub = ws.sub();
  const int32_t num_local_users = static_cast<int32_t>(sub.users.size());
  std::vector<ScoredItem> candidates;
  candidates.reserve(sub.items.size());
  for (size_t li = 0; li < sub.items.size(); ++li) {
    const ItemId item = sub.items[li];
    if (!InUserComponent(user, item)) continue;
    if (data_->HasRating(user, item)) continue;
    const double value = ws.values[num_local_users + static_cast<int32_t>(li)];
    if (!std::isfinite(value)) continue;  // Unreachable from absorbing set.
    candidates.push_back({item, -value});
  }
  return TopKScoredItems(std::move(candidates), k);
}

Result<std::vector<double>> GraphRecommenderBase::ScoresFromWalk(
    UserId user, std::span<const ItemId> items,
    const WalkWorkspace& ws) const {
  const Subgraph& sub = ws.sub();
  std::vector<double> scores(items.size(), kUnreachableScore);
  for (size_t k = 0; k < items.size(); ++k) {
    const ItemId item = items[k];
    if (item < 0 || item >= data_->num_items()) {
      return Status::OutOfRange("candidate item id out of range");
    }
    if (!InUserComponent(user, item)) continue;  // Unreachable.
    const NodeId local = sub.LocalItemNode(item);
    if (local < 0) continue;  // Outside the subgraph: unreachable.
    const double value = ws.values[local];
    if (std::isfinite(value)) scores[k] = -value;
  }
  return scores;
}

Result<std::vector<ScoredItem>> GraphRecommenderBase::RecommendTopK(
    UserId user, int k) const {
  WalkWorkspace& ws = LocalWorkspace();
  LT_RETURN_IF_ERROR(ComputeWalk(user, &ws, /*cache=*/nullptr));
  return TopKFromWalk(user, k, ws);
}

Result<std::vector<double>> GraphRecommenderBase::ScoreItems(
    UserId user, std::span<const ItemId> items) const {
  WalkWorkspace& ws = LocalWorkspace();
  LT_RETURN_IF_ERROR(ComputeWalk(user, &ws, /*cache=*/nullptr));
  return ScoresFromWalk(user, items, ws);
}

void GraphRecommenderBase::ServeFromWalk(const UserQuery& query,
                                         const WalkWorkspace& ws,
                                         UserQueryResult* out) const {
  if (query.top_k > 0) {
    auto top = TopKFromWalk(query.user, query.top_k, ws);
    if (!top.ok()) {
      out->status = top.status();
      return;
    }
    out->top_k = std::move(top).value();
  }
  if (!query.score_items.empty()) {
    auto scores = ScoresFromWalk(query.user, query.score_items, ws);
    if (!scores.ok()) {
      out->status = scores.status();
      return;
    }
    out->scores = std::move(scores).value();
  }
}

std::vector<UserQueryResult> GraphRecommenderBase::QueryBatch(
    std::span<const UserQuery> queries, const BatchOptions& options) const {
  std::vector<UserQueryResult> results(queries.size());
  // Every built-in walker seeds from the query user's own node, so two
  // queries walk identically exactly when they name the same user. Group
  // the non-empty queries by user (a stable sort of their indices keeps
  // each user's members in batch order); an empty query requests nothing
  // and keeps its default OK result without a walk, matching the default
  // Recommender::QueryBatch.
  std::vector<size_t> order;
  order.reserve(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    if (queries[i].top_k > 0 || !queries[i].score_items.empty()) {
      order.push_back(i);
    }
  }
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    return queries[a].user < queries[b].user;
  });
  // group_begin[g] .. group_begin[g + 1] spans user g's members in `order`.
  std::vector<size_t> group_begin;
  for (size_t j = 0; j < order.size(); ++j) {
    if (j == 0 || queries[order[j]].user != queries[order[j - 1]].user) {
      group_begin.push_back(j);
    }
  }
  group_begin.push_back(order.size());
  const auto user_of = [&](size_t g) {
    return queries[order[group_begin[g]]].user;
  };
  const auto observe = [&](size_t served) {
    if (options.fused_width_observer != nullptr) {
      (*options.fused_width_observer)(static_cast<int32_t>(served));
    }
  };
  const auto serve = [&](size_t g, const WalkWorkspace& ws) {
    for (size_t j = group_begin[g]; j < group_begin[g + 1]; ++j) {
      ServeFromWalk(queries[order[j]], ws, &results[order[j]]);
    }
  };
  const auto fail = [&](size_t g, const Status& st) {
    for (size_t j = group_begin[g]; j < group_begin[g + 1]; ++j) {
      results[order[j]].status = st;
    }
  };
  ServingPool& pool =
      options.pool != nullptr ? *options.pool : ServingPool::Global();

  // The users to walk, in user order. In whole-graph mode every distinct
  // user adopts the same plan, so once the batch fills a lane group the
  // truncated walker sweeps all of its users kLanes at a time, the last
  // group padded: one pass over the edge stream serves a lane group, each
  // lane bit-identical to its own walk. A padded group costs about as much
  // as a full one, so a batch with fewer distinct users than kLanes, like
  // every other mode, walks one user per task.
  constexpr size_t kLanes = WalkKernel::kLanes;
  std::vector<size_t> walks(group_begin.size() - 1);
  std::iota(walks.begin(), walks.end(), 0);
  bool lanes = false;
  if (whole_graph_ != nullptr && !options_.exact && walks.size() >= kLanes) {
    // Validate before grouping, so a failing user fails only its own
    // members and never its lane-mates.
    std::vector<NodeId> seeds;
    size_t valid = 0;
    for (size_t g : walks) {
      const Status st = CheckSeeds(user_of(g), &seeds);
      if (st.ok()) {
        walks[valid++] = g;
      } else {
        fail(g, st);
      }
    }
    walks.resize(valid);
    lanes = valid >= kLanes;
  }

  // One task per lane group or user, claimed one at a time (grain 1) so
  // skewed subgraph sizes stay balanced, each on its thread's pinned
  // workspace: a walk runs once and serves every member of its user(s),
  // bit-identical to each member's own sequential call.
  pool.ParallelFor(
      lanes ? (walks.size() + kLanes - 1) / kLanes : walks.size(),
      [&](size_t task) {
        WalkWorkspace& ws = LocalWorkspace();
        if (lanes) {
          const size_t first = task * kLanes;
          const size_t width = std::min(kLanes, walks.size() - first);
          ws.AdoptSharedSubgraph(whole_graph_->sub);
          const Subgraph& sub = ws.sub();
          size_t served = 0;
          for (size_t l = 0; l < width; ++l) {
            const size_t g = walks[first + l];
            AbsorbingFlags(sub, user_of(g), &ws.lane_absorbing[l]);
            served += group_begin[g + 1] - group_begin[g];
          }
          ws.kernel.AdoptPlan(sub.plan);
          ws.kernel.CompileAbsorbingLanes(
              std::span(ws.lane_absorbing.data(), width),
              whole_graph_->node_costs);
          ws.kernel.SweepTruncatedItemValuesLanes(options_.iterations);
          observe(served);
          for (size_t l = 0; l < width; ++l) {
            ws.kernel.LaneValues(static_cast<int>(l), &ws.values);
            serve(walks[first + l], ws);
          }
          return;
        }
        const size_t g = walks[task];
        const Status st = ComputeWalk(user_of(g), &ws, options.subgraph_cache);
        if (!st.ok()) {
          fail(g, st);
          return;
        }
        observe(group_begin[g + 1] - group_begin[g]);
        serve(g, ws);
      },
      options.num_threads, /*grain=*/1);
  return results;
}

}  // namespace longtail
