#ifndef RST_RSTKNN_SEARCH_IMPL_H_
#define RST_RSTKNN_SEARCH_IMPL_H_

/// The templated branch-and-bound engine behind RstknnSearcher. Everything
/// here is an implementation detail of rstknn.cc.
///
/// Both RSTkNN algorithms are templates over a read-only tree view; the one
/// view is FrozenTreeView over the flat-layout snapshot (rst::frozen). A
/// view names nodes and entries by NodeRef/EntryRef (dense indices) and
/// exposes:
///   * topology — Root, NumNodes, NumEntries, EntryAt, Child, IsObject, Id,
///                Count;
///   * geometry — RectOf;
///   * text     — Summary / ClusterSummary as SummarySpan, which feed the
///                single span-kernel implementation of every similarity
///                bound;
///   * keys     — NodeKey/EntryKey map refs to uintptr_t for the query-path
///                set and the contribution-list pair memo of
///                ProbeScratch::Impl; NodeKey also indexes the per-node flag
///                array of charged nodes;
///   * I/O      — Charge (simulated or real through a buffer pool);
///   * explain  — ExplainOf yielding the deterministic explain id/level.
///
/// The probe algorithm decides each candidate with one competitor probe
/// (DESIGN.md §3.2): prune when k competitors are guaranteed to beat q,
/// else report an object (its count is exact) or expand a node. Nodes are
/// never reported wholesale, so a node's probe is capped at ⌈Count(E)/2⌉
/// bound computations. The search is level-synchronous (DESIGN.md §8.1):
/// each round decides every candidate of the current frontier against the
/// immutable tree, and the next frontier is the expanded candidates'
/// children in frontier order. A candidate's decision and its counters
/// depend only on the candidate, so a round can fan out across a thread pool
/// and the answers and RstknnStats are identical at any thread count. Entry
/// iteration order is fixed by the layout and the hash containers are never
/// iterated, so results, RstknnStats, and EXPLAIN output are deterministic.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <iterator>
#include <memory>
#include <queue>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <utility>
#include <vector>

#include "rst/common/check.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/rstknn.h"
#include "rst/storage/codec.h"

namespace rst {
namespace rstknn_internal {

/// Key/hash for the contribution-list pair memo (ordered entry-key pair).
struct EntryPairKey {
  uintptr_t a = 0;
  uintptr_t b = 0;
  bool operator==(const EntryPairKey& o) const { return a == o.a && b == o.b; }
};
struct EntryPairKeyHash {
  size_t operator()(const EntryPairKey& k) const {
    const size_t h1 = std::hash<uintptr_t>()(k.a);
    const size_t h2 = std::hash<uintptr_t>()(k.b);
    return h1 ^ (h2 + 0x9e3779b97f4a7c15ULL + (h1 << 6) + (h1 >> 2));
  }
};

struct PairBoundsValue {
  double mn = 0.0;
  double mx = 0.0;
};

}  // namespace rstknn_internal

/// The working memory behind the public ProbeScratch handle, all of query
/// scope. self_path (the query object's root path) and charged are read by
/// every fan-out worker through the calling thread's scratch; pair_bounds is
/// the contribution-list algorithm's pair memo, which spans one whole query
/// because each pick recomputes its list against every live entry. The probe
/// algorithm keeps no memo: one probe per candidate examines each entry at
/// most once. clear() keeps hash-table buckets, which is the point of reuse.
struct ProbeScratch::Impl {
  std::unordered_set<uintptr_t> self_path;
  /// One flag per tree node: set once the node's I/O is charged this query.
  std::vector<uint8_t> charged;
  std::unordered_map<rstknn_internal::EntryPairKey,
                     rstknn_internal::PairBoundsValue,
                     rstknn_internal::EntryPairKeyHash>
      pair_bounds;

  void ResetForQuery(size_t num_nodes) {
    self_path.clear();
    charged.assign(num_nodes, 0);
    pair_bounds.clear();
  }
  /// True for exactly one caller per node and query, whichever worker
  /// touches the node first. The load skips the exchange for nodes already
  /// paid for, which is nearly every probe visit.
  bool Claim(uintptr_t node) {
    std::atomic_ref<uint8_t> flag(charged[node]);
    return flag.load() == 0 && flag.exchange(1) == 0;
  }
};

namespace rstknn_internal {

/// Collects the node-key set on the root-to-leaf path of object `id`.
template <typename View>
bool CollectPath(const View& view, typename View::NodeRef node, ObjectId id,
                 std::unordered_set<uintptr_t>* path) {
  for (size_t i = 0, n = view.NumEntries(node); i < n; ++i) {
    const auto e = view.EntryAt(node, i);
    if (view.IsObject(e)) {
      if (view.Id(e) == id) {
        path->insert(View::NodeKey(node));
        return true;
      }
    } else if (CollectPath(view, view.Child(e), id, path)) {
      path->insert(View::NodeKey(node));
      return true;
    }
  }
  return false;
}

/// Explain id and tree level of one entry: the stable numbering behind
/// EXPLAIN decisions and heatmap nodes (ids start at 1).
struct ExplainInfo {
  uint64_t id = 0;
  uint32_t level = 0;
};

struct FrozenTreeView {
  using NodeRef = uint32_t;
  using EntryRef = uint32_t;

  const frozen::FrozenTree* tree = nullptr;

  size_t TreeSize() const { return tree->size(); }
  size_t NumNodes() const { return tree->num_nodes(); }
  NodeRef Root() const { return tree->root(); }
  size_t NumEntries(NodeRef n) const { return tree->EntryCount(n); }
  EntryRef EntryAt(NodeRef n, size_t i) const {
    return tree->EntryBegin(n) + static_cast<uint32_t>(i);
  }
  bool IsObject(EntryRef e) const { return tree->IsObject(e); }
  ObjectId Id(EntryRef e) const { return tree->ObjectIdOf(e); }
  NodeRef Child(EntryRef e) const { return tree->Child(e); }
  uint32_t Count(EntryRef e) const { return tree->Count(e); }
  const Rect& RectOf(EntryRef e) const { return tree->EntryRect(e); }
  SummarySpan Summary(EntryRef e) const { return tree->Summary(e); }
  size_t NumClusters(EntryRef e) const { return tree->NumClusters(e); }
  SummarySpan ClusterSummary(EntryRef e, size_t i) const {
    return tree->ClusterSummary(e, static_cast<uint32_t>(i));
  }
  uint32_t ClusterCount(EntryRef e, size_t i) const {
    return tree->ClusterCount(e, static_cast<uint32_t>(i));
  }

  static uintptr_t NodeKey(NodeRef n) { return n; }
  static uintptr_t EntryKey(EntryRef e) { return e; }

  /// Charges one node access. In real-I/O mode (options.pool set) the node's
  /// serialized inverted file is read through the buffer pool — hits charge
  /// nothing and the pool's hit/miss/fill metrics reflect genuine traffic;
  /// otherwise the papers' simulated accounting applies.
  void Charge(NodeRef n, const RstknnOptions& options,
              RstknnStats* stats) const {
    if (options.pool != nullptr) {
      obs::TraceSpan span(options.trace, obs::names::kSpanStorageReadNode);
      obs::PhaseTimer io_phase(options.profiler, obs::Phase::kIo);
      InvertedFile invfile;
      if (tree->ReadNodePayload(n, options.pool, &stats->io, &invfile).ok()) {
        return;
      }
      // Payloads not finalized: fall back below (nothing was charged).
    }
    tree->ChargeAccess(n, &stats->io);
  }

  /// Frozen entry indices ARE the explain numbering (index + 1).
  ExplainInfo ExplainOf(EntryRef e) const {
    return ExplainInfo{static_cast<uint64_t>(e) + 1, tree->EntryLevel(e)};
  }
};

/// Generic counterparts of EntryTextBounds / EntryPairTextBounds /
/// EntryTextBoundsVsClusters / EntryClusterEntropy (iurtree.h). Cluster
/// iteration order and kernel call sequence match those IurTree free
/// functions exactly — both share the same span kernels underneath, so the
/// computed doubles are bit-identical.
template <typename View>
TextBounds ViewEntryTextBounds(const View& view, typename View::EntryRef e,
                               const SummarySpan& other,
                               const TextSimilarity& sim) {
  const size_t nc = view.NumClusters(e);
  if (nc == 0) {
    const SummarySpan s = view.Summary(e);
    return {sim.MinSim(s, other), sim.MaxSim(s, other)};
  }
  TextBounds bounds{1.0, 0.0};
  for (size_t i = 0; i < nc; ++i) {
    const SummarySpan s = view.ClusterSummary(e, i);
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(s, other));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(s, other));
  }
  return bounds;
}

template <typename View>
TextBounds ViewPairTextBounds(const View& view, typename View::EntryRef a,
                              typename View::EntryRef b,
                              const TextSimilarity& sim) {
  const size_t na = view.NumClusters(a);
  const size_t nb = view.NumClusters(b);
  if (na == 0 && nb == 0) {
    const SummarySpan sa = view.Summary(a);
    const SummarySpan sb = view.Summary(b);
    return {sim.MinSim(sa, sb), sim.MaxSim(sa, sb)};
  }
  // Treat an unclustered side as one blended cluster.
  TextBounds bounds{1.0, 0.0};
  for (size_t i = 0; i < std::max<size_t>(na, 1); ++i) {
    const SummarySpan sa = na == 0 ? view.Summary(a) : view.ClusterSummary(a, i);
    for (size_t j = 0; j < std::max<size_t>(nb, 1); ++j) {
      const SummarySpan sb =
          nb == 0 ? view.Summary(b) : view.ClusterSummary(b, j);
      bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(sa, sb));
      bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(sa, sb));
    }
  }
  return bounds;
}

template <typename View>
TextBounds ViewBoundsVsClusters(const View& view, const SummarySpan& a,
                                typename View::EntryRef b,
                                const TextSimilarity& sim) {
  const size_t nb = view.NumClusters(b);
  if (nb == 0) {
    const SummarySpan sb = view.Summary(b);
    return {sim.MinSim(a, sb), sim.MaxSim(a, sb)};
  }
  TextBounds bounds{1.0, 0.0};
  for (size_t i = 0; i < nb; ++i) {
    const SummarySpan sb = view.ClusterSummary(b, i);
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(a, sb));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(a, sb));
  }
  return bounds;
}

template <typename View>
double ViewClusterEntropy(const View& view, typename View::EntryRef e) {
  const size_t nc = view.NumClusters(e);
  if (nc == 0) return 0.0;
  std::vector<uint32_t> counts;
  counts.reserve(nc);
  for (size_t i = 0; i < nc; ++i) counts.push_back(view.ClusterCount(e, i));
  return ClusterEntropy(counts);
}

/// A candidate entry of the branch-and-bound search: a subtree (or object)
/// whose membership in the answer is still to be decided.
template <typename View>
struct Candidate {
  typename View::EntryRef entry{};
  /// NodeKeys of the root path whose subtrees contain this entry (used to
  /// avoid double-counting the candidate's own objects during probes).
  std::vector<uintptr_t> path;
  bool contains_self = false;  ///< subtree holds the query object
  double q_min = 0.0;          ///< MinST(q, E)
  double q_max = 0.0;          ///< MaxST(q, E)
};

template <typename View>
void CollectObjectIds(const View& view, typename View::EntryRef entry,
                      ObjectId exclude, std::vector<ObjectId>* out) {
  if (view.IsObject(entry)) {
    if (view.Id(entry) != exclude) out->push_back(view.Id(entry));
    return;
  }
  const auto child = view.Child(entry);
  for (size_t i = 0, n = view.NumEntries(child); i < n; ++i) {
    CollectObjectIds(view, view.EntryAt(child, i), exclude, out);
  }
}

/// Per-query EXPLAIN state: the recorder (reset + stamped here) and the
/// cross-query heatmap, both keyed by the view's explain ids. Everything is
/// a no-op when neither is attached.
struct ExplainSink {
  obs::ExplainRecorder* recorder = nullptr;
  obs::HeatmapRecorder* heatmap = nullptr;

  ExplainSink(const RstknnOptions& options, std::string_view algorithm)
      : recorder(options.explain), heatmap(options.heatmap) {
    // The heatmap is deliberately NOT reset: it accumulates across queries.
    if (recorder != nullptr) {
      recorder->Reset();
      recorder->SetAlgorithm(algorithm);
    }
  }
  /// A fan-out worker's sink: its private heatmap only.
  explicit ExplainSink(obs::HeatmapRecorder* worker_heatmap)
      : heatmap(worker_heatmap) {}

  template <typename View>
  void Record(const View& view, typename View::EntryRef entry, double q_min,
              double q_max, obs::ExplainVerdict verdict,
              obs::ExplainBound bound, uint64_t decided_objects) const {
    if (recorder == nullptr && heatmap == nullptr) return;
    const ExplainInfo info = view.ExplainOf(entry);
    if (recorder != nullptr) {
      recorder->Record({info.id, info.level, verdict, bound, q_min, q_max,
                        decided_objects});
    }
    if (heatmap != nullptr) {
      heatmap->Record(info.id, info.level, verdict, bound, decided_objects);
    }
  }
};

/// Query-scope inputs of every probe decision. Read-only during a round,
/// except for the charged-node claims in `shared`, which are atomic.
template <typename View>
struct ProbeQuery {
  const View& view;
  const Dataset& dataset;
  const StScorer& scorer;
  const RstknnQuery& query;
  const RstknnOptions& options;
  SummarySpan qspan;
  ProbeScratch::Impl* shared;  ///< self_path + charged (the caller's scratch)

  /// Charges one node access the first time any worker opens the node this
  /// query. The branch-and-bound keeps every opened node resident for the
  /// whole query, so each node costs its I/O once however many probes
  /// revisit it — and the charged set, hence RstknnStats::io, does not
  /// depend on which worker got there first.
  void ChargeOnce(typename View::NodeRef node, RstknnStats* stats) const {
    if (shared->Claim(View::NodeKey(node))) view.Charge(node, options, stats);
  }
};

/// One worker's private state in a probe search: its decision sink,
/// counters and answers. Counters and answers are merged after the last
/// round; integer sums and a final sort make the merge order-free.
struct ProbeWorker {
  ExplainSink explain;
  RstknnStats stats;
  std::vector<ObjectId> answers;
};

/// Appends the candidate for entry `e` (with MinST/MaxST to q) to `out`.
template <typename View>
void AddCandidate(const ProbeQuery<View>& ctx, typename View::EntryRef e,
                  std::vector<uintptr_t> path, RstknnStats* stats,
                  std::vector<Candidate<View>>* out) {
  const View& view = ctx.view;
  const StScorer& scorer = ctx.scorer;
  const RstknnQuery& query = ctx.query;
  if (view.IsObject(e) && view.Id(e) == query.self) return;  // never a
                                                             // candidate
  Candidate<View> cand;
  cand.entry = e;
  cand.path = std::move(path);
  if (view.IsObject(e)) {
    const StObject& obj = ctx.dataset.object(view.Id(e));
    cand.q_min = cand.q_max =
        scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
  } else {
    const double alpha = scorer.options().alpha;
    cand.contains_self =
        ctx.shared->self_path.count(View::NodeKey(view.Child(e))) > 0;
    const TextBounds tb =
        ViewEntryTextBounds(view, e, ctx.qspan, scorer.text());
    const Rect& rect = view.RectOf(e);
    cand.q_min = alpha * scorer.SpatialSim(MaxDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.min_sim;
    cand.q_max = alpha * scorer.SpatialSim(MinDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.max_sim;
  }
  ++stats->entries_created;
  out->push_back(std::move(cand));
}

/// Counts competitor objects guaranteed to beat q for every object of
/// candidate E, stopping at k: an object o' counts when pair MinST(E, o')
/// exceeds the threshold MaxST(q,E), and a disjoint subtree whose MinST
/// already clears the threshold counts wholesale. Traversal is best-first by
/// pair MaxST, so it ends as soon as no remaining subtree can matter; for an
/// object candidate the count is then exact, which forces a decision at leaf
/// level. The probe stops early once it has spent `budget` bound
/// computations (checked before each pop); the partial count is still a lower
/// bound on the true one, which is all the prune test needs.
template <typename View>
size_t CountCompetitors(const ProbeQuery<View>& ctx,
                        const Candidate<View>& cand, uint64_t budget,
                        RstknnStats* stats) {
  using NodeRef = typename View::NodeRef;
  const View& view = ctx.view;
  const StScorer& scorer = ctx.scorer;
  const size_t k = ctx.query.k;
  const ObjectId exclude = ctx.query.self;
  const auto& exclude_path = ctx.shared->self_path;
  const auto e = cand.entry;
  const Rect& e_rect = view.RectOf(e);
  const SummarySpan e_sum = view.Summary(e);
  const bool e_is_object = view.IsObject(e);
  const double alpha = scorer.options().alpha;
  const double threshold = cand.q_max;
  const uint64_t bounds_before = stats->bound_computations;
  ++stats->probes;

  size_t count = 0;
  // Self term: the candidate's own other objects compete among themselves.
  uint32_t own = view.Count(e) - (cand.contains_self ? 1 : 0);
  if (own > 1) {
    const TextBounds tb = ViewPairTextBounds(view, e, e, scorer.text());
    ++stats->bound_computations;
    const double intra = alpha * scorer.SpatialSim(MaxDistance(e_rect, e_rect)) +
                         (1.0 - alpha) * tb.min_sim;
    if (intra > threshold) {
      count += own - 1;
      if (count >= k) return k;
    }
  }

  // Pair bounds with lazy cluster refinement: the cheap blended-summary
  // bound decides most entries outright; per-cluster bounds (up to
  // |clusters|^2 kernel evaluations) are computed only when the blended
  // bound straddles the threshold and could change the outcome.
  auto pair_bounds = [&](typename View::EntryRef other) {
    const Rect& other_rect = view.RectOf(other);
    const double spatial_min =
        alpha * scorer.SpatialSim(MaxDistance(e_rect, other_rect));
    const double spatial_max =
        alpha * scorer.SpatialSim(MinDistance(e_rect, other_rect));
    ++stats->bound_computations;
    const SummarySpan other_sum = view.Summary(other);
    double mn = spatial_min +
                (1.0 - alpha) * scorer.text().MinSim(e_sum, other_sum);
    double mx = spatial_max +
                (1.0 - alpha) * scorer.text().MaxSim(e_sum, other_sum);
    if (view.NumClusters(other) > 0 && mn <= threshold && mx > threshold) {
      const TextBounds tb =
          ViewBoundsVsClusters(view, e_sum, other, scorer.text());
      ++stats->bound_computations;
      mn = spatial_min + (1.0 - alpha) * tb.min_sim;
      mx = spatial_max + (1.0 - alpha) * tb.max_sim;
    }
    return std::make_pair(mn, mx);
  };

  auto is_own_subtree = [&](NodeRef node) {
    return !e_is_object && node == view.Child(e);
  };
  auto is_ancestor = [&](NodeRef node) {
    return std::find(cand.path.begin(), cand.path.end(),
                     View::NodeKey(node)) != cand.path.end();
  };

  struct ProbeItem {
    double max_st;
    double min_st;
    NodeRef node;
    bool contains_exclude;
    bool operator<(const ProbeItem& other) const {
      return max_st < other.max_st;
    }
  };
  std::priority_queue<ProbeItem> pq;
  pq.push({1.0, 0.0, view.Root(), true});

  while (!pq.empty()) {
    if (stats->bound_computations - bounds_before >= budget) break;
    const ProbeItem item = pq.top();
    pq.pop();
    ++stats->pq_pops;
    if (item.max_st <= threshold) break;  // nothing left can matter
    ctx.ChargeOnce(item.node, stats);
    for (size_t i = 0, n = view.NumEntries(item.node); i < n; ++i) {
      const auto child = view.EntryAt(item.node, i);
      if (view.IsObject(child)) {
        if (view.Id(child) == exclude) continue;
        if (e_is_object && view.Id(child) == view.Id(e)) continue;
        if (pair_bounds(child).first > threshold && ++count >= k) return k;
        continue;
      }
      const NodeRef child_node = view.Child(child);
      if (is_own_subtree(child_node)) continue;  // covered by the self term
      const auto [mn, mx] = pair_bounds(child);
      if (mx <= threshold) continue;  // no object inside can matter
      const bool overlaps_cand = is_ancestor(child_node);
      const bool overlaps_excl =
          exclude_path.count(View::NodeKey(child_node)) > 0;
      if (mn > threshold && !overlaps_cand) {
        // Every object in this disjoint subtree clears the threshold.
        count += view.Count(child) - (overlaps_excl ? 1 : 0);
        if (count >= k) return k;
        continue;
      }
      pq.push({mx, mn, child_node, overlaps_excl});
    }
  }
  return count;
}

/// Decides one candidate with one competitor probe: prune, report (objects
/// only), or expand into `children`. Reads only the immutable tree and query
/// scope, and writes only the worker's own state, so candidates of one round
/// can be decided concurrently.
///
/// Prune test: at least k competitors are guaranteed to beat q for every
/// object of the candidate (MaxST(q,E) < kNNL(E)). A node is never reported
/// wholesale, so a node that is not pruned is expanded; that also makes its
/// probe worth at most ⌈Count(E)/2⌉ bound computations, because deciding
/// the node's objects one by one costs at least Count(E). An object's probe
/// runs unbudgeted to its exact count.
template <typename View>
void DecideCandidate(const ProbeQuery<View>& ctx, const Candidate<View>& cand,
                     ProbeWorker* w, std::vector<Candidate<View>>* children) {
  using NodeRef = typename View::NodeRef;
  const View& view = ctx.view;
  obs::QueryTrace* trace = ctx.options.trace;
  obs::PhaseProfiler* profiler = ctx.options.profiler;
  RstknnStats& stats = w->stats;
  ++stats.pq_pops;
  const bool object = view.IsObject(cand.entry);
  const uint32_t cand_count = view.Count(cand.entry);

  size_t guaranteed;
  {
    obs::TraceSpan span(trace, obs::names::kSpanProbeGuaranteed);
    obs::PhaseTimer bounds_phase(profiler, obs::Phase::kBounds);
    const uint64_t bounds_before = stats.bound_computations;
    const uint64_t pops_before = stats.pq_pops;
    const uint64_t budget = object ? UINT64_MAX : (cand_count + 1) / 2;
    guaranteed = CountCompetitors(ctx, cand, budget, &stats);
    span.AddCount(obs::names::kCountBoundComputations,
                  stats.bound_computations - bounds_before);
    span.AddCount(obs::names::kCountPqPops, stats.pq_pops - pops_before);
  }
  if (guaranteed >= ctx.query.k) {
    ++stats.pruned_entries;
    w->explain.Record(view, cand.entry, cand.q_min, cand.q_max,
                      object ? obs::ExplainVerdict::kReportMiss
                             : obs::ExplainVerdict::kPrune,
                      object ? obs::ExplainBound::kExact
                             : obs::ExplainBound::kLowerBound,
                      cand_count - (cand.contains_self ? 1 : 0));
    return;
  }
  // An object's count is exact: fewer than k competitors beat q ⇒ the
  // object is an answer.
  if (object) {
    ++stats.reported_entries;
    w->explain.Record(view, cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kExact, 1);
    w->answers.push_back(view.Id(cand.entry));
    return;
  }
  obs::TraceSpan expand_span(trace, obs::names::kSpanExpand);
  obs::PhaseTimer descent_phase(profiler, obs::Phase::kDescent);
  const NodeRef child_node = view.Child(cand.entry);
  ctx.ChargeOnce(child_node, &stats);
  ++stats.expansions;
  w->explain.Record(view, cand.entry, cand.q_min, cand.q_max,
                    obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
  std::vector<uintptr_t> child_path = cand.path;
  child_path.push_back(View::NodeKey(child_node));
  const size_t num_children = view.NumEntries(child_node);
  for (size_t i = 0; i < num_children; ++i) {
    AddCandidate(ctx, view.EntryAt(child_node, i), child_path, &stats,
                 children);
  }
  expand_span.AddCount(obs::names::kCountEntries, num_children);
}

/// The probe algorithm's one driver. Each round decides every candidate of
/// the frontier; the next frontier is the expanded candidates' children in
/// frontier order. Without a pool (or with a 1-thread pool) rounds run
/// inline on the caller. With more threads each round is one ParallelFor:
/// worker w decides its candidates into its own counters and heatmap,
/// and writes children into the slot of their parent's frontier index.
/// Answers and every RstknnStats field equal the inline search (decisions
/// are per-candidate and the charged set is order-free). EXPLAIN, traces,
/// the phase profiler and the real-I/O buffer pool are single-threaded
/// instruments, so a fanned-out search rejects them.
template <typename View>
RstknnResult SearchProbe(const View& view, const Dataset& dataset,
                         const StScorer& scorer, const RstknnQuery& query,
                         const RstknnOptions& options,
                         exec::ThreadPool* pool) {
  RstknnResult result;
  if (view.TreeSize() == 0 || query.k == 0) return result;
  const size_t num_workers = pool != nullptr ? pool->num_threads() : 1;
  if (num_workers > 1) {
    RST_CHECK(options.explain == nullptr)
        << "EXPLAIN records decisions in order on one thread; attach a "
           "heatmap to a fanned-out search instead";
    RST_CHECK(options.trace == nullptr)
        << "query traces are single-threaded; unsupported with a "
           "multi-thread pool";
    RST_CHECK(options.profiler == nullptr)
        << "the phase profiler is single-threaded; unsupported with a "
           "multi-thread pool";
    RST_CHECK(options.pool == nullptr)
        << "the real-I/O buffer pool is single-threaded; unsupported with a "
           "multi-thread pool";
  }
  obs::QueryTrace* trace = options.trace;
  obs::PhaseProfiler* profiler = options.profiler;
  if (trace != nullptr) trace->Enter(obs::names::kSpanSetup);
  if (profiler != nullptr) profiler->Enter(obs::Phase::kDescent);
  const TextSummary qsum = TextSummary::FromDoc(*query.doc);

  // Query-scope working memory: reuse the caller's scratch (clearing keeps
  // hash-table buckets warm across a batch) or allocate a query-local one.
  std::unique_ptr<ProbeScratch> local_scratch;
  if (options.scratch == nullptr) {
    local_scratch = std::make_unique<ProbeScratch>();
  }
  ProbeScratch::Impl* mem =
      (options.scratch != nullptr ? options.scratch : local_scratch.get())
          ->impl();
  mem->ResetForQuery(view.NumNodes());
  if (query.self != IurTree::kNoObject) {
    CollectPath(view, view.Root(), query.self, &mem->self_path);
  }
  const ProbeQuery<View> ctx{view, dataset, scorer, query,
                             options, AsSpan(qsum), mem};

  std::vector<std::unique_ptr<obs::HeatmapRecorder>> worker_heatmaps;
  std::vector<ProbeWorker> workers;
  workers.reserve(num_workers);
  workers.push_back({ExplainSink(options, "probe"), {}, {}});
  for (size_t i = 1; i < num_workers; ++i) {
    obs::HeatmapRecorder* heatmap = nullptr;
    if (options.heatmap != nullptr) {
      worker_heatmaps.push_back(std::make_unique<obs::HeatmapRecorder>());
      heatmap = worker_heatmaps.back().get();
    }
    workers.push_back({ExplainSink(heatmap), {}, {}});
  }

  std::vector<Candidate<View>> frontier;
  std::vector<Candidate<View>> next;
  const auto root = view.Root();
  ctx.ChargeOnce(root, &workers[0].stats);
  for (size_t i = 0, n = view.NumEntries(root); i < n; ++i) {
    AddCandidate(ctx, view.EntryAt(root, i), {View::NodeKey(root)},
                 &workers[0].stats, &frontier);
  }
  if (profiler != nullptr) profiler->Exit();  // descent (setup)
  if (trace != nullptr) trace->Exit();  // setup

  std::vector<std::vector<Candidate<View>>> slots;
  while (!frontier.empty()) {
    next.clear();
    if (num_workers == 1 || frontier.size() == 1) {
      for (const Candidate<View>& cand : frontier) {
        DecideCandidate(ctx, cand, &workers[0], &next);
      }
    } else {
      slots.assign(frontier.size(), {});
      pool->ParallelFor(frontier.size(), 1, [&](size_t i, size_t w) {
        DecideCandidate(ctx, frontier[i], &workers[w], &slots[i]);
      });
      for (std::vector<Candidate<View>>& children : slots) {
        std::move(children.begin(), children.end(), std::back_inserter(next));
      }
    }
    frontier.swap(next);
  }

  {
    obs::PhaseTimer finalize_phase(profiler, obs::Phase::kFinalize);
    for (ProbeWorker& w : workers) {
      result.stats.Merge(w.stats);
      result.answers.insert(result.answers.end(), w.answers.begin(),
                            w.answers.end());
    }
    std::sort(result.answers.begin(), result.answers.end());
  }
  for (const auto& heatmap : worker_heatmaps) options.heatmap->Merge(*heatmap);
  return result;
}

/// Accumulated (min_st, max_st, count) contributions; the k-th guaranteed /
/// potential similarity is read off the sorted list (2011 paper, §5).
struct Contribution {
  double min_st;
  double max_st;
  uint32_t count;
};

inline double KthSorted(std::vector<Contribution>* contributions, size_t k,
                        bool lower) {
  std::sort(contributions->begin(), contributions->end(),
            [lower](const Contribution& a, const Contribution& b) {
              return lower ? a.min_st > b.min_st : a.max_st > b.max_st;
            });
  uint64_t cum = 0;
  for (const Contribution& c : *contributions) {
    cum += c.count;
    if (cum >= k) return lower ? c.min_st : c.max_st;
  }
  return -1.0;
}

template <typename View>
RstknnResult SearchContributionList(const View& view, const Dataset& dataset,
                                    const StScorer& scorer,
                                    const RstknnQuery& query,
                                    const RstknnOptions& options) {
  using NodeRef = typename View::NodeRef;
  using EntryRef = typename View::EntryRef;
  RstknnResult result;
  if (view.TreeSize() == 0 || query.k == 0) return result;
  const ExplainSink explain(options, "contribution_list");
  const double alpha = scorer.options().alpha;
  const TextSummary qsum = TextSummary::FromDoc(*query.doc);
  const SummarySpan qspan = AsSpan(qsum);

  std::unique_ptr<ProbeScratch> local_scratch;
  if (options.scratch == nullptr) {
    local_scratch = std::make_unique<ProbeScratch>();
  }
  ProbeScratch::Impl* mem =
      (options.scratch != nullptr ? options.scratch : local_scratch.get())
          ->impl();
  mem->ResetForQuery(view.NumNodes());
  std::unordered_set<uintptr_t>& self_path = mem->self_path;
  if (query.self != IurTree::kNoObject) {
    CollectPath(view, view.Root(), query.self, &self_path);
  }

  enum class State { kUndecided, kPruned, kReported };
  struct FlatEntry {
    EntryRef entry{};
    State state = State::kUndecided;
    bool alive = true;           // not yet replaced by its children
    bool contains_self = false;  // subtree holds the query object
    double q_min = 0.0;
    double q_max = 0.0;
  };
  std::vector<FlatEntry> entries;

  auto add_entry = [&](EntryRef e, State inherited) {
    FlatEntry fe;
    fe.entry = e;
    fe.state = inherited;
    if (view.IsObject(e)) {
      fe.contains_self = (view.Id(e) == query.self);
      if (fe.contains_self) {
        fe.state = State::kPruned;  // never a candidate nor a contributor
      } else {
        const StObject& obj = dataset.object(view.Id(e));
        fe.q_min = fe.q_max =
            scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
      }
    } else {
      fe.contains_self = self_path.count(View::NodeKey(view.Child(e))) > 0;
      const TextBounds tb = ViewEntryTextBounds(view, e, qspan, scorer.text());
      const Rect& rect = view.RectOf(e);
      fe.q_min = alpha * scorer.SpatialSim(MaxDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.min_sim;
      fe.q_max = alpha * scorer.SpatialSim(MinDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.max_sim;
    }
    ++result.stats.entries_created;
    entries.push_back(fe);
  };

  auto expand = [&](size_t idx) {
    obs::TraceSpan span(options.trace, obs::names::kSpanExpand);
    obs::PhaseTimer descent_phase(options.profiler, obs::Phase::kDescent);
    FlatEntry& fe = entries[idx];
    const State inherited = fe.state;
    const NodeRef child_node = view.Child(fe.entry);
    if (mem->Claim(View::NodeKey(child_node))) {
      view.Charge(child_node, options, &result.stats);
    }
    fe.alive = false;
    ++result.stats.expansions;
    explain.Record(view, fe.entry, fe.q_min, fe.q_max,
                   obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
    const size_t num_children = view.NumEntries(child_node);
    for (size_t i = 0; i < num_children; ++i) {
      add_entry(view.EntryAt(child_node, i), inherited);
    }
    span.AddCount(obs::names::kCountEntries, num_children);
  };

  // Pair bounds are pure functions of the two (immutable) entries, and each
  // pick recomputes its list against every live entry — memoizing across
  // picks turns the per-round cost from |live|² kernel evaluations into
  // lookups for every pair already seen.
  auto pair_bounds = [&](const FlatEntry& a, const FlatEntry& b) {
    auto [it, inserted] = mem->pair_bounds.try_emplace(
        EntryPairKey{View::EntryKey(a.entry), View::EntryKey(b.entry)});
    if (inserted) {
      const TextBounds tb =
          ViewPairTextBounds(view, a.entry, b.entry, scorer.text());
      ++result.stats.bound_computations;
      const Rect& ra = view.RectOf(a.entry);
      const Rect& rb = view.RectOf(b.entry);
      it->second.mn = alpha * scorer.SpatialSim(MaxDistance(ra, rb)) +
                      (1.0 - alpha) * tb.min_sim;
      it->second.mx = alpha * scorer.SpatialSim(MinDistance(ra, rb)) +
                      (1.0 - alpha) * tb.max_sim;
    }
    return std::make_pair(it->second.mn, it->second.mx);
  };

  const NodeRef root = view.Root();
  mem->Claim(View::NodeKey(root));
  view.Charge(root, options, &result.stats);
  for (size_t i = 0, n = view.NumEntries(root); i < n; ++i) {
    add_entry(view.EntryAt(root, i), State::kUndecided);
  }

  auto capacity = [&](const FlatEntry& fe) -> uint32_t {
    const uint32_t n = view.Count(fe.entry);
    return fe.contains_self && n > 0 ? n - 1 : n;
  };

  while (true) {
    // Highest-priority undecided candidate.
    size_t pick = SIZE_MAX;
    double best_priority = -1.0;
    {
      obs::TraceSpan span(options.trace, obs::names::kSpanPick);
      obs::PhaseTimer descent_phase(options.profiler, obs::Phase::kDescent);
      for (size_t i = 0; i < entries.size(); ++i) {
        const FlatEntry& fe = entries[i];
        if (!fe.alive || fe.state != State::kUndecided) continue;
        double priority = fe.q_max;
        if (options.expand == ExpandPolicy::kTextEntropy) {
          priority +=
              options.entropy_weight * ViewClusterEntropy(view, fe.entry);
        }
        if (pick == SIZE_MAX || priority > best_priority) {
          pick = i;
          best_priority = priority;
        }
      }
    }
    if (pick == SIZE_MAX) break;

    // Contribution list over all live entries.
    std::vector<Contribution> contributions;
    contributions.reserve(entries.size());
    size_t best_blocker = SIZE_MAX;
    double best_blocker_score = -1.0;
    obs::QueryTrace* trace = options.trace;
    if (trace != nullptr) trace->Enter(obs::names::kSpanContributions);
    if (options.profiler != nullptr) {
      options.profiler->Enter(obs::Phase::kMerge);
    }
    const uint64_t bounds_before = result.stats.bound_computations;
    {
      const FlatEntry& cand = entries[pick];
      for (size_t j = 0; j < entries.size(); ++j) {
        if (j == pick || !entries[j].alive) continue;
        const uint32_t cap = capacity(entries[j]);
        if (cap == 0) continue;
        const auto [mn, mx] = pair_bounds(cand, entries[j]);
        contributions.push_back({mn, mx, cap});
        if (!view.IsObject(entries[j].entry) && mx > best_blocker_score) {
          best_blocker_score = mx;
          best_blocker = j;
        }
      }
      const uint32_t self_cap = capacity(cand);
      if (self_cap > 1) {
        // Self pair: MinDistance(rect, rect) = 0, so mx already carries the
        // maximal spatial term; mn uses the rect diameter.
        const auto [mn, mx] = pair_bounds(cand, cand);
        contributions.push_back({mn, mx, self_cap - 1});
      }
    }
    std::vector<Contribution> scratch = contributions;
    const double knn_lower = KthSorted(&scratch, query.k, /*lower=*/true);
    scratch = contributions;
    const double knn_upper = KthSorted(&scratch, query.k, /*lower=*/false);
    if (options.profiler != nullptr) options.profiler->Exit();  // merge
    if (trace != nullptr) {
      trace->AddCount(obs::names::kCountBoundComputations,
                      result.stats.bound_computations - bounds_before);
      trace->Exit();  // contributions
    }

    FlatEntry& cand = entries[pick];
    if (cand.q_max < knn_lower) {
      cand.state = State::kPruned;
      ++result.stats.pruned_entries;
      explain.Record(view, cand.entry, cand.q_min, cand.q_max,
                     view.IsObject(cand.entry)
                         ? obs::ExplainVerdict::kReportMiss
                         : obs::ExplainVerdict::kPrune,
                     obs::ExplainBound::kLowerBound, capacity(cand));
      continue;
    }
    if (cand.q_min >= knn_upper) {
      cand.state = State::kReported;
      ++result.stats.reported_entries;
      explain.Record(view, cand.entry, cand.q_min, cand.q_max,
                     obs::ExplainVerdict::kReportHit,
                     obs::ExplainBound::kUpperBound, capacity(cand));
      CollectObjectIds(view, cand.entry, query.self, &result.answers);
      continue;
    }
    if (!view.IsObject(cand.entry)) {
      expand(pick);
    } else {
      // Exact candidate blocked by a coarse contributor: refine the most
      // entangled live node. One exists, else bounds were exact and a
      // decision would have been forced.
      RST_DCHECK_NE(best_blocker, SIZE_MAX);
      expand(best_blocker);
    }
  }

  {
    obs::PhaseTimer finalize_phase(options.profiler, obs::Phase::kFinalize);
    std::sort(result.answers.begin(), result.answers.end());
  }
  return result;
}

}  // namespace rstknn_internal
}  // namespace rst

#endif  // RST_RSTKNN_SEARCH_IMPL_H_
