#ifndef RST_RSTKNN_SEARCH_IMPL_H_
#define RST_RSTKNN_SEARCH_IMPL_H_

/// The branch-and-bound engine behind RstknnSearcher, over the frozen
/// flat-layout snapshot (rst::frozen). Everything here is an implementation
/// detail of rstknn.cc.
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
#include <memory>
#include <memory_resource>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rst/common/check.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/rstknn.h"
#include "rst/storage/codec.h"

namespace rst {
namespace rstknn_internal {

/// Charges one node access. In real-I/O mode (options.pool set) the node's
/// serialized inverted file is read through the buffer pool — hits charge
/// nothing and the pool's hit/miss/fill metrics reflect genuine traffic;
/// otherwise the papers' simulated accounting applies.
inline void ChargeNode(const frozen::FrozenTree& tree, uint32_t node,
                       const RstknnOptions& options, RstknnStats* stats) {
  if (options.pool != nullptr) {
    obs::TraceSpan span(options.trace, obs::names::kSpanStorageReadNode);
    obs::PhaseTimer io_phase(options.profiler, obs::Phase::kIo);
    InvertedFile invfile;
    if (tree.ReadNodePayload(node, options.pool, &stats->io, &invfile).ok()) {
      return;
    }
    // Payloads not finalized: fall back below (nothing was charged).
  }
  tree.ChargeAccess(node, &stats->io);
}

/// A candidate entry of the branch-and-bound search: a subtree (or object)
/// whose membership in the answer is still to be decided. Its ancestry is
/// the preorder interval test on `parent`, so a candidate owns no memory.
struct Candidate {
  uint32_t entry = 0;
  uint32_t parent = 0;         ///< the node holding `entry`
  bool contains_self = false;  ///< subtree holds the query object
  double q_min = 0.0;          ///< MinST(q, E)
  double q_max = 0.0;          ///< MaxST(q, E)
};

inline void CollectObjectIds(const frozen::FrozenTree& tree, uint32_t entry,
                             ObjectId exclude, std::vector<ObjectId>* out) {
  if (tree.IsObject(entry)) {
    if (tree.ObjectIdOf(entry) != exclude) out->push_back(tree.ObjectIdOf(entry));
    return;
  }
  const uint32_t child = tree.Child(entry);
  const uint32_t first = tree.EntryBegin(child);
  for (uint32_t e = first; e < first + tree.EntryCount(child); ++e) {
    CollectObjectIds(tree, e, exclude, out);
  }
}

/// Per-query EXPLAIN state: the recorder (reset + stamped here) and the
/// cross-query heatmap, both keyed by explain ids (frozen entry index + 1). Everything is
/// a no-op when neither is attached.
struct ExplainSink {
  obs::ExplainRecorder* recorder = nullptr;
  obs::HeatmapRecorder* heatmap = nullptr;

  ExplainSink() = default;
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

  void Record(const frozen::FrozenTree& tree, uint32_t entry, double q_min,
              double q_max, obs::ExplainVerdict verdict,
              obs::ExplainBound bound, uint64_t decided_objects) const {
    if (recorder == nullptr && heatmap == nullptr) return;
    const uint64_t id = static_cast<uint64_t>(entry) + 1;
    const uint32_t level = tree.EntryLevel(entry);
    if (recorder != nullptr) {
      recorder->Record(
          {id, level, verdict, bound, q_min, q_max, decided_objects});
    }
    if (heatmap != nullptr) {
      heatmap->Record(id, level, verdict, bound, decided_objects);
    }
  }
};

/// One node of a probe's best-first queue, keyed by its pair MaxST.
struct ProbeItem {
  double max_st;
  uint32_t node;
  bool operator<(const ProbeItem& other) const {
    return max_st < other.max_st;
  }
};

/// One worker's private state in a probe search: its decision sink,
/// counters and answers, plus storage it reuses from query to query — the
/// probe heap and the per-node dot buffers. Counters and answers are merged
/// after the last round; integer sums and a final sort make the merge
/// order-free.
struct ProbeWorker {
  ExplainSink explain;
  RstknnStats stats;
  std::vector<ObjectId> answers;
  std::vector<ProbeItem> heap;
  /// <E.uni, X.uni> and <E.intr, X.intr> for the entries X of the node being
  /// scanned, then the same for its clusters.
  std::vector<double> dots;

  void ResetForQuery(ExplainSink sink, size_t max_entries,
                     size_t max_clusters) {
    explain = sink;
    stats = RstknnStats();
    answers.clear();
    dots.resize(2 * (max_entries + max_clusters));
  }
};

}  // namespace rstknn_internal

/// The working memory behind the public ProbeScratch handle, all of query
/// scope and reused from query to query, so that a client's steady-state
/// query allocates only its answers: the per-node charged flags (read by
/// every fan-out worker through the calling thread's scratch), the probe
/// workers and the frontiers. The probe algorithm keeps no memo: one probe
/// per candidate examines each entry at most once. The contribution-list
/// algorithm's pair memo is query-local (SearchContributionList).
struct ProbeScratch::Impl {
  using Candidate = rstknn_internal::Candidate;

  /// One flag per tree node: set once the node's I/O is charged this query.
  std::vector<uint8_t> charged;
  std::vector<rstknn_internal::ProbeWorker> workers;
  std::vector<Candidate> frontier;
  std::vector<Candidate> next;
  /// Fan-out: the children of frontier candidate i, before concatenation.
  std::vector<std::vector<Candidate>> slots;

  void ResetForQuery(size_t num_nodes) { charged.assign(num_nodes, 0); }
  /// True for exactly one caller per node and query, whichever worker
  /// touches the node first. The load skips the exchange for nodes already
  /// paid for, which is nearly every probe visit.
  bool Claim(uint32_t node) {
    std::atomic_ref<uint8_t> flag(charged[node]);
    return flag.load() == 0 && flag.exchange(1) == 0;
  }
};

namespace rstknn_internal {

/// Query-scope inputs of every probe decision. Read-only during a round,
/// except for the charged-node claims in `shared`, which are atomic.
struct ProbeQuery {
  const frozen::FrozenTree& tree;
  const Dataset& dataset;
  const StScorer& scorer;
  const RstknnQuery& query;
  const RstknnOptions& options;
  SummarySpan qspan;
  /// The leaf holding the query object, or FrozenTree::kNoNode.
  uint32_t self_leaf;
  ProbeScratch::Impl* shared;  ///< charged flags (the caller's scratch)

  /// Charges one node access the first time any worker opens the node this
  /// query. The branch-and-bound keeps every opened node resident for the
  /// whole query, so each node costs its I/O once however many probes
  /// revisit it — and the charged set, hence RstknnStats::io, does not
  /// depend on which worker got there first.
  void ChargeOnce(uint32_t node, RstknnStats* stats) const {
    if (shared->Claim(node)) ChargeNode(tree, node, options, stats);
  }
};

/// Appends the candidate for entry `e` of node `parent` (with MinST/MaxST to
/// q) to `out`.
inline void AddCandidate(const ProbeQuery& ctx, uint32_t parent, uint32_t e,
                         RstknnStats* stats, std::vector<Candidate>* out) {
  const frozen::FrozenTree& tree = ctx.tree;
  const StScorer& scorer = ctx.scorer;
  const RstknnQuery& query = ctx.query;
  // The query object is never a candidate.
  if (tree.IsObject(e) && tree.ObjectIdOf(e) == query.self) return;
  Candidate cand;
  cand.entry = e;
  cand.parent = parent;
  if (tree.IsObject(e)) {
    const StObject& obj = ctx.dataset.object(tree.ObjectIdOf(e));
    cand.q_min = cand.q_max =
        scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
  } else {
    const double alpha = scorer.options().alpha;
    cand.contains_self = tree.Contains(tree.Child(e), ctx.self_leaf);
    const TextBounds tb =
        frozen::SummaryTextBounds(tree, e, ctx.qspan, scorer.text());
    const Rect& rect = tree.EntryRect(e);
    cand.q_min = alpha * scorer.SpatialSim(MaxDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.min_sim;
    cand.q_max = alpha * scorer.SpatialSim(MinDistance(query.loc, rect)) +
                 (1.0 - alpha) * tb.max_sim;
  }
  ++stats->entries_created;
  out->push_back(cand);
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
///
/// A popped node is bounded whole: one pass over its postings with E's
/// summary yields <E.uni, X.uni> and <E.intr, X.intr> for every child X, and
/// the first child whose blended bound straddles the threshold triggers one
/// more pass for the node's cluster summaries. Each bound is then the
/// measure's formula on those dots and the cached norms, bit-identical to
/// the span kernels; bound_computations still counts one per child bound and
/// one per cluster refinement.
inline size_t CountCompetitors(const ProbeQuery& ctx, const Candidate& cand,
                               uint64_t budget, ProbeWorker* worker) {
  const frozen::FrozenTree& tree = ctx.tree;
  const StScorer& scorer = ctx.scorer;
  const TextSimilarity& text = scorer.text();
  RstknnStats* stats = &worker->stats;
  const size_t k = ctx.query.k;
  const ObjectId exclude = ctx.query.self;
  const uint32_t e = cand.entry;
  const Rect& e_rect = tree.EntryRect(e);
  const SummarySpan e_sum = tree.Summary(e);
  const bool e_is_object = tree.IsObject(e);
  const double alpha = scorer.options().alpha;
  const double threshold = cand.q_max;
  const uint64_t bounds_before = stats->bound_computations;
  ++stats->probes;

  size_t count = 0;
  // Self term: the candidate's own other objects compete among themselves.
  uint32_t own = tree.Count(e) - (cand.contains_self ? 1 : 0);
  if (own > 1) {
    const TextBounds tb = frozen::PairTextBounds(tree, e, e, text);
    ++stats->bound_computations;
    const double intra = alpha * scorer.SpatialSim(MaxDistance(e_rect, e_rect)) +
                         (1.0 - alpha) * tb.min_sim;
    if (intra > threshold) {
      count += own - 1;
      if (count >= k) return k;
    }
  }

  const size_t max_entries = tree.MaxNodeEntries();
  double* const uni_dots = worker->dots.data();
  double* const intr_dots = uni_dots + max_entries;
  double* const cluster_uni = intr_dots + max_entries;
  double* const cluster_intr = cluster_uni + tree.MaxNodeClusters();

  std::vector<ProbeItem>& heap = worker->heap;
  heap.clear();
  heap.push_back({1.0, tree.root()});

  while (!heap.empty()) {
    if (stats->bound_computations - bounds_before >= budget) break;
    std::pop_heap(heap.begin(), heap.end());
    const ProbeItem item = heap.back();
    heap.pop_back();
    ++stats->pq_pops;
    if (item.max_st <= threshold) break;  // nothing left can matter
    const uint32_t node = item.node;
    ctx.ChargeOnce(node, stats);
    tree.EntryDots(node, e_sum, uni_dots, intr_dots);
    // Cluster dots of this node, computed the first time a child needs them.
    const double* c_uni = nullptr;
    const double* c_intr = nullptr;

    // Pair bounds with lazy cluster refinement: the blended-summary bound
    // decides most entries outright; per-cluster bounds are computed only
    // when it straddles the threshold and could change the outcome.
    auto pair_bounds = [&](uint32_t other, size_t slot, size_t first_cluster) {
      const Rect& other_rect = tree.EntryRect(other);
      const double spatial_min =
          alpha * scorer.SpatialSim(MaxDistance(e_rect, other_rect));
      const double spatial_max =
          alpha * scorer.SpatialSim(MinDistance(e_rect, other_rect));
      ++stats->bound_computations;
      const SummarySpan other_sum = tree.Summary(other);
      double mn = spatial_min + (1.0 - alpha) * text.MinSimFromDot(
                                                  intr_dots[slot],
                                                  e_sum.uni.norm_squared,
                                                  other_sum.uni.norm_squared);
      double mx = spatial_max + (1.0 - alpha) * text.MaxSimFromDot(
                                                  uni_dots[slot],
                                                  e_sum.intr.norm_squared,
                                                  other_sum.intr.norm_squared);
      const uint32_t nc = tree.NumClusters(other);
      if (nc > 0 && mn <= threshold && mx > threshold) {
        if (c_uni == nullptr) {
          if (tree.ClustersAreEntries(node)) {
            c_uni = uni_dots;
            c_intr = intr_dots;
          } else {
            tree.ClusterDots(node, e_sum, cluster_uni, cluster_intr);
            c_uni = cluster_uni;
            c_intr = cluster_intr;
          }
        }
        ++stats->bound_computations;
        TextBounds tb{1.0, 0.0};
        for (uint32_t c = 0; c < nc; ++c) {
          const SummarySpan cs = tree.ClusterSummary(other, c);
          tb.min_sim = std::min(
              tb.min_sim,
              text.MinSimFromDot(c_intr[first_cluster + c],
                                 e_sum.uni.norm_squared, cs.uni.norm_squared));
          tb.max_sim = std::max(
              tb.max_sim,
              text.MaxSimFromDot(c_uni[first_cluster + c],
                                 e_sum.intr.norm_squared,
                                 cs.intr.norm_squared));
        }
        mn = spatial_min + (1.0 - alpha) * tb.min_sim;
        mx = spatial_max + (1.0 - alpha) * tb.max_sim;
      }
      return std::make_pair(mn, mx);
    };

    size_t next_cluster = 0;  // node-local index of the child's first cluster
    const uint32_t first_entry = tree.EntryBegin(node);
    for (size_t i = 0, n = tree.EntryCount(node); i < n; ++i) {
      const uint32_t child = first_entry + static_cast<uint32_t>(i);
      const size_t first_cluster = next_cluster;
      next_cluster += tree.NumClusters(child);
      if (tree.IsObject(child)) {
        if (tree.ObjectIdOf(child) == exclude) continue;
        if (e_is_object && tree.ObjectIdOf(child) == tree.ObjectIdOf(e)) {
          continue;
        }
        if (pair_bounds(child, i, first_cluster).first > threshold &&
            ++count >= k) {
          return k;
        }
        continue;
      }
      const uint32_t child_node = tree.Child(child);
      // E's own subtree is covered by the self term.
      if (!e_is_object && child_node == tree.Child(e)) continue;
      const auto [mn, mx] = pair_bounds(child, i, first_cluster);
      if (mx <= threshold) continue;  // no object inside can matter
      if (mn > threshold && !tree.Contains(child_node, cand.parent)) {
        // Every object in this subtree, which is disjoint from E, clears the
        // threshold.
        count += tree.Count(child) -
                 (tree.Contains(child_node, ctx.self_leaf) ? 1 : 0);
        if (count >= k) return k;
        continue;
      }
      heap.push_back({mx, child_node});
      std::push_heap(heap.begin(), heap.end());
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
inline void DecideCandidate(const ProbeQuery& ctx, const Candidate& cand,
                            ProbeWorker* w, std::vector<Candidate>* children) {
  const frozen::FrozenTree& tree = ctx.tree;
  obs::QueryTrace* trace = ctx.options.trace;
  obs::PhaseProfiler* profiler = ctx.options.profiler;
  RstknnStats& stats = w->stats;
  ++stats.pq_pops;
  const bool object = tree.IsObject(cand.entry);
  const uint32_t cand_count = tree.Count(cand.entry);

  size_t guaranteed;
  {
    obs::TraceSpan span(trace, obs::names::kSpanProbeGuaranteed);
    obs::PhaseTimer bounds_phase(profiler, obs::Phase::kBounds);
    const uint64_t bounds_before = stats.bound_computations;
    const uint64_t pops_before = stats.pq_pops;
    const uint64_t budget = object ? UINT64_MAX : (cand_count + 1) / 2;
    guaranteed = CountCompetitors(ctx, cand, budget, w);
    span.AddCount(obs::names::kCountBoundComputations,
                  stats.bound_computations - bounds_before);
    span.AddCount(obs::names::kCountPqPops, stats.pq_pops - pops_before);
  }
  if (guaranteed >= ctx.query.k) {
    ++stats.pruned_entries;
    w->explain.Record(tree, cand.entry, cand.q_min, cand.q_max,
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
    w->explain.Record(tree, cand.entry, cand.q_min, cand.q_max,
                      obs::ExplainVerdict::kReportHit,
                      obs::ExplainBound::kExact, 1);
    w->answers.push_back(tree.ObjectIdOf(cand.entry));
    return;
  }
  obs::TraceSpan expand_span(trace, obs::names::kSpanExpand);
  obs::PhaseTimer descent_phase(profiler, obs::Phase::kDescent);
  const uint32_t child_node = tree.Child(cand.entry);
  ctx.ChargeOnce(child_node, &stats);
  ++stats.expansions;
  w->explain.Record(tree, cand.entry, cand.q_min, cand.q_max,
                    obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
  const uint32_t first = tree.EntryBegin(child_node);
  const uint32_t num_children = tree.EntryCount(child_node);
  for (uint32_t e = first; e < first + num_children; ++e) {
    AddCandidate(ctx, child_node, e, &stats, children);
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
///
/// Large k: an object has at most |D| − 1 − [self ∈ D] competitors, so when
/// that is below k every object but the query object is an answer, and the
/// search returns them all with no probe.
inline RstknnResult SearchProbe(const frozen::FrozenTree& tree,
                                const Dataset& dataset, const StScorer& scorer,
                                const RstknnQuery& query,
                                const RstknnOptions& options,
                                exec::ThreadPool* pool) {
  RstknnResult result;
  if (tree.size() == 0 || query.k == 0) return result;
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

  // Query-scope working memory: reuse the caller's scratch or allocate a
  // query-local one.
  std::unique_ptr<ProbeScratch> local_scratch;
  if (options.scratch == nullptr) {
    local_scratch = std::make_unique<ProbeScratch>();
  }
  ProbeScratch::Impl* mem =
      (options.scratch != nullptr ? options.scratch : local_scratch.get())
          ->impl();
  mem->ResetForQuery(tree.num_nodes());
  const uint32_t self_leaf = query.self != frozen::FrozenTree::kNoObject
                                 ? tree.LeafOf(query.self)
                                 : frozen::FrozenTree::kNoNode;
  const ProbeQuery ctx{tree,    dataset,          scorer, query,
                       options, DocSpan(*query.doc), self_leaf, mem};

  std::vector<std::unique_ptr<obs::HeatmapRecorder>> worker_heatmaps;
  std::vector<ProbeWorker>& workers = mem->workers;
  if (workers.size() < num_workers) workers.resize(num_workers);
  workers[0].ResetForQuery(ExplainSink(options, "probe"),
                           tree.MaxNodeEntries(), tree.MaxNodeClusters());
  for (size_t i = 1; i < num_workers; ++i) {
    obs::HeatmapRecorder* heatmap = nullptr;
    if (options.heatmap != nullptr) {
      worker_heatmaps.push_back(std::make_unique<obs::HeatmapRecorder>());
      heatmap = worker_heatmaps.back().get();
    }
    workers[i].ResetForQuery(ExplainSink(heatmap), tree.MaxNodeEntries(),
                             tree.MaxNodeClusters());
  }

  const size_t others =
      tree.size() - (self_leaf != frozen::FrozenTree::kNoNode ? 1 : 0);
  std::vector<Candidate>& frontier = mem->frontier;
  std::vector<Candidate>& next = mem->next;
  frontier.clear();
  const uint32_t root = tree.root();
  const uint32_t root_end = tree.EntryBegin(root) + tree.EntryCount(root);
  if (others > query.k) {
    ctx.ChargeOnce(root, &workers[0].stats);
    for (uint32_t e = tree.EntryBegin(root); e < root_end; ++e) {
      AddCandidate(ctx, root, e, &workers[0].stats, &frontier);
    }
  } else {
    for (uint32_t e = tree.EntryBegin(root); e < root_end; ++e) {
      CollectObjectIds(tree, e, query.self, &workers[0].answers);
    }
  }
  if (profiler != nullptr) profiler->Exit();  // descent (setup)
  if (trace != nullptr) trace->Exit();  // setup

  std::vector<std::vector<Candidate>>& slots = mem->slots;
  while (!frontier.empty()) {
    next.clear();
    if (num_workers == 1 || frontier.size() == 1) {
      for (const Candidate& cand : frontier) {
        DecideCandidate(ctx, cand, &workers[0], &next);
      }
    } else {
      if (slots.size() < frontier.size()) slots.resize(frontier.size());
      for (size_t i = 0; i < frontier.size(); ++i) slots[i].clear();
      pool->ParallelFor(frontier.size(), 1, [&](size_t i, size_t w) {
        DecideCandidate(ctx, frontier[i], &workers[w], &slots[i]);
      });
      for (size_t i = 0; i < frontier.size(); ++i) {
        next.insert(next.end(), slots[i].begin(), slots[i].end());
      }
    }
    frontier.swap(next);
  }

  {
    obs::PhaseTimer finalize_phase(profiler, obs::Phase::kFinalize);
    size_t total = 0;
    for (size_t i = 0; i < num_workers; ++i) total += workers[i].answers.size();
    result.answers.reserve(total);
    for (size_t i = 0; i < num_workers; ++i) {
      result.stats.Merge(workers[i].stats);
      result.answers.insert(result.answers.end(), workers[i].answers.begin(),
                            workers[i].answers.end());
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

/// One contribution-list pair memo value: pair MinST and MaxST.
struct PairBoundsValue {
  double mn = 0.0;
  double mx = 0.0;
};

inline RstknnResult SearchContributionList(const frozen::FrozenTree& tree,
                                           const Dataset& dataset,
                                           const StScorer& scorer,
                                           const RstknnQuery& query,
                                           const RstknnOptions& options) {
  RstknnResult result;
  if (tree.size() == 0 || query.k == 0) return result;
  const ExplainSink explain(options, "contribution_list");
  const double alpha = scorer.options().alpha;
  const SummarySpan qspan = DocSpan(*query.doc);

  std::unique_ptr<ProbeScratch> local_scratch;
  if (options.scratch == nullptr) {
    local_scratch = std::make_unique<ProbeScratch>();
  }
  ProbeScratch::Impl* mem =
      (options.scratch != nullptr ? options.scratch : local_scratch.get())
          ->impl();
  mem->ResetForQuery(tree.num_nodes());
  const uint32_t self_leaf = query.self != frozen::FrozenTree::kNoObject
                                 ? tree.LeafOf(query.self)
                                 : frozen::FrozenTree::kNoNode;

  enum class State { kUndecided, kPruned, kReported };
  struct FlatEntry {
    uint32_t entry = 0;
    State state = State::kUndecided;
    bool alive = true;           // not yet replaced by its children
    bool contains_self = false;  // subtree holds the query object
    double q_min = 0.0;
    double q_max = 0.0;
  };
  std::vector<FlatEntry> entries;

  auto add_entry = [&](uint32_t e, State inherited) {
    FlatEntry fe;
    fe.entry = e;
    fe.state = inherited;
    if (tree.IsObject(e)) {
      fe.contains_self = (tree.ObjectIdOf(e) == query.self);
      if (fe.contains_self) {
        fe.state = State::kPruned;  // never a candidate nor a contributor
      } else {
        const StObject& obj = dataset.object(tree.ObjectIdOf(e));
        fe.q_min = fe.q_max =
            scorer.Score(obj.loc, obj.doc, query.loc, *query.doc);
      }
    } else {
      fe.contains_self = tree.Contains(tree.Child(e), self_leaf);
      const TextBounds tb =
          frozen::SummaryTextBounds(tree, e, qspan, scorer.text());
      const Rect& rect = tree.EntryRect(e);
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
    const uint32_t child_node = tree.Child(fe.entry);
    if (mem->Claim(child_node)) {
      ChargeNode(tree, child_node, options, &result.stats);
    }
    fe.alive = false;
    ++result.stats.expansions;
    explain.Record(tree, fe.entry, fe.q_min, fe.q_max,
                   obs::ExplainVerdict::kExpand, obs::ExplainBound::kNone, 0);
    const uint32_t first = tree.EntryBegin(child_node);
    const uint32_t num_children = tree.EntryCount(child_node);
    for (uint32_t e = first; e < first + num_children; ++e) {
      add_entry(e, inherited);
    }
    span.AddCount(obs::names::kCountEntries, num_children);
  };

  // Pair bounds are pure functions of the two (immutable) entries, and each
  // pick recomputes its list against every live entry — memoizing across
  // picks turns the per-round cost from |live|² kernel evaluations into
  // lookups for every pair already seen. The memo, keyed by the packed entry
  // pair, can reach millions of nodes; it lives in a query-local arena that
  // is freed in whole blocks on return (the map, declared after its arena,
  // is destroyed first), so the next query does not pay for freeing and
  // consolidating them one by one.
  std::pmr::monotonic_buffer_resource memo_arena;
  std::pmr::unordered_map<uint64_t, PairBoundsValue> memo(&memo_arena);
  auto pair_bounds = [&](const FlatEntry& a, const FlatEntry& b) {
    auto [it, inserted] =
        memo.try_emplace((uint64_t{a.entry} << 32) | b.entry);
    if (inserted) {
      const TextBounds tb =
          frozen::PairTextBounds(tree, a.entry, b.entry, scorer.text());
      ++result.stats.bound_computations;
      const Rect& ra = tree.EntryRect(a.entry);
      const Rect& rb = tree.EntryRect(b.entry);
      it->second.mn = alpha * scorer.SpatialSim(MaxDistance(ra, rb)) +
                      (1.0 - alpha) * tb.min_sim;
      it->second.mx = alpha * scorer.SpatialSim(MinDistance(ra, rb)) +
                      (1.0 - alpha) * tb.max_sim;
    }
    return std::make_pair(it->second.mn, it->second.mx);
  };

  const uint32_t root = tree.root();
  mem->Claim(root);
  ChargeNode(tree, root, options, &result.stats);
  for (uint32_t e = tree.EntryBegin(root);
       e < tree.EntryBegin(root) + tree.EntryCount(root); ++e) {
    add_entry(e, State::kUndecided);
  }

  auto capacity = [&](const FlatEntry& fe) -> uint32_t {
    const uint32_t n = tree.Count(fe.entry);
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
          priority += options.entropy_weight *
                      frozen::ClusterEntropyOf(tree, fe.entry);
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
        if (!tree.IsObject(entries[j].entry) && mx > best_blocker_score) {
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
      explain.Record(tree, cand.entry, cand.q_min, cand.q_max,
                     tree.IsObject(cand.entry)
                         ? obs::ExplainVerdict::kReportMiss
                         : obs::ExplainVerdict::kPrune,
                     obs::ExplainBound::kLowerBound, capacity(cand));
      continue;
    }
    if (cand.q_min >= knn_upper) {
      cand.state = State::kReported;
      ++result.stats.reported_entries;
      explain.Record(tree, cand.entry, cand.q_min, cand.q_max,
                     obs::ExplainVerdict::kReportHit,
                     obs::ExplainBound::kUpperBound, capacity(cand));
      CollectObjectIds(tree, cand.entry, query.self, &result.answers);
      continue;
    }
    if (!tree.IsObject(cand.entry)) {
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
