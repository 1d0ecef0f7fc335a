#include "rst/topk/topk.h"

#include <algorithm>
#include <queue>

#include "rst/common/stopwatch.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"

namespace rst {

namespace {

struct QueueItem {
  double score;   // upper bound for nodes, exact for objects
  bool is_object;
  ObjectId id;    // object id, or 0 for nodes
  uint32_t node;  // frozen node index; unused for objects

  /// Max-heap by score; objects before nodes at equal score (their score is
  /// exact and can be emitted); then ascending id for determinism.
  bool operator<(const QueueItem& other) const {
    if (score != other.score) return score < other.score;
    if (is_object != other.is_object) return !is_object;
    return id > other.id;
  }
};

}  // namespace

namespace {

/// True iff `candidate` contains every term of `required`.
bool ContainsAllTerms(const TermSpan& candidate, const TermVector& required) {
  return OverlapCountSpan(candidate.data, candidate.len,
                          required.entries().data(), required.size()) ==
         required.size();
}

/// Cached registry handles — Search runs microseconds-hot (the precompute
/// baseline and the MaxBRSTkNN joint algorithm issue one per object/user),
/// so the per-query publishing cost must stay at a few relaxed atomic adds.
struct TopKMetrics {
  obs::Counter queries;
  obs::Counter pq_pops;
  obs::Counter expansions;
  obs::HistogramRef latency_ms;

  static const TopKMetrics& Get() {
    static const TopKMetrics* metrics = [] {
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
      return new TopKMetrics{
          registry.GetCounter(obs::names::kTopkQueries),
          registry.GetCounter(obs::names::kTopkPqPops),
          registry.GetCounter(obs::names::kTopkExpansions),
          registry.GetHistogram(obs::names::kTopkQueryMs,
                                obs::HistogramSpec::LatencyMs())};
    }();
    return *metrics;
  }
};

}  // namespace

std::vector<TopKResult> TopKSearcher::Search(const TopKQuery& query,
                                             IoStats* stats,
                                             obs::QueryTrace* trace) const {
  std::vector<TopKResult> results;
  if (query.k == 0 || tree_->size() == 0) return results;
  Stopwatch timer;
  obs::TraceSpan search_span(trace, obs::names::kSpanTopkSearch);
  const SummarySpan qsum = DocSpan(*query.doc);
  const double alpha = scorer_->options().alpha;
  uint64_t pops = 0;
  uint64_t expansions = 0;

  std::priority_queue<QueueItem> pq;
  pq.push({1.0, false, 0, tree_->root()});
  while (!pq.empty() && results.size() < query.k) {
    const QueueItem item = pq.top();
    pq.pop();
    ++pops;
    if (item.is_object) {
      results.push_back({item.id, item.score});
      continue;
    }
    tree_->ChargeAccess(item.node, stats);
    ++expansions;
    const uint32_t first = tree_->EntryBegin(item.node);
    for (uint32_t e = first; e < first + tree_->EntryCount(item.node); ++e) {
      if (tree_->IsObject(e)) {
        const ObjectId id = tree_->ObjectIdOf(e);
        if (id == query.exclude) continue;
        const StObject& obj = dataset_->object(id);
        if (query.require_all_terms &&
            !ContainsAllTerms(AsSpan(obj.doc), *query.doc)) {
          continue;
        }
        const double score =
            scorer_->Score(obj.loc, obj.doc, query.loc, *query.doc);
        pq.push({score, true, id, 0});
      } else {
        if (query.require_all_terms &&
            !ContainsAllTerms(tree_->Summary(e).uni, *query.doc)) {
          continue;  // some required term appears nowhere in the subtree
        }
        const TextBounds tb =
            frozen::SummaryTextBounds(*tree_, e, qsum, scorer_->text());
        const double upper =
            alpha * scorer_->SpatialSim(
                        MinDistance(query.loc, tree_->EntryRect(e))) +
            (1.0 - alpha) * tb.max_sim;
        pq.push({upper, false, 0, tree_->Child(e)});
      }
    }
  }
  const TopKMetrics& metrics = TopKMetrics::Get();
  metrics.queries.Increment();
  metrics.pq_pops.Add(pops);
  metrics.expansions.Add(expansions);
  metrics.latency_ms.Record(timer.ElapsedMillis());
  search_span.AddCount(obs::names::kCountPqPops, pops);
  search_span.AddCount(obs::names::kCountExpansions, expansions);
  return results;
}

std::vector<TopKResult> BruteForceTopK(const Dataset& dataset,
                                       const StScorer& scorer,
                                       const TopKQuery& query) {
  std::vector<TopKResult> all;
  all.reserve(dataset.size());
  for (const StObject& obj : dataset.objects()) {
    if (obj.id == query.exclude) continue;
    if (query.require_all_terms &&
        obj.doc.OverlapCount(*query.doc) != query.doc->size()) {
      continue;
    }
    all.push_back(
        {obj.id, scorer.Score(obj.loc, obj.doc, query.loc, *query.doc)});
  }
  std::sort(all.begin(), all.end(), [](const TopKResult& a, const TopKResult& b) {
    return a.score > b.score || (a.score == b.score && a.id < b.id);
  });
  if (all.size() > query.k) all.resize(query.k);
  return all;
}

}  // namespace rst
