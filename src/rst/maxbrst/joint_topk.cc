#include "rst/maxbrst/joint_topk.h"

#include "rst/common/check.h"

#include <algorithm>
#include <queue>

#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst {

SuperUser SuperUser::FromUsers(const std::vector<StUser>& users) {
  SuperUser su;
  for (const StUser& u : users) {
    su.mbr.Extend(u.loc);
    su.keywords =
        TextSummary::Merge(su.keywords, TextSummary::FromDoc(u.keywords));
  }
  return su;
}

namespace {

/// Inserts `candidate` into `list` (sorted score desc, id asc, capacity k),
/// exactly reproducing BruteForceTopK ordering. Returns true if inserted.
bool InsertTopK(std::vector<TopKResult>* list, size_t k, TopKResult candidate) {
  auto better = [](const TopKResult& a, const TopKResult& b) {
    return a.score > b.score || (a.score == b.score && a.id < b.id);
  };
  if (list->size() == k) {
    if (!better(candidate, list->back())) return false;
    list->pop_back();
  }
  list->insert(std::upper_bound(list->begin(), list->end(), candidate, better),
               candidate);
  return true;
}

struct TraversalItem {
  double lb;
  double ub;
  bool is_object;
  ObjectId id;
  uint32_t node;  // frozen node index; unused for objects

  /// Max-heap by lower bound; objects first on ties, then ascending id.
  bool operator<(const TraversalItem& other) const {
    if (lb != other.lb) return lb < other.lb;
    if (is_object != other.is_object) return !is_object;
    return id > other.id;
  }
};

}  // namespace

double JointTopKProcessor::UserScore(const StUser& user, ObjectId id) const {
  const StObject& obj = dataset_->object(id);
  return scorer_->Score(obj.loc, obj.doc, user.loc, user.keywords);
}

JointTraversal JointTopKProcessor::Traverse(const SuperUser& super_user,
                                            size_t k, IoStats* stats) const {
  JointTraversal out;
  if (k == 0 || tree_->size() == 0) return out;

  const double alpha = scorer_->options().alpha;
  const SummarySpan keywords = AsSpan(super_user.keywords);
  auto entry_bounds = [&](uint32_t e) -> std::pair<double, double> {
    const TextBounds tb =
        frozen::SummaryTextBounds(*tree_, e, keywords, scorer_->text());
    const Rect& rect = tree_->EntryRect(e);
    const double lb =
        alpha * scorer_->SpatialSim(MaxDistance(rect, super_user.mbr)) +
        (1.0 - alpha) * tb.min_sim;
    const double ub =
        alpha * scorer_->SpatialSim(MinDistance(rect, super_user.mbr)) +
        (1.0 - alpha) * tb.max_sim;
    return {lb, ub};
  };

  // LO: the k objects with the best lower bounds seen so far (min-heap on
  // (lb, id)); RS_k(u_s) is its weakest member once full.
  struct LoItem {
    double lb;
    double ub;
    ObjectId id;
    bool operator>(const LoItem& other) const {
      if (lb != other.lb) return lb > other.lb;
      return id < other.id;
    }
  };
  std::priority_queue<LoItem, std::vector<LoItem>, std::greater<>> lo;
  double rsk = -1.0;

  std::priority_queue<TraversalItem> pq;
  pq.push({0.0, 1.0, false, 0, tree_->root()});

  while (!pq.empty()) {
    const TraversalItem item = pq.top();
    pq.pop();
    if (item.is_object) {
      if (lo.size() < k) {
        lo.push({item.lb, item.ub, item.id});
        if (lo.size() == k) rsk = lo.top().lb;
      } else if (item.ub >= rsk) {
        if (item.lb > lo.top().lb) {
          const LoItem displaced = lo.top();
          lo.pop();
          lo.push({item.lb, item.ub, item.id});
          rsk = lo.top().lb;
          if (displaced.ub >= rsk) {
            out.ro.push_back({displaced.id, displaced.ub});
          }
        } else {
          out.ro.push_back({item.id, item.ub});
        }
      }
      continue;
    }
    // Node: prune when it cannot contain any user's top-k object.
    if (lo.size() == k && item.ub < rsk) continue;
    tree_->ChargeAccess(item.node, stats);
    const uint32_t first = tree_->EntryBegin(item.node);
    for (uint32_t e = first; e < first + tree_->EntryCount(item.node); ++e) {
      const auto [lb, ub] = entry_bounds(e);
      if (lo.size() == k && ub < rsk) continue;  // prune before enqueueing
      if (tree_->IsObject(e)) {
        pq.push({lb, ub, true, tree_->ObjectIdOf(e), 0});
      } else {
        pq.push({lb, ub, false, 0, tree_->Child(e)});
      }
    }
  }

  out.rsk_super = rsk;
  while (!lo.empty()) {
    out.lo.push_back(lo.top().id);
    lo.pop();
  }
  std::sort(out.lo.begin(), out.lo.end());
  std::sort(out.ro.begin(), out.ro.end(),
            [](const TopKResult& a, const TopKResult& b) {
              return a.score > b.score || (a.score == b.score && a.id < b.id);
            });
  return out;
}

void JointTopKProcessor::IndividualTopK(const std::vector<StUser>& users,
                                        const JointTraversal& traversal,
                                        size_t k,
                                        JointTopKResult* result) const {
  for (const StUser& user : users) {
    RST_DCHECK_LT(user.id, result->per_user.size());
    std::vector<TopKResult>& list = result->per_user[user.id];
    list.clear();
    for (ObjectId id : traversal.lo) {
      InsertTopK(&list, k, {id, UserScore(user, id)});
      ++result->scored_objects;
    }
    double rsk = list.size() == k ? list.back().score : -1.0;
    for (const TopKResult& candidate : traversal.ro) {
      // RO is sorted by descending UB(o, u_s): once the super-user upper
      // bound falls below this user's k-th score, nothing below can enter.
      if (list.size() == k && candidate.score < rsk) break;
      InsertTopK(&list, k, {candidate.id, UserScore(user, candidate.id)});
      ++result->scored_objects;
      rsk = list.size() == k ? list.back().score : -1.0;
    }
    result->rsk[user.id] = rsk;
  }
}

JointTopKResult JointTopKProcessor::Process(const std::vector<StUser>& users,
                                            size_t k) const {
  JointTopKResult result;
  result.per_user.resize(users.size());
  result.rsk.assign(users.size(), -1.0);
  const SuperUser su = SuperUser::FromUsers(users);
  result.traversal = Traverse(su, k, &result.io);
  IndividualTopK(users, result.traversal, k, &result);
  static const obs::Counter runs =
      obs::MetricRegistry::Global().GetCounter(obs::names::kJointTopkRuns);
  static const obs::Counter scored =
      obs::MetricRegistry::Global().GetCounter(obs::names::kJointTopkScoredObjects);
  runs.Increment();
  scored.Add(result.scored_objects);
  result.io.Publish(obs::names::kJointTopkIoPrefix);
  return result;
}

JointTopKResult JointTopKProcessor::BaselinePerUser(
    const std::vector<StUser>& users, size_t k) const {
  JointTopKResult result;
  result.per_user.resize(users.size());
  result.rsk.assign(users.size(), -1.0);
  TopKSearcher searcher(tree_, dataset_, scorer_);
  for (const StUser& user : users) {
    TopKQuery q;
    q.loc = user.loc;
    q.doc = &user.keywords;
    q.k = k;
    result.per_user[user.id] = searcher.Search(q, &result.io);
    result.scored_objects += result.per_user[user.id].size();
    result.rsk[user.id] = result.per_user[user.id].size() == k
                              ? result.per_user[user.id].back().score
                              : -1.0;
  }
  static const obs::Counter runs =
      obs::MetricRegistry::Global().GetCounter(obs::names::kJointTopkBaselineRuns);
  runs.Increment();
  result.io.Publish(obs::names::kJointTopkBaselineIoPrefix);
  return result;
}

}  // namespace rst
