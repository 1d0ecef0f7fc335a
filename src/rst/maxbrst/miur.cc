#include "rst/maxbrst/miur.h"

#include <algorithm>
#include <limits>

#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst {

namespace {

/// An element of a location's candidate list: either a user-tree node entry
/// (its Count users, bounds from its summary) or a concrete, refined user.
struct Elem {
  static constexpr uint32_t kUser = frozen::FrozenTree::kNoNode;

  uint32_t node = kUser;  ///< frozen user-tree entry, or kUser
  uint32_t user = 0;
};

}  // namespace

MiurResult MiurMaxBrstSolver::Solve(const MaxBrstQuery& query,
                                    KeywordSelect method) const {
  MiurResult result;
  const std::vector<StUser>& users = *users_;
  const PlacementContext ctx = PlacementContext::Make(*dataset_, query);
  const double alpha = scorer_->options().alpha;
  MaxBrstSolver inner(dataset_, scorer_);

  const frozen::FrozenTree& user_tree = *user_tree_;
  auto count = [&user_tree](const Elem& el) -> uint32_t {
    return el.node != Elem::kUser ? user_tree.Count(el.node) : 1;
  };

  // Root super-user == the whole user set (union/intersection merges are
  // exact, so this equals the merge of the root entries); one shared
  // object-tree traversal.
  const SuperUser su = SuperUser::FromUsers(users);
  JointTopKProcessor proc(object_tree_, dataset_, scorer_);
  const JointTraversal traversal =
      proc.Traverse(su, query.k, &result.stats.object_io);
  const double rsk_super = traversal.rsk_super;

  JointTopKResult shared;
  shared.per_user.resize(users.size());
  shared.rsk.assign(users.size(), -1.0);
  std::vector<bool> computed(users.size(), false);

  auto refine_user = [&](uint32_t uid) {
    if (computed[uid]) return;
    proc.IndividualTopK({users[uid]}, traversal, query.k, &shared);
    computed[uid] = true;
    ++result.stats.users_refined;
  };

  // Object-side summary available to ANY keyword subset: between the
  // existing text (intr) and existing ∪ W (uni).
  TextSummary obj_summary;
  obj_summary.uni = ctx.VecWith(ctx.keywords);
  obj_summary.intr = ctx.existing_vec;
  obj_summary.count = 1;

  // Per-node lower bound on every contained user's RS_k: each user's k-th
  // best object scores at least the k-th largest guaranteed LO-object score
  // toward this node (tighter than the global RS_k(u_s)). Cached per node.
  constexpr double kUnset = -std::numeric_limits<double>::infinity();
  std::vector<double> node_rsk_lb(user_tree.num_nodes(), kUnset);
  auto node_threshold = [&](uint32_t e) -> double {
    double& cached = node_rsk_lb[user_tree.Child(e)];
    if (cached != kUnset) return cached;
    const Rect& rect = user_tree.EntryRect(e);
    std::vector<double> mins;
    mins.reserve(traversal.lo.size());
    for (ObjectId oid : traversal.lo) {
      const StObject& obj = dataset_->object(oid);
      mins.push_back(
          alpha * scorer_->SpatialSim(MaxDistance(obj.loc, rect)) +
          (1.0 - alpha) * scorer_->text().MinSim(DocSpan(obj.doc),
                                                 user_tree.Summary(e)));
    }
    double lb = rsk_super;
    if (mins.size() >= query.k && query.k > 0) {
      std::nth_element(mins.begin(), mins.begin() + (query.k - 1), mins.end(),
                       std::greater<>());
      lb = std::max(lb, mins[query.k - 1]);
    }
    cached = lb;
    return lb;
  };
  auto node_qualifies = [&](uint32_t e, Point loc) {
    const double threshold = node_threshold(e);
    if (threshold < 0.0) return true;
    const double ub =
        alpha * scorer_->SpatialSim(MinDistance(loc, user_tree.EntryRect(e))) +
        (1.0 - alpha) * scorer_->text().MaxSim(AsSpan(obj_summary),
                                               user_tree.Summary(e));
    // RS_k(u) >= threshold for every user below e, so nothing in this
    // subtree can be covered at `loc` when the upper bound undercuts it.
    return ub >= threshold;
  };
  // Cheap per-user RS_k lower bound (k-th best exact score over the shared
  // LO pool) — lets a location disqualify a user without ever computing the
  // user's full top-k ("users pruned"). Lazily cached.
  std::vector<double> user_rsk_lb(users.size(), kUnset);
  auto user_threshold_lb = [&](uint32_t uid) -> double {
    if (user_rsk_lb[uid] != kUnset) return user_rsk_lb[uid];
    // Score the LO pool plus a short prefix of RO (the globally strongest
    // candidates): the k-th largest of any exact-score subset lower-bounds
    // RS_k(u) at a fraction of a full refinement's cost.
    std::vector<double> scores;
    scores.reserve(traversal.lo.size() + 5 * query.k);
    for (ObjectId oid : traversal.lo) {
      const StObject& obj = dataset_->object(oid);
      scores.push_back(scorer_->Score(obj.loc, obj.doc, users[uid].loc,
                                      users[uid].keywords));
    }
    const size_t prefix = std::min(traversal.ro.size(), 5 * query.k);
    for (size_t i = 0; i < prefix; ++i) {
      const StObject& obj = dataset_->object(traversal.ro[i].id);
      scores.push_back(scorer_->Score(obj.loc, obj.doc, users[uid].loc,
                                      users[uid].keywords));
    }
    double lb = -1.0;
    if (scores.size() >= query.k && query.k > 0) {
      std::nth_element(scores.begin(), scores.begin() + (query.k - 1),
                       scores.end(), std::greater<>());
      lb = scores[query.k - 1];
    }
    user_rsk_lb[uid] = lb;
    return lb;
  };
  auto user_qualifies = [&](uint32_t uid, Point loc) {
    const double ub = inner.UpperBoundForUser(users[uid], ctx, loc, query.ws);
    if (!computed[uid]) {
      const double lb = user_threshold_lb(uid);
      if (lb >= 0.0 && ub < lb) return false;  // pruned without refinement
    }
    refine_user(uid);
    if (shared.rsk[uid] < 0.0) return true;
    return ub >= shared.rsk[uid];
  };

  struct LocationState {
    std::vector<Elem> elems;
    uint64_t count = 0;
    bool done = false;
  };
  // Appends the qualifying entries of user-tree node `node` to `elems`.
  auto add_qualifying = [&](uint32_t node, Point loc, std::vector<Elem>* elems) {
    const uint32_t first = user_tree.EntryBegin(node);
    for (uint32_t e = first; e < first + user_tree.EntryCount(node); ++e) {
      if (user_tree.IsObject(e)) {
        const uint32_t uid = user_tree.ObjectIdOf(e);
        if (user_qualifies(uid, loc)) elems->push_back({Elem::kUser, uid});
      } else if (node_qualifies(e, loc)) {
        elems->push_back({e, 0});
      }
    }
  };
  auto recount = [&](LocationState* state) {
    state->count = 0;
    for (const Elem& el : state->elems) state->count += count(el);
  };

  // Initial LU_ℓ lists from the user-tree root entries.
  std::vector<LocationState> states(query.locations.size());
  for (size_t li = 0; li < query.locations.size(); ++li) {
    add_qualifying(user_tree.root(), query.locations[li], &states[li].elems);
    recount(&states[li]);
    if (states[li].elems.empty()) {
      states[li].done = true;
      ++result.best.stats.locations_pruned;
    }
  }
  result.stats.user_io.AddNodeRead();  // the user-tree root itself

  std::vector<uint8_t> charged_nodes(user_tree.num_nodes(), 0);

  while (true) {
    // Best-first: the location with the largest remaining upper-bound count.
    size_t pick = SIZE_MAX;
    for (size_t li = 0; li < states.size(); ++li) {
      if (states[li].done) continue;
      if (pick == SIZE_MAX || states[li].count > states[pick].count) pick = li;
    }
    if (pick == SIZE_MAX) break;
    if (result.best.location_index != SIZE_MAX &&
        states[pick].count <= result.best.covered_users.size()) {
      result.best.stats.early_terminated = true;
      break;
    }

    LocationState& state = states[pick];
    // Find the largest unexpanded node element, if any.
    size_t node_idx = SIZE_MAX;
    for (size_t i = 0; i < state.elems.size(); ++i) {
      if (state.elems[i].node != Elem::kUser &&
          (node_idx == SIZE_MAX ||
           count(state.elems[i]) > count(state.elems[node_idx]))) {
        node_idx = i;
      }
    }

    if (node_idx != SIZE_MAX) {
      const uint32_t eu = state.elems[node_idx].node;
      const uint32_t child_node = user_tree.Child(eu);
      if (charged_nodes[child_node] == 0) {
        charged_nodes[child_node] = 1;
        user_tree.ChargeAccess(child_node, &result.stats.user_io);
      }
      // Replace `eu` with its qualifying children in EVERY list holding it,
      // so the node is processed at most once globally.
      for (size_t lj = 0; lj < states.size(); ++lj) {
        if (states[lj].done) continue;
        auto& elems = states[lj].elems;
        const auto it = std::find_if(
            elems.begin(), elems.end(),
            [eu](const Elem& el) { return el.node == eu; });
        if (it == elems.end()) continue;
        elems.erase(it);
        add_qualifying(child_node, query.locations[lj], &elems);
        recount(&states[lj]);
        if (elems.empty()) states[lj].done = true;
      }
      continue;
    }

    // All elements concrete: run keyword selection for this location.
    std::vector<uint32_t> lu;
    lu.reserve(state.elems.size());
    for (const Elem& el : state.elems) lu.push_back(el.user);
    std::sort(lu.begin(), lu.end());
    const Point loc = query.locations[pick];
    const std::vector<TermId> keywords =
        inner.SelectKeywords(users, lu, shared.rsk, ctx, loc, query.ws, method,
                             &result.best.stats);
    const std::vector<uint32_t> covered =
        EvaluatePlacement(users, lu, shared.rsk, *scorer_, loc,
                          ctx.VecWith(keywords), &result.best.stats);
    if (result.best.location_index == SIZE_MAX ||
        covered.size() > result.best.covered_users.size()) {
      result.best.location_index = pick;
      result.best.keywords = keywords;
      result.best.covered_users = covered;
    }
    state.done = true;
  }
  static const obs::Counter solves =
      obs::MetricRegistry::Global().GetCounter(obs::names::kMiurSolves);
  static const obs::Counter users_refined =
      obs::MetricRegistry::Global().GetCounter(obs::names::kMiurUsersRefined);
  solves.Increment();
  users_refined.Add(result.stats.users_refined);
  result.stats.object_io.Publish(obs::names::kMiurObjectIoPrefix);
  result.stats.user_io.Publish(obs::names::kMiurUserIoPrefix);
  result.best.stats.Publish(obs::names::kMiurPrefix);
  return result;
}

}  // namespace rst
