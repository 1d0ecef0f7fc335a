#ifndef RST_TOPK_TOPK_H_
#define RST_TOPK_TOPK_H_

#include <vector>

#include "rst/data/dataset.h"
#include "rst/frozen/frozen.h"
#include "rst/storage/io_stats.h"
#include "rst/text/similarity.h"

namespace rst {

/// One ranked answer of a top-k query.
struct TopKResult {
  ObjectId id = 0;
  double score = 0.0;

  friend bool operator==(const TopKResult& a, const TopKResult& b) {
    return a.id == b.id && a.score == b.score;
  }
};

/// A top-k spatial-textual query: a location, a query document / keyword
/// set, and k.
struct TopKQuery {
  Point loc;
  const TermVector* doc = nullptr;
  size_t k = 10;
  /// Optionally exclude one object (used when computing an object's own kNN
  /// among the rest of the collection).
  ObjectId exclude = frozen::FrozenTree::kNoObject;
  /// Boolean AND semantics: only objects containing *every* query term
  /// qualify (ranking among qualifiers unchanged). Subtrees whose union
  /// vector misses a query term are pruned wholesale.
  bool require_all_terms = false;
};

/// Best-first top-k search over a frozen IUR-/IR-tree snapshot (Cong et al.
/// 2009 style): a max-priority queue keyed by the node upper-bound score;
/// objects pop with their exact score and are final once no node can beat
/// them. Bounds are cluster-aware on CIUR-trees.
class TopKSearcher {
 public:
  /// All referents must outlive the searcher.
  TopKSearcher(const frozen::FrozenTree* tree, const Dataset* dataset,
               const StScorer* scorer)
      : tree_(tree), dataset_(dataset), scorer_(scorer) {}

  /// Returns exactly min(k, |D| − excluded) results, ordered by descending
  /// score (ties by ascending id). Charges simulated I/O to `stats`. With a
  /// trace, records a `topk.search` span (pq_pops / expansions counts);
  /// aggregate counters (topk.*) always go to the global registry via
  /// handles cached across calls — the untraced path stays microsecond-hot.
  std::vector<TopKResult> Search(const TopKQuery& query,
                                 IoStats* stats = nullptr,
                                 obs::QueryTrace* trace = nullptr) const;

 private:
  const frozen::FrozenTree* tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
};

/// Reference oracle: exact scan of the whole collection.
std::vector<TopKResult> BruteForceTopK(const Dataset& dataset,
                                       const StScorer& scorer,
                                       const TopKQuery& query);

}  // namespace rst

#endif  // RST_TOPK_TOPK_H_
