#ifndef RST_MAXBRST_JOINT_TOPK_H_
#define RST_MAXBRST_JOINT_TOPK_H_

#include <vector>

#include "rst/data/dataset.h"
#include "rst/frozen/frozen.h"
#include "rst/storage/io_stats.h"
#include "rst/text/similarity.h"
#include "rst/topk/topk.h"

namespace rst {

/// A "super-user" (2016 paper §5.2): the MBR of a user group's locations plus
/// the union/intersection summary of their keyword sets. The root of a MIUR
/// user tree is exactly the super-user of all its users.
struct SuperUser {
  Rect mbr;
  TextSummary keywords;

  static SuperUser FromUsers(const std::vector<StUser>& users);
};

/// Output of the shared tree traversal (Algorithm 1): the candidate object
/// pool that provably contains every user's top-k.
struct JointTraversal {
  /// The k objects with the best lower bounds w.r.t. the super-user.
  std::vector<ObjectId> lo;
  /// Remaining candidates ordered by descending upper bound (with bounds).
  std::vector<TopKResult> ro;  ///< .score holds UB(o, u_s)
  /// k-th best lower-bound score (RS_k(u_s)); -1 when |O| < k.
  double rsk_super = -1.0;
};

/// Per-user outcome of the joint computation.
struct JointTopKResult {
  /// Exact top-k list per user, ordered (score desc, id asc) — identical to
  /// BruteForceTopK.
  std::vector<std::vector<TopKResult>> per_user;
  /// RS_k(u): score of each user's k-th ranked object (-1 if fewer than k).
  std::vector<double> rsk;
  JointTraversal traversal;
  IoStats io;
  /// Objects whose exact score was computed, summed over users (work metric).
  uint64_t scored_objects = 0;
};

/// Joint top-k processing (2016 paper §5, Algorithms 1 and 2): traverse the
/// frozen object MIR-tree once for the whole user group using super-user bounds,
/// then refine each user's exact top-k from the shared LO/RO pools. Each
/// tree node and object is read at most once regardless of |U|.
class JointTopKProcessor {
 public:
  /// All referents must outlive the processor. The scorer's text measure is
  /// typically kSum (LM / TF-IDF / keyword overlap); any measure with valid
  /// summary bounds works.
  JointTopKProcessor(const frozen::FrozenTree* tree, const Dataset* dataset,
                     const StScorer* scorer)
      : tree_(tree), dataset_(dataset), scorer_(scorer) {}

  /// Algorithm 1: super-user guided traversal producing LO/RO.
  JointTraversal Traverse(const SuperUser& super_user, size_t k,
                          IoStats* stats) const;

  /// Algorithm 2: exact top-k of each user from the LO/RO pools.
  /// `users` may be any subset of the group the super-user summarizes.
  void IndividualTopK(const std::vector<StUser>& users,
                      const JointTraversal& traversal, size_t k,
                      JointTopKResult* result) const;

  /// Traverse + refine for a whole user group.
  JointTopKResult Process(const std::vector<StUser>& users, size_t k) const;

  /// Reference baseline (2016 §4): an independent IR-tree top-k search per
  /// user; objects are re-read for every user. Same exact results.
  JointTopKResult BaselinePerUser(const std::vector<StUser>& users,
                                  size_t k) const;

 private:
  double UserScore(const StUser& user, ObjectId id) const;

  const frozen::FrozenTree* tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
};

}  // namespace rst

#endif  // RST_MAXBRST_JOINT_TOPK_H_
