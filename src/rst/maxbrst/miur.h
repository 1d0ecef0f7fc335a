#ifndef RST_MAXBRST_MIUR_H_
#define RST_MAXBRST_MIUR_H_

#include <vector>

#include "rst/maxbrst/maxbrst.h"

namespace rst {

struct MiurStats {
  IoStats object_io;       ///< MIR object-tree I/O (shared traversal)
  IoStats user_io;         ///< MIUR user-tree I/O
  uint64_t users_refined = 0;  ///< users whose individual top-k was computed
  double UsersPrunedFraction(size_t total_users) const {
    return total_users == 0
               ? 0.0
               : 1.0 - static_cast<double>(users_refined) /
                           static_cast<double>(total_users);
  }
};

struct MiurResult {
  MaxBrstResult best;
  MiurStats stats;
};

/// MaxBRSTkNN with a disk-resident user set indexed by a MIUR-tree (2016
/// paper §7): the object tree is traversed once for the tree's root
/// super-user; per-location candidate lists LU_ℓ hold *user tree nodes*
/// refined best-first, so a user's individual top-k is computed only when a
/// promising location actually needs that user — the "Users pruned (%)"
/// metric of Figure 15.
class MiurMaxBrstSolver {
 public:
  /// `user_tree` must be a frozen MIUR tree (IurTree::BuildFromUsers, then
  /// frozen::FrozenTree::Freeze) indexing exactly `users` (ids 0..|U|-1).
  /// All referents must outlive the solver.
  MiurMaxBrstSolver(const frozen::FrozenTree* object_tree,
                    const Dataset* dataset, const StScorer* scorer,
                    const frozen::FrozenTree* user_tree,
                    const std::vector<StUser>* users)
      : object_tree_(object_tree),
        dataset_(dataset),
        scorer_(scorer),
        user_tree_(user_tree),
        users_(users) {}

  MiurResult Solve(const MaxBrstQuery& query, KeywordSelect method) const;

 private:
  const frozen::FrozenTree* object_tree_;
  const Dataset* dataset_;
  const StScorer* scorer_;
  const frozen::FrozenTree* user_tree_;
  const std::vector<StUser>* users_;
};

}  // namespace rst

#endif  // RST_MAXBRST_MIUR_H_
