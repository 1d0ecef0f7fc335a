#ifndef TESTS_CHURNED_SNAPSHOTS_H_
#define TESTS_CHURNED_SNAPSHOTS_H_

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "rst/common/rng.h"
#include "rst/data/dataset.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"

namespace rst {

/// Three snapshots of one tree over `d` (a CIUR-tree when `cluster_of` is
/// set), each indexing all of `d`: a fresh freeze; a re-freeze after
/// Delete/Insert churn, which deletes a shuffled third of the objects and
/// re-inserts them, so the tree shape changes but not the indexed set; and
/// that snapshot after Save -> Load. `name` keys the temporary file.
inline std::vector<frozen::FrozenTree> ChurnedSnapshots(
    const Dataset& d, const std::vector<uint32_t>* cluster_of,
    const std::string& name) {
  std::vector<frozen::FrozenTree> out;
  IurTree tree = IurTree::BuildFromDataset(d, {}, cluster_of);
  out.push_back(frozen::FrozenTree::Freeze(tree));
  std::vector<ObjectId> order(d.size());
  for (ObjectId id = 0; id < d.size(); ++id) order[id] = id;
  Rng(91).Shuffle(&order);
  const size_t churned = order.size() / 3;
  for (size_t i = 0; i < churned; ++i) {
    EXPECT_TRUE(tree.Delete(order[i], d.object(order[i]).loc).ok());
  }
  for (size_t i = churned; i-- > 0;) {
    const StObject& o = d.object(order[i]);
    tree.Insert(o.id, o.loc, &o.doc,
                cluster_of != nullptr ? (*cluster_of)[o.id]
                                      : IurTree::kNoCluster);
  }
  tree.FinalizeStorage();
  out.push_back(frozen::FrozenTree::Freeze(tree));
  const std::string path =
      ::testing::TempDir() + "/" + name + (cluster_of ? "_ciur" : "_iur") +
      ".rstf";
  EXPECT_TRUE(out.back().Save(path).ok());
  Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Load(path);
  EXPECT_TRUE(loaded.ok()) << loaded.status().ToString();
  if (loaded.ok()) out.push_back(std::move(loaded.value()));
  std::remove(path.c_str());
  return out;
}

}  // namespace rst

#endif  // TESTS_CHURNED_SNAPSHOTS_H_
