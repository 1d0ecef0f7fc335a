// Good fixture: a query subsystem (this directory mirrors src/rst/topk and
// its siblings) reading the frozen snapshot. IurTree constants stay
// allowed; only its node graph is off limits. Never compiled; linted only.

#include <cstdint>

#include "rst/frozen/frozen.h"

namespace lintfix {

uint32_t CountRootObjects(const rst::frozen::FrozenTree& tree) {
  uint32_t count = 0;
  const uint32_t first = tree.EntryBegin(tree.root());
  for (uint32_t e = first; e < first + tree.EntryCount(tree.root()); ++e) {
    if (tree.ObjectIdOf(e) != rst::IurTree::kNoObject) ++count;
  }
  return count;
}

}  // namespace lintfix
