// Bad fixture: a query subsystem (this directory mirrors src/rst/topk and
// its siblings) walking the IurTree node graph instead of the frozen
// snapshot. Never compiled; linted only.

#include "rst/iurtree/iurtree.h"

namespace lintfix {

double BestScore(const rst::IurTree* tree) {  // expect-finding: query-layout
  const rst::IurTree::Node* root = tree->root();  // expect-finding: query-layout
  double best = 0.0;
  for (const rst::IurTree::Entry& e : root->entries) {  // expect-finding: query-layout
    best += e.count();
  }
  return best;
}

size_t Size(const rst::IurTree &tree) { return tree.size(); }  // expect-finding: query-layout

}  // namespace lintfix
