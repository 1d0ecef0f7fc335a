/// Fuzz target: IurTree Insert/Delete against its own invariant check.
///
/// Updates keep every entry's rectangle, union/intersection summary and
/// per-cluster summaries exact without re-merging the whole path (an insert
/// absorbs the object top-down, a delete patches only the removed object's
/// terms), so after every operation IurTree::CheckInvariants — each entry
/// equal to the exact merge of its children — must pass. The bytes decode to
/// a tiny dataset on an 8x8 grid over a 6-term vocabulary, so coincident
/// points and tied term weights (two children holding the same maximum) are
/// common, and to a small fanout, so splits, condenses, root growth and root
/// shrink all occur. At the end the tree is finalized, frozen and
/// round-tripped through Serialize/Deserialize, which must reproduce the
/// bytes, the index size and every page handle. Any disagreement traps.
///
/// Layout: byte 0 object count, byte 1 options (bit 0 clustered, the rest
/// the fanout), then 3 bytes per object (x, y, document term mask), then one
/// byte per operation (bit 0 insert or delete, the rest the object). The
/// objects with an even index start in the bulk-loaded tree. Missing object
/// bytes read as 0.

#include <cstdint>
#include <string>
#include <vector>

#include "rst/data/dataset.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/iurtree.h"

namespace {

constexpr size_t kMaxObjects = 48;
constexpr size_t kMaxOps = 256;

struct Bytes {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  uint8_t Next() { return pos < size ? data[pos++] : 0; }
};

/// Bit i (i < 6) of `mask` adds term i; bits 6 and 7 repeat terms 0 and 1.
rst::RawDocument DecodeDoc(uint8_t mask) {
  std::vector<rst::TermId> tokens;
  for (rst::TermId t = 0; t < 6; ++t) {
    if ((mask >> t) & 1) tokens.push_back(t);
  }
  if ((mask >> 6) & 1) tokens.push_back(0);
  if ((mask >> 7) & 1) tokens.push_back(1);
  return rst::RawDocument::FromTokens(tokens);
}

bool SameHandle(const rst::PageHandle& a, const rst::PageHandle& b) {
  return a.first_page == b.first_page && a.num_pages == b.num_pages &&
         a.bytes == b.bytes;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  Bytes in{data, size};
  const size_t n = 1 + in.Next() % kMaxObjects;
  const uint8_t options_byte = in.Next();
  const bool clustered = (options_byte & 1) != 0;
  rst::IurTreeOptions options;
  options.max_entries = 3 + (options_byte >> 1) % 4;  // 3..6
  options.min_entries = options.max_entries / 2;

  rst::Dataset dataset;
  std::vector<uint32_t> cluster_of;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t x = in.Next();
    const uint8_t y = in.Next();
    const uint8_t mask = in.Next();
    dataset.Add({static_cast<double>(x % 8), static_cast<double>(y % 8)},
                DecodeDoc(mask));
    cluster_of.push_back(mask % 3);
  }
  dataset.Finalize({rst::Weighting::kTfIdf, 0.1});
  const auto doc_of = [&dataset](uint32_t id) -> const rst::TermVector* {
    return id < dataset.size() ? &dataset.object(id).doc : nullptr;
  };

  std::vector<rst::IurTree::Item> items;
  std::vector<bool> present(n, false);
  for (uint32_t id = 0; id < n; id += 2) {
    items.push_back({id, dataset.object(id).loc, &dataset.object(id).doc});
    present[id] = true;
  }
  rst::IurTree tree = rst::IurTree::Build(std::move(items), options,
                                          clustered ? &cluster_of : nullptr);
  if (!tree.CheckInvariants(doc_of).ok()) __builtin_trap();

  for (size_t op = 0; op < kMaxOps && in.pos < in.size; ++op) {
    const uint8_t b = in.Next();
    const uint32_t id = static_cast<uint32_t>((b >> 1) % n);
    const rst::StObject& o = dataset.object(id);
    if ((b & 1) != 0) {
      if (present[id]) continue;
      tree.Insert(id, o.loc, &o.doc,
                  clustered ? cluster_of[id] : rst::IurTree::kNoCluster);
      present[id] = true;
    } else {
      // Deleting an absent object must report NotFound and change nothing.
      if (tree.Delete(id, o.loc).ok() != present[id]) __builtin_trap();
      present[id] = false;
    }
    if (!tree.CheckInvariants(doc_of).ok()) __builtin_trap();
  }

  tree.FinalizeStorage();
  const rst::frozen::FrozenTree frozen = rst::frozen::FrozenTree::Freeze(tree);
  if (!frozen.CheckInvariants().ok()) __builtin_trap();
  const std::string bytes = frozen.SerializeToString();
  rst::Result<rst::frozen::FrozenTree> loaded =
      rst::frozen::FrozenTree::Deserialize(bytes);
  if (!loaded.ok() || loaded.value().SerializeToString() != bytes ||
      loaded.value().IndexBytes() != tree.IndexBytes()) {
    __builtin_trap();
  }
  for (uint32_t node = 0; node < frozen.num_nodes(); ++node) {
    if (!SameHandle(frozen.record_handle(node),
                    loaded.value().record_handle(node)) ||
        !SameHandle(frozen.invfile_handle(node),
                    loaded.value().invfile_handle(node))) {
      __builtin_trap();
    }
  }
  return 0;
}
