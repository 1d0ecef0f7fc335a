#ifndef RST_FROZEN_FROZEN_H_
#define RST_FROZEN_FROZEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "rst/common/geometry.h"
#include "rst/common/status.h"
#include "rst/iurtree/iurtree.h"
#include "rst/storage/buffer_pool.h"
#include "rst/storage/codec.h"
#include "rst/storage/io_stats.h"
#include "rst/storage/page_store.h"
#include "rst/text/similarity.h"

namespace rst {

namespace obs {
class QueryTrace;
}  // namespace obs

/// Min/max text-similarity bounds of an entry against a summary.
struct TextBounds {
  double min_sim = 0.0;
  double max_sim = 1.0;
};

namespace frozen {

/// (offset, len) reference into the shared term-weight pool.
struct TermSlice {
  uint64_t offset = 0;
  uint32_t len = 0;
};

/// A text summary whose uni/intr vectors live in the shared pool. Norms are
/// cached (recomputed in slice order on load, which reproduces the
/// TermVector construction cache bit-for-bit).
struct SummaryRef {
  TermSlice uni;
  TermSlice intr;
  double uni_norm_sq = 0.0;
  double intr_norm_sq = 0.0;
  uint32_t count = 0;
};

/// One per-cluster summary of a CIUR-tree entry.
struct ClusterRef {
  uint32_t cluster_id = 0;
  SummaryRef summary;
};

/// An immutable, pointer-free snapshot of a built IUR-/CIUR-tree (objects, or
/// MIUR users) and the one layout every query reads — RSTkNN, top-k, the
/// precompute baseline and MaxBRSTkNN's joint top-k and MIUR: SoA node/entry arrays indexed by a
/// deterministic preorder walk that also numbers entries for EXPLAIN (entry
/// index i carries explain id i + 1), with every term weight —
/// union/intersection summaries, per-cluster summaries, leaf documents —
/// concatenated into one contiguous TermWeight pool referenced by
/// (offset, len) slices. The flat layout avoids the pointer chasing and
/// scattered term-weight reads of the IurTree's node graph (DESIGN.md §10);
/// the IurTree stays the builder and the Insert/Delete structure, and a
/// caller re-freezes after updating it.
///
/// Node numbering is preorder, so the subtree of node n is exactly the node
/// range [n, SubtreeEnd(n)): ancestry and containment are two integer
/// compares. Deserialize rejects a snapshot numbered any other way.
///
/// Per-node postings (DESIGN.md §3.2) are derived from the pool slices at
/// Freeze and Load, with no snapshot-format change: for each node a sorted
/// term dictionary and, per term, the (slot, weight) postings of its
/// entries' union and intersection vectors and of their per-cluster
/// summaries. EntryDots/ClusterDots bound all entries of a node against one
/// summary in one pass, bit-identical to one DotSpan per entry.
///
/// Storage: a frozen tree shares the PageStore of the IurTree it froze (the
/// page handles are the tree's own), and a loaded one rebuilds an identical
/// store by re-encoding node records and inverted files in the post-order of
/// IurTree::FinalizeStorage, so simulated and real I/O accounting match the
/// source IurTree exactly. The serialized file (Save/Load) stores only the
/// arrays and the pool.
class FrozenTree {
 public:
  static constexpr uint32_t kNoObject = IurTree::kNoObject;
  static constexpr uint32_t kNoNode = 0xFFFFFFFFu;
  /// Bumped on any serialized-layout change; Load rejects other versions.
  static constexpr uint32_t kFormatVersion = 1;

  FrozenTree() = default;
  FrozenTree(FrozenTree&&) noexcept = default;
  FrozenTree& operator=(FrozenTree&&) noexcept = default;

  /// Snapshots a built tree. If the tree's storage is finalized the frozen
  /// tree shares its payload store; otherwise the frozen tree has no
  /// payloads (ChargeAccess then charges node reads only — same as the dirty
  /// IurTree). RST_CHECKs the postings limit (at most 65536 entries or
  /// cluster summaries per node). Records `frozen.freeze` spans on `trace`
  /// and publishes frozen.freezes / frozen.freeze.last_ms.
  static FrozenTree Freeze(const IurTree& tree,
                           obs::QueryTrace* trace = nullptr);

  // --- Topology (node/entry indices; root node is 0) ---
  uint32_t num_nodes() const { return static_cast<uint32_t>(node_leaf_.size()); }
  uint32_t num_entries() const {
    return static_cast<uint32_t>(entry_id_.size());
  }
  uint32_t root() const { return 0; }
  size_t size() const { return size_; }  ///< indexed object count
  bool clustered() const { return clustered_; }
  bool has_payloads() const { return has_payloads_; }

  bool IsLeaf(uint32_t node) const { return node_leaf_[node] != 0; }
  uint32_t EntryBegin(uint32_t node) const { return node_entry_begin_[node]; }
  uint32_t EntryCount(uint32_t node) const { return node_entry_count_[node]; }
  /// One past the last node of `node`'s subtree (preorder numbering).
  uint32_t SubtreeEnd(uint32_t node) const { return node_subtree_end_[node]; }
  /// True when `node`'s subtree contains node `other` (or is it).
  bool Contains(uint32_t node, uint32_t other) const {
    return node <= other && other < node_subtree_end_[node];
  }
  /// The leaf holding object `id`, or kNoNode when no entry indexes it.
  uint32_t LeafOf(uint32_t id) const;

  // --- Entries ---
  const Rect& EntryRect(uint32_t e) const { return entry_rect_[e]; }
  bool IsObject(uint32_t e) const { return entry_child_[e] == kNoNode; }
  uint32_t ObjectIdOf(uint32_t e) const { return entry_id_[e]; }
  uint32_t Child(uint32_t e) const { return entry_child_[e]; }
  uint32_t Count(uint32_t e) const { return entry_summary_[e].count; }
  /// Tree level (0 = root entries); the explain id of entry e is e + 1.
  uint32_t EntryLevel(uint32_t e) const { return entry_level_[e]; }

  SummarySpan Summary(uint32_t e) const { return Span(entry_summary_[e]); }
  uint32_t NumClusters(uint32_t e) const { return entry_cluster_count_[e]; }
  uint32_t ClusterId(uint32_t e, uint32_t i) const {
    return clusters_[entry_cluster_begin_[e] + i].cluster_id;
  }
  SummarySpan ClusterSummary(uint32_t e, uint32_t i) const {
    return Span(clusters_[entry_cluster_begin_[e] + i].summary);
  }
  uint32_t ClusterCount(uint32_t e, uint32_t i) const {
    return clusters_[entry_cluster_begin_[e] + i].summary.count;
  }

  // --- Per-node postings ---
  /// Sizes of the largest node, for callers that preallocate dot buffers.
  uint32_t MaxNodeEntries() const { return max_node_entries_; }
  uint32_t MaxNodeClusters() const { return max_node_clusters_; }
  /// Cluster summaries of `node`'s entries. ClusterDots numbers them from 0
  /// in entry order, each entry's clusters in cluster order.
  uint32_t NodeClusterCount(uint32_t node) const;
  /// True when each entry of `node` has intersection == union and, in a
  /// clustered tree, exactly one cluster summary equal to its blended one
  /// (leaf nodes): cluster i of the node is then entry slot i, with the same
  /// dots.
  bool ClustersAreEntries(uint32_t node) const {
    return node_aux_begin_[node] == kNoNode;
  }
  /// One pass over `node`'s postings: uni[i] = <probe.uni, entry i's uni>
  /// and intr[i] = <probe.intr, entry i's intr> for every entry slot i, each
  /// summed in ascending term order like DotSpan, so bit-identical to it.
  /// The probe's intersection terms must be among its union terms, as in
  /// every summary (a document's are the same). Both buffers hold at least
  /// EntryCount(node) doubles.
  void EntryDots(uint32_t node, const SummarySpan& probe, double* uni,
                 double* intr) const;
  /// The same over the node's cluster summaries (NodeClusterCount doubles).
  void ClusterDots(uint32_t node, const SummarySpan& probe, double* uni,
                   double* intr) const;

  // --- Storage / I/O (mirrors IurTree accounting byte-for-byte) ---
  const PageStore& page_store() const { return *page_store_; }
  uint64_t IndexBytes() const { return page_store_->PayloadBytes(); }
  PageHandle record_handle(uint32_t node) const { return node_record_[node]; }
  PageHandle invfile_handle(uint32_t node) const { return node_invfile_[node]; }

  /// Charges the simulated I/O of opening `node`: one node read plus the
  /// blocks of its inverted file when payloads exist.
  void ChargeAccess(uint32_t node, IoStats* stats) const;

  /// Reads `node`'s serialized inverted file through a buffer pool wrapping
  /// page_store() (real bytes; cache hits charge nothing) and decodes it —
  /// the real-I/O path of RstknnOptions::pool. FailedPrecondition when the
  /// snapshot has no payloads.
  Status ReadNodePayload(uint32_t node, BufferPool* pool, IoStats* stats,
                         InvertedFile* out) const;

  // --- Persistence (versioned flat snapshot; DESIGN.md §10.3) ---
  std::string SerializeToString() const;
  /// Rejects wrong magic/version, truncation, checksum mismatches, and
  /// inconsistent indices with a Status — never crashes on corrupt input.
  static Result<FrozenTree> Deserialize(const std::string& bytes);
  Status Save(const std::string& path) const;
  static Result<FrozenTree> Load(const std::string& path);

  /// Deep validation for tests: array sizes consistent, slices inside the
  /// pool, child links acyclic and complete, levels consistent.
  Status CheckInvariants() const;

 private:
  SummarySpan Span(const SummaryRef& s) const {
    return SummarySpan{
        TermSpan{pool_.data() + s.uni.offset, s.uni.len, s.uni_norm_sq},
        TermSpan{pool_.data() + s.intr.offset, s.intr.len, s.intr_norm_sq},
        s.count};
  }

  /// Re-encodes node records and inverted files into `store` in the exact
  /// post-order of IurTree::SerializeNode.
  void SerializeNodePayloads(uint32_t node, PageStore* store);
  void RebuildPayloads();
  void RecomputeNorms();
  /// Subtree ends from the child links; Corruption unless the numbering is
  /// preorder (children in entry order are n + 1, then each one's end).
  Status ComputeSubtreeEnds(std::vector<uint32_t>* ends) const;
  /// Derives subtree ends and the per-node postings (Freeze and Load).
  Status DeriveSearchArrays();
  /// The one scan behind EntryDots (clusters = false) and ClusterDots.
  void ScanDots(uint32_t node, const SummarySpan& probe, bool clusters,
                double* uni, double* intr) const;

  // SoA node arrays.
  std::vector<uint8_t> node_leaf_;
  std::vector<uint32_t> node_entry_begin_;
  std::vector<uint32_t> node_entry_count_;
  std::vector<PageHandle> node_record_;
  std::vector<PageHandle> node_invfile_;
  std::vector<uint32_t> node_subtree_end_;

  // SoA entry arrays (index order == explain preorder, id = index + 1).
  std::vector<Rect> entry_rect_;
  std::vector<uint32_t> entry_id_;     ///< object id or kNoObject
  std::vector<uint32_t> entry_child_;  ///< node index or kNoNode
  std::vector<uint32_t> entry_level_;
  std::vector<SummaryRef> entry_summary_;
  std::vector<uint32_t> entry_cluster_begin_;
  std::vector<uint32_t> entry_cluster_count_;

  std::vector<ClusterRef> clusters_;  ///< concatenated per-entry cluster runs
  std::vector<TermWeight> pool_;      ///< shared term-weight arena

  // Per-node postings. Node n's dictionary is dict_term_[node_dict_begin_[n]
  // .. node_dict_begin_[n + 1]); entry d's postings start at dict_begin_[d]
  // and end where d + 1's start. A node whose clusters are its entries holds
  // only the union run; any other node's postings are four runs — entry
  // union, entry intersection, cluster union, cluster intersection — split
  // by the three ends at dict_aux_[node_aux_begin_[n] + 3 * (d - first d)].
  std::vector<uint32_t> node_dict_begin_;
  std::vector<uint32_t> node_aux_begin_;  ///< kNoNode: clusters are entries
  std::vector<uint32_t> dict_term_;
  std::vector<uint32_t> dict_begin_;
  std::vector<uint32_t> dict_aux_;
  std::vector<uint16_t> post_slot_;  ///< entry slot or node-local cluster
  std::vector<float> post_weight_;
  uint32_t max_node_entries_ = 0;
  uint32_t max_node_clusters_ = 0;

  std::shared_ptr<const PageStore> page_store_ =
      std::make_shared<const PageStore>();
  uint64_t size_ = 0;
  bool clustered_ = false;
  bool has_payloads_ = false;
};

/// Cluster-aware text bounds of entry `e` against a plain summary (a query
/// document or a super-user): with per-cluster summaries the bound is the
/// min/max over clusters, which is tighter than the blended summary's bound.
TextBounds SummaryTextBounds(const FrozenTree& tree, uint32_t e,
                             const SummarySpan& other,
                             const TextSimilarity& sim);

/// Text bounds between entries `a` and `b` (cluster-aware on both sides; an
/// unclustered side counts as one blended cluster).
TextBounds PairTextBounds(const FrozenTree& tree, uint32_t a, uint32_t b,
                          const TextSimilarity& sim);

/// TE expansion priority: entropy of entry `e`'s cluster-count distribution
/// (0 for unclustered entries).
double ClusterEntropyOf(const FrozenTree& tree, uint32_t e);

}  // namespace frozen
}  // namespace rst

#endif  // RST_FROZEN_FROZEN_H_
