#include "rst/frozen/frozen.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/data/generators.h"
#include "rst/iurtree/cluster.h"
#include "rst/rstknn/rstknn.h"
#include "rst/storage/codec.h"
#include "rst/storage/varint.h"

namespace rst {
namespace {

struct Fixture {
  Dataset dataset;
  std::vector<uint32_t> cluster_of;
  IurTree tree;
  TextSimilarity sim;
  StScorer scorer;

  explicit Fixture(size_t n, bool clustered = false, uint64_t seed = 7)
      : tree(IurTree::Build({}, {})), sim(TextMeasure::kExtendedJaccard),
        scorer(&sim, {0.5, 1.0}) {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.vocab_size = 200;
    config.seed = seed;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    if (clustered) {
      std::vector<TermVector> docs;
      for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
      ClusteringOptions copts;
      copts.num_clusters = 6;
      copts.outlier_threshold = 0.1;
      cluster_of = ClusterDocuments(docs, copts).assignment;
    }
    IurTreeOptions topts;
    topts.max_entries = 8;
    topts.min_entries = 4;
    tree = IurTree::BuildFromDataset(dataset, topts,
                                     clustered ? &cluster_of : nullptr);
    scorer = StScorer(&sim, {0.5, dataset.max_dist()});
  }
};

/// The branch-and-bound work counters (everything but I/O).
void ExpectTraversalEqual(const RstknnStats& a, const RstknnStats& b) {
  EXPECT_EQ(a.entries_created, b.entries_created);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.pruned_entries, b.pruned_entries);
  EXPECT_EQ(a.reported_entries, b.reported_entries);
  EXPECT_EQ(a.bound_computations, b.bound_computations);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.pq_pops, b.pq_pops);
}

void ExpectStatsEqual(const RstknnStats& a, const RstknnStats& b) {
  EXPECT_EQ(a.io.node_reads, b.io.node_reads);
  EXPECT_EQ(a.io.payload_blocks, b.io.payload_blocks);
  EXPECT_EQ(a.io.payload_bytes, b.io.payload_bytes);
  EXPECT_EQ(a.io.cache_hits, b.io.cache_hits);
  ExpectTraversalEqual(a, b);
}

/// Explain id and level of every IurTree entry, numbered by the layout walk
/// Freeze documents: pop a node, push its children in reverse (so they pop
/// in entry order), then number the popped node's entries consecutively
/// from 1.
struct EntryNumber {
  uint64_t id;
  uint32_t level;
};
std::unordered_map<const IurTree::Entry*, EntryNumber> NumberEntries(
    const IurTree& tree) {
  std::unordered_map<const IurTree::Entry*, EntryNumber> numbers;
  uint64_t next_id = 1;
  std::vector<std::pair<const IurTree::Node*, uint32_t>> stack = {
      {tree.root(), 0}};
  while (!stack.empty()) {
    const auto [node, level] = stack.back();
    stack.pop_back();
    for (size_t i = node->entries.size(); i-- > 0;) {
      const IurTree::Entry& e = node->entries[i];
      if (!e.is_object()) stack.push_back({e.child, level + 1});
    }
    for (const IurTree::Entry& e : node->entries) {
      numbers.emplace(&e, EntryNumber{next_id++, level});
    }
  }
  return numbers;
}

// ---------------------------------------------------------------------------
// Structural equivalence of the frozen layout

TEST(FrozenTreeTest, LayoutMatchesExplainNumbering) {
  const Fixture f(300, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  ASSERT_TRUE(frozen.CheckInvariants().ok())
      << frozen.CheckInvariants().ToString();
  EXPECT_EQ(frozen.size(), f.tree.size());
  EXPECT_TRUE(frozen.clustered());
  EXPECT_EQ(frozen.num_nodes(), f.tree.NodeCount());

  // Every IurTree entry's explain id must address the identical frozen
  // entry: the frozen array order IS the explain numbering (id = index + 1).
  const auto numbers = NumberEntries(f.tree);
  ASSERT_EQ(numbers.size(), frozen.num_entries());
  std::vector<const IurTree::Node*> stack{f.tree.root()};
  size_t objects = 0;
  while (!stack.empty()) {
    const IurTree::Node* node = stack.back();
    stack.pop_back();
    for (const IurTree::Entry& entry : node->entries) {
      const EntryNumber number = numbers.at(&entry);
      const uint32_t e = static_cast<uint32_t>(number.id - 1);
      ASSERT_LT(e, frozen.num_entries());
      EXPECT_EQ(frozen.EntryLevel(e), number.level);
      EXPECT_EQ(frozen.EntryRect(e).min_x, entry.rect.min_x);
      EXPECT_EQ(frozen.EntryRect(e).max_y, entry.rect.max_y);
      EXPECT_EQ(frozen.IsObject(e), entry.is_object());
      EXPECT_EQ(frozen.Count(e), entry.count());
      if (entry.is_object()) {
        EXPECT_EQ(frozen.ObjectIdOf(e), entry.id);
        ++objects;
      } else {
        stack.push_back(entry.child);
      }
      // Summaries must be the same term-by-term data (shared span kernels
      // then guarantee bit-identical bounds).
      const SummarySpan ps = AsSpan(entry.summary);
      const SummarySpan fs = frozen.Summary(e);
      ASSERT_EQ(fs.uni.len, ps.uni.len);
      ASSERT_EQ(fs.intr.len, ps.intr.len);
      EXPECT_EQ(fs.uni.norm_squared, ps.uni.norm_squared);
      for (uint32_t t = 0; t < fs.uni.len; ++t) {
        EXPECT_EQ(fs.uni.data[t].term, ps.uni.data[t].term);
        EXPECT_EQ(fs.uni.data[t].weight, ps.uni.data[t].weight);
      }
      ASSERT_EQ(frozen.NumClusters(e), entry.clusters.size());
      for (uint32_t c = 0; c < frozen.NumClusters(e); ++c) {
        EXPECT_EQ(frozen.ClusterId(e, c), entry.clusters[c].first);
        EXPECT_EQ(frozen.ClusterCount(e, c), entry.clusters[c].second.count);
      }
    }
  }
  EXPECT_EQ(objects, f.tree.size());
}

TEST(FrozenTreeTest, PayloadsMatchIurTreeByteForByte) {
  const Fixture f(250, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  ASSERT_TRUE(frozen.has_payloads());
  // Identical re-encode order ⇒ identical page handles and total bytes, so
  // I/O accounting (simulated and real) agrees with the source tree.
  EXPECT_EQ(frozen.IndexBytes(), f.tree.IndexBytes());
  const PageHandle root_ptr = f.tree.root()->invfile_handle;
  const PageHandle root_frz = frozen.invfile_handle(frozen.root());
  EXPECT_EQ(root_frz.first_page, root_ptr.first_page);
  EXPECT_EQ(root_frz.num_pages, root_ptr.num_pages);
  EXPECT_EQ(root_frz.bytes, root_ptr.bytes);
}

TEST(FrozenTreeTest, FreezeSharesTheFinalizedPageStore) {
  Fixture f(200, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  ASSERT_TRUE(frozen.has_payloads());
  EXPECT_EQ(&frozen.page_store(), &f.tree.page_store());
  const uint64_t bytes = frozen.IndexBytes();
  const size_t pages = frozen.page_store().num_pages();

  // Churn and re-finalize: the tree moves to a fresh store; the snapshot
  // keeps the one its handles point into, unchanged and readable.
  for (ObjectId id = 0; id < 20; ++id) {
    ASSERT_TRUE(f.tree.Delete(id, f.dataset.object(id).loc).ok());
  }
  for (ObjectId id = 0; id < 20; ++id) {
    const StObject& o = f.dataset.object(id);
    f.tree.Insert(id, o.loc, &o.doc, f.cluster_of[id]);
  }
  f.tree.FinalizeStorage();
  EXPECT_NE(&frozen.page_store(), &f.tree.page_store());
  EXPECT_EQ(frozen.IndexBytes(), bytes);
  EXPECT_EQ(frozen.page_store().num_pages(), pages);
  for (uint32_t n = 0; n < frozen.num_nodes(); ++n) {
    std::string payload;
    EXPECT_TRUE(frozen.page_store()
                    .Read(frozen.invfile_handle(n), &payload, nullptr)
                    .ok());
    EXPECT_EQ(payload.size(), frozen.invfile_handle(n).bytes);
  }
}

TEST(FrozenTreeTest, SubtreeEndsAreThePreorderIntervals) {
  const Fixture f(300);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  // parent[n] from the child links; Contains must be exactly ancestry.
  std::vector<uint32_t> parent(frozen.num_nodes(),
                               frozen::FrozenTree::kNoNode);
  for (uint32_t e = 0; e < frozen.num_entries(); ++e) {
    if (!frozen.IsObject(e)) {
      for (uint32_t n = 0; n < frozen.num_nodes(); ++n) {
        if (e >= frozen.EntryBegin(n) &&
            e < frozen.EntryBegin(n) + frozen.EntryCount(n)) {
          parent[frozen.Child(e)] = n;
        }
      }
    }
  }
  EXPECT_EQ(frozen.SubtreeEnd(frozen.root()), frozen.num_nodes());
  for (uint32_t a = 0; a < frozen.num_nodes(); ++a) {
    for (uint32_t b = 0; b < frozen.num_nodes(); ++b) {
      bool ancestor = false;
      for (uint32_t x = b; x != frozen::FrozenTree::kNoNode; x = parent[x]) {
        ancestor = ancestor || x == a;
      }
      EXPECT_EQ(frozen.Contains(a, b), ancestor) << a << " " << b;
    }
    EXPECT_FALSE(frozen.Contains(a, frozen::FrozenTree::kNoNode));
  }
  for (uint32_t e = 0; e < frozen.num_entries(); ++e) {
    if (!frozen.IsObject(e)) continue;
    const uint32_t leaf = frozen.LeafOf(frozen.ObjectIdOf(e));
    ASSERT_NE(leaf, frozen::FrozenTree::kNoNode);
    EXPECT_GE(e, frozen.EntryBegin(leaf));
    EXPECT_LT(e, frozen.EntryBegin(leaf) + frozen.EntryCount(leaf));
  }
  EXPECT_EQ(frozen.LeafOf(100000), frozen::FrozenTree::kNoNode);
}

/// A root with two one-object leaves, serialized by hand; with
/// `swap_children` the root's entries link to the leaves in reverse, which
/// passes every check but preorder numbering.
std::string TwoLeafSnapshot(bool swap_children) {
  std::string out = "RSTF";
  PutVarint32(&out, frozen::FrozenTree::kFormatVersion);
  out.push_back(0);  // flags: unclustered, no payloads
  PutVarint64(&out, 2);  // objects
  PutVarint32(&out, 3);  // nodes
  PutVarint32(&out, 4);  // entries
  PutVarint32(&out, 0);  // clusters
  PutVarint64(&out, 1);  // pool terms
  const uint32_t nodes[3][3] = {{0, 0, 2}, {1, 2, 1}, {1, 3, 1}};
  for (const auto& node : nodes) {
    out.push_back(static_cast<char>(node[0]));
    PutVarint32(&out, node[1]);
    PutVarint32(&out, node[2]);
  }
  for (uint32_t e = 0; e < 4; ++e) {
    for (double v : {0.0, 0.0, 1.0, 1.0}) PutDouble(&out, v);
    PutVarint32(&out, e < 2 ? 0 : e - 1);  // object id + 1
    const uint32_t child = (e == 0) != swap_children ? 1 : 2;
    PutVarint32(&out, e < 2 ? child + 1 : 0);  // child node + 1
    PutVarint32(&out, e < 2 ? 0 : 1);          // level
    for (int side = 0; side < 2; ++side) {     // uni and intr: pool[0, 1)
      PutVarint64(&out, 0);
      PutVarint32(&out, 1);
    }
    PutVarint32(&out, 1);  // count
    PutVarint32(&out, 0);  // cluster begin
    PutVarint32(&out, 0);  // cluster count
  }
  PutVarint32(&out, 3);
  PutFloat(&out, 0.5f);
  uint64_t h = 1469598103934665603ULL;
  for (char c : out) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ULL;
  }
  for (int b = 0; b < 8; ++b) {
    out.push_back(static_cast<char>((h >> (8 * b)) & 0xFF));
  }
  return out;
}

TEST(FrozenSerializationTest, RejectsNodeNumberingThatIsNotPreorder) {
  const Result<frozen::FrozenTree> good =
      frozen::FrozenTree::Deserialize(TwoLeafSnapshot(false));
  ASSERT_TRUE(good.ok()) << good.status().ToString();
  EXPECT_EQ(good.value().SubtreeEnd(0), 3u);
  const Result<frozen::FrozenTree> bad =
      frozen::FrozenTree::Deserialize(TwoLeafSnapshot(true));
  ASSERT_FALSE(bad.ok());
  EXPECT_NE(bad.status().ToString().find("preorder"), std::string::npos)
      << bad.status().ToString();
}

// A frozen search through a BufferPool (real reads of the serialized
// inverted files) makes exactly the decisions of the same search on
// simulated I/O: only the I/O accounting may differ.
TEST(FrozenTreeTest, RealIoThroughBufferPoolMatchesSimulatedIo) {
  const Fixture f(250, /*clustered=*/false);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const StObject& qobj = f.dataset.object(17);
  const RstknnQuery query{qobj.loc, &qobj.doc, 5, 17};
  const RstknnSearcher searcher(&frozen, &f.dataset, &f.scorer);

  RstknnOptions options;
  options.publish_metrics = false;
  const RstknnResult simulated = searcher.Search(query, options);
  BufferPool pool(&frozen.page_store(), 64);
  options.pool = &pool;
  const RstknnResult real = searcher.Search(query, options);
  EXPECT_EQ(real.answers, simulated.answers);
  ExpectTraversalEqual(real.stats, simulated.stats);
  EXPECT_GT(pool.misses(), 0u);
}

// ---------------------------------------------------------------------------
// Persistence

TEST(FrozenSerializationTest, RoundTripIsExact) {
  const Fixture f(200, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const std::string bytes = frozen.SerializeToString();

  Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Deserialize(bytes);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const frozen::FrozenTree& copy = loaded.value();
  EXPECT_TRUE(copy.CheckInvariants().ok());
  EXPECT_EQ(copy.num_nodes(), frozen.num_nodes());
  EXPECT_EQ(copy.num_entries(), frozen.num_entries());
  EXPECT_EQ(copy.size(), frozen.size());
  EXPECT_EQ(copy.clustered(), frozen.clustered());
  EXPECT_EQ(copy.has_payloads(), frozen.has_payloads());
  // Payload rebuild and norm recomputation are deterministic, so a second
  // serialization is byte-identical and the rebuilt page store matches.
  EXPECT_EQ(copy.SerializeToString(), bytes);
  EXPECT_EQ(copy.IndexBytes(), frozen.IndexBytes());

  // The reloaded snapshot answers queries identically to the original.
  const RstknnSearcher frozen_search(&frozen, &f.dataset, &f.scorer);
  const RstknnSearcher loaded_search(&copy, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(42);
  const RstknnQuery query{qobj.loc, &qobj.doc, 6, 42};
  RstknnOptions options;
  options.publish_metrics = false;
  const RstknnResult a = frozen_search.Search(query, options);
  const RstknnResult b = loaded_search.Search(query, options);
  EXPECT_EQ(a.answers, b.answers);
  ExpectStatsEqual(a.stats, b.stats);
}

TEST(FrozenSerializationTest, SaveLoadRoundTrip) {
  const Fixture f(120);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const std::string path =
      ::testing::TempDir() + "/frozen_save_load_test.rstf";
  ASSERT_TRUE(frozen.Save(path).ok());
  Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Load(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().SerializeToString(), frozen.SerializeToString());
  std::remove(path.c_str());
}

TEST(FrozenSerializationTest, CorruptInputsReturnStatusNeverCrash) {
  const Fixture f(150, /*clustered=*/true);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  const std::string bytes = frozen.SerializeToString();

  // Truncation at every interesting prefix length: must error, not crash.
  for (const size_t len :
       {size_t{0}, size_t{3}, size_t{4}, size_t{11}, size_t{12}, size_t{40},
        bytes.size() / 2, bytes.size() - 9, bytes.size() - 1}) {
    const Result<frozen::FrozenTree> r =
        frozen::FrozenTree::Deserialize(bytes.substr(0, len));
    EXPECT_FALSE(r.ok()) << "truncated to " << len << " bytes";
  }

  // Wrong magic.
  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(frozen::FrozenTree::Deserialize(bad_magic).ok());

  // Any flipped byte breaks the checksum.
  std::string flipped = bytes;
  flipped[bytes.size() / 3] ^= 0x40;
  const Result<frozen::FrozenTree> r = frozen::FrozenTree::Deserialize(flipped);
  ASSERT_FALSE(r.ok());
  EXPECT_NE(r.status().ToString().find("checksum"), std::string::npos);

  // Trailing garbage past the checksum.
  EXPECT_FALSE(frozen::FrozenTree::Deserialize(bytes + "garbage").ok());

  // An unsupported version is rejected even with a valid checksum (the
  // version byte sits right after the 4-byte magic; re-stamp the FNV-1a
  // checksum so version rejection — not the checksum — is what fires).
  std::string future = bytes;
  future[4] = static_cast<char>(frozen::FrozenTree::kFormatVersion + 1);
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i + 8 < future.size(); ++i) {
    h ^= static_cast<uint8_t>(future[i]);
    h *= 1099511628211ULL;
  }
  for (int b = 0; b < 8; ++b) {
    future[future.size() - 8 + b] = static_cast<char>((h >> (8 * b)) & 0xFF);
  }
  const Result<frozen::FrozenTree> v = frozen::FrozenTree::Deserialize(future);
  ASSERT_FALSE(v.ok());
  EXPECT_NE(v.status().ToString().find("version"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Edge cases

TEST(FrozenTreeTest, EmptyAndSingleLeafTrees) {
  // Empty tree: one empty root node, zero entries; searching returns
  // nothing; serialization round-trips.
  const IurTree empty = IurTree::Build({}, {});
  const frozen::FrozenTree frozen_empty = frozen::FrozenTree::Freeze(empty);
  EXPECT_EQ(frozen_empty.num_nodes(), 1u);
  EXPECT_EQ(frozen_empty.num_entries(), 0u);
  EXPECT_TRUE(frozen_empty.CheckInvariants().ok());
  const Result<frozen::FrozenTree> rt =
      frozen::FrozenTree::Deserialize(frozen_empty.SerializeToString());
  ASSERT_TRUE(rt.ok());
  EXPECT_EQ(rt.value().num_entries(), 0u);

  // A dataset that fits one leaf (≤ max_entries) exercises the small-input
  // build path, which must finalize storage exactly like the full path.
  const Fixture f(6);
  EXPECT_TRUE(f.tree.storage_finalized());
  EXPECT_GT(f.tree.IndexBytes(), 0u);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  EXPECT_TRUE(frozen.has_payloads());
  EXPECT_EQ(frozen.num_entries(), 6u);
  EXPECT_TRUE(frozen.CheckInvariants().ok());
  const RstknnSearcher frozen_search(&frozen, &f.dataset, &f.scorer);
  const StObject& qobj = f.dataset.object(2);
  const RstknnQuery query{qobj.loc, &qobj.doc, 3, 2};
  RstknnOptions options;
  options.publish_metrics = false;
  EXPECT_EQ(frozen_search.Search(query, options).answers,
            BruteForceRstknn(f.dataset, f.scorer, query));
}

TEST(FrozenTreeTest, DirtyTreeFreezesWithoutPayloads) {
  Fixture f(100);
  // An insert invalidates the serialized payloads; the freeze then carries
  // no payload store and charges node reads only — same as the dirty tree.
  f.tree.Insert(100, {0.5, 0.5}, &f.dataset.object(0).doc);
  ASSERT_FALSE(f.tree.storage_finalized());
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(f.tree);
  EXPECT_FALSE(frozen.has_payloads());
  EXPECT_TRUE(frozen.CheckInvariants().ok());
  IoStats stats;
  frozen.ChargeAccess(frozen.root(), &stats);
  EXPECT_EQ(stats.node_reads, 1u);
  EXPECT_EQ(stats.payload_blocks, 0u);
}

TEST(FrozenTreeTest, ParallelBuildProducesIdenticalFrozenBytes) {
  FlickrLikeConfig config;
  config.num_objects = 500;
  config.vocab_size = 200;
  config.seed = 13;
  const Dataset dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  IurTreeOptions serial;
  serial.max_entries = 8;
  serial.min_entries = 4;
  IurTreeOptions parallel = serial;
  parallel.build_threads = 4;
  const IurTree t1 = IurTree::BuildFromDataset(dataset, serial);
  const IurTree t4 = IurTree::BuildFromDataset(dataset, parallel);
  // The slab sorts are disjoint ranges of one level array, so the packed
  // tree — and hence the canonical frozen serialization — is identical at
  // every thread count.
  EXPECT_EQ(frozen::FrozenTree::Freeze(t1).SerializeToString(),
            frozen::FrozenTree::Freeze(t4).SerializeToString());
}

}  // namespace
}  // namespace rst
