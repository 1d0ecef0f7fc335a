/// Fuzz target: RSTkNN answers against the brute-force oracle.
///
/// The bytes decode to a tiny dataset — at most 40 objects on an 8x8 grid of
/// locations over a 6-term vocabulary — so coincident points, identical
/// documents and empty documents are common, and every score tie the
/// "strictly more similar" rule must break shows up. Each input is searched
/// on an IUR-tree and a CIUR-tree, at alpha 0, 1 and one decoded value, and
/// for every k from 1 to |D| + 1, by
///   * the probe algorithm inline,
///   * the probe algorithm fanned out over a 2-thread pool, and
///   * the contribution-list algorithm.
/// Every answer set must equal BruteForceRstknn, and the fanned-out probe
/// must reproduce the inline probe's RstknnStats. Any disagreement traps.
///
/// Layout: byte 0 object count, byte 1 measure + query kind, byte 2 decoded
/// alpha, byte 3 tree fanout, byte 4 query object, then 3 bytes per object
/// (x, y, document term mask). Missing bytes read as 0.

#include <cstdint>
#include <vector>

#include "rst/data/dataset.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/rstknn/rstknn.h"

namespace {

constexpr size_t kMaxObjects = 40;

struct Bytes {
  const uint8_t* data;
  size_t size;
  size_t pos = 0;
  uint8_t Next() { return pos < size ? data[pos++] : 0; }
};

/// Bit i (i < 6) of `mask` adds term i; bits 6 and 7 repeat terms 0 and 1,
/// so documents differ in frequencies as well as in terms.
rst::RawDocument DecodeDoc(uint8_t mask) {
  std::vector<rst::TermId> tokens;
  for (rst::TermId t = 0; t < 6; ++t) {
    if ((mask >> t) & 1) tokens.push_back(t);
  }
  if ((mask >> 6) & 1) tokens.push_back(0);
  if ((mask >> 7) & 1) tokens.push_back(1);
  return rst::RawDocument::FromTokens(tokens);
}

bool SameStats(const rst::RstknnStats& a, const rst::RstknnStats& b) {
  return a.io.node_reads == b.io.node_reads &&
         a.entries_created == b.entries_created &&
         a.expansions == b.expansions &&
         a.pruned_entries == b.pruned_entries &&
         a.reported_entries == b.reported_entries &&
         a.bound_computations == b.bound_computations &&
         a.probes == b.probes && a.pq_pops == b.pq_pops;
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  static rst::exec::ThreadPool pool(2);
  Bytes in{data, size};
  const size_t n = 1 + in.Next() % kMaxObjects;
  const uint8_t mode = in.Next();
  const double decoded_alpha = in.Next() / 255.0;
  const size_t fanout = 4 + in.Next() % 5;
  const uint8_t query_byte = in.Next();

  rst::Dataset dataset;
  for (size_t i = 0; i < n; ++i) {
    const uint8_t x = in.Next();
    const uint8_t y = in.Next();
    dataset.Add({static_cast<double>(x % 8), static_cast<double>(y % 8)},
                DecodeDoc(in.Next()));
  }
  dataset.Finalize({rst::Weighting::kTfIdf, 0.1});

  std::vector<rst::TermVector> docs;
  for (const rst::StObject& o : dataset.objects()) docs.push_back(o.doc);
  rst::ClusteringOptions copts;
  copts.num_clusters = 3;
  const std::vector<uint32_t> clusters =
      rst::ClusterDocuments(docs, copts).assignment;
  rst::IurTreeOptions topts;
  topts.max_entries = fanout;
  topts.min_entries = 2;
  const rst::frozen::FrozenTree trees[] = {
      rst::frozen::FrozenTree::Freeze(
          rst::IurTree::BuildFromDataset(dataset, topts)),
      rst::frozen::FrozenTree::Freeze(
          rst::IurTree::BuildFromDataset(dataset, topts, &clusters)),
  };

  const rst::TextSimilarity sim((mode & 1) != 0
                                    ? rst::TextMeasure::kCosine
                                    : rst::TextMeasure::kExtendedJaccard,
                                &dataset.corpus_max());
  // A self-query excludes the query object; an ad-hoc query at the same
  // place with the same document competes with it and ties it exactly.
  const rst::StObject& q = dataset.object(query_byte % n);
  const rst::ObjectId self =
      (mode & 2) != 0 ? rst::IurTree::kNoObject : q.id;

  rst::RstknnOptions probe;
  probe.publish_metrics = false;
  rst::RstknnOptions cl = probe;
  cl.algorithm = rst::RstknnAlgorithm::kContributionList;
  for (const double alpha : {0.0, 1.0, decoded_alpha}) {
    const rst::StScorer scorer(&sim, {alpha, dataset.max_dist()});
    for (const rst::frozen::FrozenTree& tree : trees) {
      const rst::RstknnSearcher searcher(&tree, &dataset, &scorer);
      for (size_t k = 1; k <= n + 1; ++k) {
        const rst::RstknnQuery query{q.loc, &q.doc, k, self};
        const std::vector<rst::ObjectId> oracle =
            rst::BruteForceRstknn(dataset, scorer, query);
        const rst::RstknnResult inline_probe = searcher.Search(query, probe);
        const rst::RstknnResult fanned = searcher.Search(query, probe, &pool);
        if (inline_probe.answers != oracle || fanned.answers != oracle ||
            !SameStats(inline_probe.stats, fanned.stats) ||
            searcher.Search(query, cl).answers != oracle) {
          __builtin_trap();
        }
      }
    }
  }
  return 0;
}
