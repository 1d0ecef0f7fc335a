// Per-node postings of the frozen tree: EntryDots / ClusterDots must equal
// one DotSpan per entry bit for bit, and the bounds computed from those dots
// must equal the span-path bounds, on IUR and CIUR trees, after churn and
// re-freeze, and after a save → load round trip.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/text/similarity.h"

namespace rst {
namespace {

constexpr uint32_t kVocab = 120;

Dataset MakeData(size_t n, uint64_t seed) {
  FlickrLikeConfig config;
  config.num_objects = n;
  config.vocab_size = kVocab;
  config.seed = seed;
  return GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
}

IurTree BuildTree(const Dataset& dataset, bool clustered,
                  std::vector<uint32_t>* cluster_of) {
  if (clustered) {
    std::vector<TermVector> docs;
    for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 5;
    copts.outlier_threshold = 0.1;
    *cluster_of = ClusterDocuments(docs, copts).assignment;
  }
  IurTreeOptions topts;
  topts.max_entries = 8;
  topts.min_entries = 4;
  return IurTree::BuildFromDataset(dataset, topts,
                                   clustered ? cluster_of : nullptr);
}

std::vector<TermVector> RandomDocs(size_t count, uint64_t seed) {
  Rng rng(seed);
  std::vector<TermVector> docs;
  for (size_t d = 0; d < count; ++d) {
    std::vector<TermWeight> terms;
    const size_t n = 1 + rng.UniformInt(uint64_t{25});
    for (size_t i = 0; i < n; ++i) {
      // A few terms beyond the corpus vocabulary match nothing.
      const auto term =
          static_cast<TermId>(rng.UniformInt(uint64_t{kVocab + 10}));
      terms.push_back({term, static_cast<float>(rng.Uniform(0.01, 3.0))});
    }
    docs.push_back(TermVector::FromUnsorted(std::move(terms)));
  }
  return docs;
}

/// Every probe a search feeds the postings: each entry summary of the tree,
/// random documents and a dataset document (a query).
std::vector<SummarySpan> Probes(const frozen::FrozenTree& tree,
                                const std::vector<TermVector>& docs) {
  std::vector<SummarySpan> probes;
  for (uint32_t e = 0; e < tree.num_entries(); ++e) {
    probes.push_back(tree.Summary(e));
  }
  for (const TermVector& doc : docs) probes.push_back(DocSpan(doc));
  return probes;
}

/// Number of (node, slot, probe) dots that differ from DotSpan; the first
/// difference is reported.
size_t DotMismatches(const frozen::FrozenTree& tree,
                     const std::vector<SummarySpan>& probes) {
  std::vector<double> uni(tree.MaxNodeEntries());
  std::vector<double> intr(tree.MaxNodeEntries());
  std::vector<double> c_uni(tree.MaxNodeClusters());
  std::vector<double> c_intr(tree.MaxNodeClusters());
  size_t mismatches = 0;
  auto check = [&](double got, double want, const char* what, uint32_t node) {
    if (got == want) return;
    if (mismatches++ == 0) {
      ADD_FAILURE() << what << " at node " << node << ": postings " << got
                    << " vs DotSpan " << want;
    }
  };
  for (const SummarySpan& probe : probes) {
    for (uint32_t n = 0; n < tree.num_nodes(); ++n) {
      tree.EntryDots(n, probe, uni.data(), intr.data());
      tree.ClusterDots(n, probe, c_uni.data(), c_intr.data());
      uint32_t cluster = 0;
      for (uint32_t i = 0; i < tree.EntryCount(n); ++i) {
        const uint32_t e = tree.EntryBegin(n) + i;
        const SummarySpan s = tree.Summary(e);
        check(uni[i], Dot(probe.uni, s.uni), "entry union", n);
        check(intr[i], Dot(probe.intr, s.intr), "entry intersection", n);
        for (uint32_t c = 0; c < tree.NumClusters(e); ++c, ++cluster) {
          const SummarySpan cs = tree.ClusterSummary(e, c);
          check(c_uni[cluster], Dot(probe.uni, cs.uni), "cluster union", n);
          check(c_intr[cluster], Dot(probe.intr, cs.intr),
                "cluster intersection", n);
        }
      }
      EXPECT_EQ(cluster, tree.NodeClusterCount(n));
    }
  }
  return mismatches;
}

/// Number of bounds from postings dots that differ from the span path, for
/// extended Jaccard (both EjBoundModes) and cosine.
size_t BoundMismatches(const frozen::FrozenTree& tree,
                       const std::vector<SummarySpan>& probes) {
  const TextSimilarity measures[] = {
      TextSimilarity(TextMeasure::kExtendedJaccard, nullptr,
                     EjBoundMode::kCauchySchwarz),
      TextSimilarity(TextMeasure::kExtendedJaccard, nullptr,
                     EjBoundMode::kNaive),
      TextSimilarity(TextMeasure::kCosine)};
  std::vector<double> uni(tree.MaxNodeEntries());
  std::vector<double> intr(tree.MaxNodeEntries());
  std::vector<double> c_uni(tree.MaxNodeClusters());
  std::vector<double> c_intr(tree.MaxNodeClusters());
  size_t mismatches = 0;
  auto check = [&](double got, double want, const TextSimilarity& sim) {
    if (got == want) return;
    if (mismatches++ == 0) {
      ADD_FAILURE() << TextMeasureName(sim.measure()) << ": from dots " << got
                    << " vs span path " << want;
    }
  };
  for (const TextSimilarity& sim : measures) {
    for (const SummarySpan& probe : probes) {
      for (uint32_t n = 0; n < tree.num_nodes(); ++n) {
        tree.EntryDots(n, probe, uni.data(), intr.data());
        tree.ClusterDots(n, probe, c_uni.data(), c_intr.data());
        uint32_t cluster = 0;
        for (uint32_t i = 0; i < tree.EntryCount(n); ++i) {
          const uint32_t e = tree.EntryBegin(n) + i;
          const SummarySpan s = tree.Summary(e);
          check(sim.MinSimFromDot(intr[i], probe.uni.norm_squared,
                                  s.uni.norm_squared),
                sim.MinSim(probe, s), sim);
          check(sim.MaxSimFromDot(uni[i], probe.intr.norm_squared,
                                  s.intr.norm_squared),
                sim.MaxSim(probe, s), sim);
          for (uint32_t c = 0; c < tree.NumClusters(e); ++c, ++cluster) {
            const SummarySpan cs = tree.ClusterSummary(e, c);
            check(sim.MinSimFromDot(c_intr[cluster], probe.uni.norm_squared,
                                    cs.uni.norm_squared),
                  sim.MinSim(probe, cs), sim);
            check(sim.MaxSimFromDot(c_uni[cluster], probe.intr.norm_squared,
                                    cs.intr.norm_squared),
                  sim.MaxSim(probe, cs), sim);
          }
        }
      }
    }
  }
  return mismatches;
}

void ExpectParity(const frozen::FrozenTree& tree, const Dataset& dataset) {
  std::vector<TermVector> docs = RandomDocs(12, 99);
  docs.push_back(dataset.object(3).doc);  // a self query
  const std::vector<SummarySpan> probes = Probes(tree, docs);
  EXPECT_EQ(DotMismatches(tree, probes), 0u);
  EXPECT_EQ(BoundMismatches(tree, probes), 0u);
}

class PostingsParityTest : public ::testing::TestWithParam<bool> {};

TEST_P(PostingsParityTest, DotsMatchSpanKernelsBitForBit) {
  const Dataset dataset = MakeData(300, 11);
  std::vector<uint32_t> cluster_of;
  const IurTree tree = BuildTree(dataset, GetParam(), &cluster_of);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(tree);
  EXPECT_EQ(frozen.clustered(), GetParam());
  ExpectParity(frozen, dataset);
}

TEST_P(PostingsParityTest, DotsMatchAfterChurnAndRefreeze) {
  const Dataset dataset = MakeData(300, 12);
  std::vector<uint32_t> cluster_of;
  IurTree tree = BuildTree(dataset, GetParam(), &cluster_of);
  for (ObjectId id = 0; id < 60; id += 2) {
    ASSERT_TRUE(tree.Delete(id, dataset.object(id).loc).ok());
  }
  for (ObjectId id = 0; id < 60; id += 2) {
    const StObject& o = dataset.object(id);
    tree.Insert(id, o.loc, &o.doc,
                GetParam() ? cluster_of[id] : IurTree::kNoCluster);
  }
  tree.FinalizeStorage();
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(tree);
  ExpectParity(frozen, dataset);
}

TEST_P(PostingsParityTest, DotsMatchAfterSaveAndLoad) {
  const Dataset dataset = MakeData(250, 13);
  std::vector<uint32_t> cluster_of;
  const IurTree tree = BuildTree(dataset, GetParam(), &cluster_of);
  const std::string path = ::testing::TempDir() + "/postings_test_" +
                           (GetParam() ? "ciur" : "iur") + ".rstf";
  ASSERT_TRUE(frozen::FrozenTree::Freeze(tree).Save(path).ok());
  const Result<frozen::FrozenTree> loaded = frozen::FrozenTree::Load(path);
  std::remove(path.c_str());
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  ExpectParity(loaded.value(), dataset);
}

INSTANTIATE_TEST_SUITE_P(IurAndCiur, PostingsParityTest, ::testing::Bool(),
                         [](const ::testing::TestParamInfo<bool>& info) {
                           return info.param ? "Ciur" : "Iur";
                         });

TEST(PostingsTest, LeafClustersAreTheirEntries) {
  const Dataset dataset = MakeData(200, 14);
  std::vector<uint32_t> cluster_of;
  const IurTree tree = BuildTree(dataset, /*clustered=*/true, &cluster_of);
  const frozen::FrozenTree frozen = frozen::FrozenTree::Freeze(tree);
  for (uint32_t n = 0; n < frozen.num_nodes(); ++n) {
    // A leaf's objects each hold one cluster equal to the object, so its
    // cluster dots are its entry dots; an internal node mixes clusters.
    EXPECT_EQ(frozen.ClustersAreEntries(n), frozen.IsLeaf(n)) << n;
  }
}

}  // namespace
}  // namespace rst
