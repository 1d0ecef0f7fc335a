#include "rst/topk/topk.h"

#include <gtest/gtest.h>

#include "churned_snapshots.h"
#include "rst/common/rng.h"
#include "rst/data/generators.h"
#include "rst/iurtree/cluster.h"

namespace rst {
namespace {

struct TopKCase {
  TextMeasure measure;
  Weighting weighting;
  double alpha;
};

class TopKParamTest : public ::testing::TestWithParam<TopKCase> {};

TEST_P(TopKParamTest, MatchesBruteForce) {
  const TopKCase& param = GetParam();
  FlickrLikeConfig config;
  config.num_objects = 1500;
  config.vocab_size = 400;
  const Dataset d = GenFlickrLike(config, {param.weighting, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(param.measure, &d.corpus_max());
  StScorer scorer(&sim, {param.alpha, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);

  Rng rng(3);
  for (int trial = 0; trial < 10; ++trial) {
    TopKQuery q;
    const StObject& query_obj = d.object(
        static_cast<ObjectId>(rng.UniformInt(uint64_t{d.size()})));
    q.loc = query_obj.loc;
    q.doc = &query_obj.doc;
    for (size_t k : {1u, 5u, 20u}) {
      q.k = k;
      const auto expected = BruteForceTopK(d, scorer, q);
      const auto got = searcher.Search(q);
      ASSERT_EQ(got.size(), expected.size());
      for (size_t i = 0; i < got.size(); ++i) {
        EXPECT_EQ(got[i].id, expected[i].id) << "k=" << k << " pos=" << i;
        EXPECT_DOUBLE_EQ(got[i].score, expected[i].score);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Configs, TopKParamTest,
    ::testing::Values(
        TopKCase{TextMeasure::kExtendedJaccard, Weighting::kTfIdf, 0.5},
        TopKCase{TextMeasure::kExtendedJaccard, Weighting::kTfIdf, 0.9},
        TopKCase{TextMeasure::kCosine, Weighting::kTfIdf, 0.3},
        TopKCase{TextMeasure::kSum, Weighting::kLanguageModel, 0.5},
        TopKCase{TextMeasure::kSum, Weighting::kBinary, 0.1}),
    [](const auto& info) {
      return std::string(TextMeasureName(info.param.measure)) + "_" +
             WeightingName(info.param.weighting) + "_a" +
             std::to_string(static_cast<int>(info.param.alpha * 10));
    });

TEST(TopKTest, UserKeywordQueriesMatchBruteForce) {
  // The bichromatic usage: users with keyword sets, LM-weighted objects.
  FlickrLikeConfig config;
  config.num_objects = 2000;
  const Dataset d = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
  const GeneratedUsers gen = GenUsers(d, {});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kSum, &d.corpus_max());
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  for (size_t u = 0; u < 10; ++u) {
    TopKQuery q;
    q.loc = gen.users[u].loc;
    q.doc = &gen.users[u].keywords;
    q.k = 10;
    EXPECT_EQ(searcher.Search(q),
              BruteForceTopK(d, scorer, q));
  }
}

TEST(TopKTest, ExclusionRemovesSelf) {
  FlickrLikeConfig config;
  config.num_objects = 500;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& obj = d.object(42);
  TopKQuery q{obj.loc, &obj.doc, 5, 42};
  const auto got = searcher.Search(q);
  ASSERT_EQ(got.size(), 5u);
  for (const TopKResult& r : got) EXPECT_NE(r.id, 42u);
  EXPECT_EQ(got, BruteForceTopK(d, scorer, q));
  // Without exclusion, the object itself ranks first with the top score.
  q.exclude = IurTree::kNoObject;
  const auto with_self = searcher.Search(q);
  EXPECT_EQ(with_self[0].id, 42u);
}

TEST(TopKTest, KLargerThanDataset) {
  FlickrLikeConfig config;
  config.num_objects = 20;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& obj = d.object(0);
  TopKQuery q{obj.loc, &obj.doc, 100, IurTree::kNoObject};
  EXPECT_EQ(searcher.Search(q).size(), 20u);
  q.k = 0;
  EXPECT_TRUE(searcher.Search(q).empty());
}

TEST(TopKTest, ClusteredTreeSameAnswersLowerOrEqualWork) {
  FlickrLikeConfig config;
  config.num_objects = 2000;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 8;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  const frozen::FrozenTree plain =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  const frozen::FrozenTree ciur = frozen::FrozenTree::Freeze(
      IurTree::BuildFromDataset(d, {}, &clusters.assignment));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.3, d.max_dist()});
  TopKSearcher plain_search(&plain, &d, &scorer);
  TopKSearcher ciur_search(&ciur, &d, &scorer);
  for (ObjectId id : {7u, 99u, 1234u}) {
    const StObject& obj = d.object(id);
    TopKQuery q{obj.loc, &obj.doc, 10, IurTree::kNoObject};
    IoStats plain_io, ciur_io;
    const auto a = plain_search.Search(q, &plain_io);
    const auto b = ciur_search.Search(q, &ciur_io);
    EXPECT_EQ(a, b);
    EXPECT_GT(plain_io.TotalIos(), 0u);
  }
}

TEST(TopKTest, ChurnedAndReloadedSnapshotsMatchBruteForce) {
  FlickrLikeConfig config;
  config.num_objects = 1200;
  config.vocab_size = 300;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  std::vector<TermVector> docs;
  for (const StObject& o : d.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 6;
  const ClusteringResult clusters = ClusterDocuments(docs, copts);
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.4, d.max_dist()});
  for (const bool clustered : {false, true}) {
    const std::vector<frozen::FrozenTree> snapshots = ChurnedSnapshots(
        d, clustered ? &clusters.assignment : nullptr, "topk");
    ASSERT_EQ(snapshots.size(), 3u);
    for (size_t s = 0; s < snapshots.size(); ++s) {
      EXPECT_EQ(snapshots[s].clustered(), clustered);
      TopKSearcher searcher(&snapshots[s], &d, &scorer);
      for (ObjectId id : {5u, 321u, 1100u}) {
        const StObject& obj = d.object(id);
        for (const bool all_terms : {false, true}) {
          TopKQuery q{obj.loc, &obj.doc, 10, id, all_terms};
          EXPECT_EQ(searcher.Search(q), BruteForceTopK(d, scorer, q))
              << "clustered=" << clustered << " snapshot=" << s
              << " query=" << id << " all_terms=" << all_terms;
        }
      }
    }
  }
}

TEST(TopKTest, BooleanAndSemanticsMatchBruteForce) {
  FlickrLikeConfig config;
  config.num_objects = 2000;
  config.vocab_size = 150;  // dense vocabulary so conjunctions have matches
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  Rng rng(71);
  for (int trial = 0; trial < 20; ++trial) {
    // Conjunctions of 1-3 terms taken from a random object (so at least one
    // match exists), plus occasionally a random pair (possibly unsatisfiable).
    TermVector qdoc;
    if (trial % 4 == 3) {
      qdoc = TermVector::FromTerms(
          {static_cast<TermId>(rng.UniformInt(uint64_t{150})),
           static_cast<TermId>(rng.UniformInt(uint64_t{150}))});
    } else {
      const StObject& donor = d.object(
          static_cast<ObjectId>(rng.UniformInt(uint64_t{d.size()})));
      qdoc = donor.doc.TopKByWeight(1 + trial % 3);
    }
    TopKQuery q;
    q.loc = Point{rng.Uniform(0, 100), rng.Uniform(0, 100)};
    q.doc = &qdoc;
    q.k = 10;
    q.require_all_terms = true;
    const auto got = searcher.Search(q);
    const auto expected = BruteForceTopK(d, scorer, q);
    ASSERT_EQ(got.size(), expected.size()) << "trial " << trial;
    for (size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].id, expected[i].id) << "trial " << trial;
    }
    // Every result really contains all query terms.
    for (const TopKResult& r : got) {
      EXPECT_EQ(d.object(r.id).doc.OverlapCount(qdoc), qdoc.size());
    }
  }
}

TEST(TopKTest, BooleanModePrunesMoreThanRankedMode) {
  FlickrLikeConfig config;
  config.num_objects = 3000;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  // A rare conjunction: two low-frequency terms.
  const TermVector qdoc = TermVector::FromTerms({1900, 1950});
  TopKQuery q{Point{50, 50}, &qdoc, 10, IurTree::kNoObject,
              /*require_all_terms=*/true};
  IoStats strict_io, ranked_io;
  searcher.Search(q, &strict_io);
  q.require_all_terms = false;
  searcher.Search(q, &ranked_io);
  EXPECT_LE(strict_io.TotalIos(), ranked_io.TotalIos());
}

TEST(TopKTest, IoGrowsWithK) {
  FlickrLikeConfig config;
  config.num_objects = 3000;
  const Dataset d = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(d, {}));
  TextSimilarity sim(TextMeasure::kExtendedJaccard);
  StScorer scorer(&sim, {0.5, d.max_dist()});
  TopKSearcher searcher(&tree, &d, &scorer);
  const StObject& obj = d.object(17);
  IoStats io_small, io_large;
  searcher.Search({obj.loc, &obj.doc, 1, IurTree::kNoObject}, &io_small);
  searcher.Search({obj.loc, &obj.doc, 100, IurTree::kNoObject}, &io_large);
  EXPECT_LE(io_small.TotalIos(), io_large.TotalIos());
}

}  // namespace
}  // namespace rst
