// A probe search that reuses its ProbeScratch allocates nothing but its
// answers: candidates carry no paths, and the frontiers, the probe heaps and
// the dot buffers live in the scratch. A counting global operator new checks
// it, so this test has a binary of its own.

#include <gtest/gtest.h>

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>
#include <vector>

#include "rst/data/generators.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/rstknn/rstknn.h"

namespace {
// rst-atomics: a plain event counter read after the counted calls return on
// the same thread; no data is published through it.
std::atomic<size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  // rst-atomics: see g_allocations.
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace rst {
namespace {

size_t Allocations() {
  // rst-atomics: see g_allocations.
  return g_allocations.load(std::memory_order_relaxed);
}

TEST(ProbeAllocationTest, SteadyStateQueryAllocatesOnlyItsAnswers) {
  FlickrLikeConfig config;
  config.num_objects = 600;
  config.vocab_size = 200;
  config.seed = 21;
  const Dataset dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
  std::vector<TermVector> docs;
  for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
  ClusteringOptions copts;
  copts.num_clusters = 4;
  const std::vector<uint32_t> cluster_of =
      ClusterDocuments(docs, copts).assignment;
  const TextSimilarity sim(TextMeasure::kExtendedJaccard);
  const StScorer scorer(&sim, {0.3, dataset.max_dist()});
  for (const bool clustered : {false, true}) {
    const frozen::FrozenTree tree = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(dataset, {},
                                  clustered ? &cluster_of : nullptr));
    const RstknnSearcher searcher(&tree, &dataset, &scorer);
    ProbeScratch scratch;
    RstknnOptions options;
    options.scratch = &scratch;
    options.publish_metrics = false;
    std::vector<RstknnQuery> queries;
    for (ObjectId id : {3u, 77u, 150u, 420u}) {
      const StObject& o = dataset.object(id);
      queries.push_back({o.loc, &o.doc, 10, id});
    }
    // The first pass sizes the scratch; the second must not grow it.
    for (const RstknnQuery& query : queries) searcher.Search(query, options);
    for (const RstknnQuery& query : queries) {
      const size_t before = Allocations();
      const RstknnResult result = searcher.Search(query, options);
      const size_t allocations = Allocations() - before;
      EXPECT_EQ(allocations, result.answers.empty() ? 0u : 1u)
          << "query " << query.self << " clustered " << clustered;
    }
  }
}

}  // namespace
}  // namespace rst
