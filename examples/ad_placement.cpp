// Social-media advertisement placement with MaxBRSTkNN (the 2016 extension's
// Example 1): each user sees only their k most relevant ads; choose the ad's
// location tag and up to w_s keywords so that it reaches the most users.
//
//   $ ./ad_placement

#include <cstdio>

#include "rst/data/generators.h"
#include "rst/maxbrst/maxbrst.h"

using namespace rst;

int main() {
  // Flickr-like object collection = the competing content.
  FlickrLikeConfig config;
  config.num_objects = 10000;
  Dataset content = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
  const frozen::FrozenTree index =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(content, {}));

  // An audience of users in one neighbourhood, with their interest keywords;
  // the pool of those keywords is what the ad may be tagged with.
  UserGenConfig ucfg;
  ucfg.num_users = 200;
  ucfg.keywords_per_user = 3;
  ucfg.num_unique_keywords = 16;
  ucfg.area_extent = 8.0;
  const GeneratedUsers audience = GenUsers(content, ucfg);

  TextSimilarity sim(TextMeasure::kSum, &content.corpus_max());
  StScorer scorer(&sim, {/*alpha=*/0.5, content.max_dist()});

  // Phase 1: joint top-k — every user's current k-th relevance threshold.
  JointTopKProcessor processor(&index, &content, &scorer);
  const size_t k = 10;
  const JointTopKResult thresholds = processor.Process(audience.users, k);
  std::printf("audience: %zu users; joint top-%zu used %llu simulated I/Os\n",
              audience.users.size(), k,
              static_cast<unsigned long long>(thresholds.io.TotalIos()));

  // Phase 2: choose the ad placement.
  MaxBrstQuery query;
  query.locations = GenCandidateLocations(audience.area, 30, /*seed=*/5);
  query.keywords = audience.candidate_keywords;
  query.ws = 2;
  query.k = k;

  MaxBrstSolver solver(&content, &scorer);
  const MaxBrstResult greedy = solver.Solve(audience.users, thresholds.rsk,
                                            query, KeywordSelect::kApprox);
  const MaxBrstResult exact = solver.Solve(audience.users, thresholds.rsk,
                                           query, KeywordSelect::kExact);

  auto describe = [&](const char* label, const MaxBrstResult& r) {
    std::printf("\n%s:\n", label);
    if (r.location_index == SIZE_MAX) {
      std::printf("  no placement reaches anyone\n");
      return;
    }
    const Point loc = query.locations[r.location_index];
    std::printf("  location  (%.2f, %.2f)   keywords {", loc.x, loc.y);
    for (size_t i = 0; i < r.keywords.size(); ++i) {
      std::printf("%s#%u", i ? ", " : "", r.keywords[i]);
    }
    std::printf("}\n  reaches %zu of %zu users  (%llu combinations tried)\n",
                r.coverage(), audience.users.size(),
                static_cast<unsigned long long>(r.stats.combinations_evaluated));
  };
  describe("greedy (1-1/e guarantee)", greedy);
  describe("exact (exhaustive over pruned pool)", exact);

  if (exact.coverage() > 0) {
    std::printf("\nempirical approximation ratio: %.3f\n",
                static_cast<double>(greedy.coverage()) /
                    static_cast<double>(exact.coverage()));
  }
  return 0;
}
