// Joint top-k processing demo: computing every user's spatial-textual top-k
// with one shared index traversal (the 2016 extension's §5) vs. issuing an
// independent top-k search per user. Results are bit-identical; the I/O and
// runtime gap is the point.
//
//   $ ./joint_topk_demo [num_users]

#include <cstdio>
#include <cstdlib>

#include "rst/common/stopwatch.h"
#include "rst/data/generators.h"
#include "rst/maxbrst/joint_topk.h"

using namespace rst;

int main(int argc, char** argv) {
  const size_t num_users =
      argc > 1 ? static_cast<size_t>(std::atoi(argv[1])) : 500;

  FlickrLikeConfig config;
  config.num_objects = 20000;
  Dataset dataset = GenFlickrLike(config, {Weighting::kLanguageModel, 0.1});
  const frozen::FrozenTree index =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));

  UserGenConfig ucfg;
  ucfg.num_users = num_users;
  ucfg.area_extent = 15.0;
  const GeneratedUsers gen = GenUsers(dataset, ucfg);

  TextSimilarity sim(TextMeasure::kSum, &dataset.corpus_max());
  StScorer scorer(&sim, {0.5, dataset.max_dist()});
  JointTopKProcessor proc(&index, &dataset, &scorer);

  const size_t k = 10;
  Stopwatch timer;
  const JointTopKResult baseline = proc.BaselinePerUser(gen.users, k);
  const double baseline_ms = timer.ElapsedMillis();
  timer.Restart();
  const JointTopKResult joint = proc.Process(gen.users, k);
  const double joint_ms = timer.ElapsedMillis();

  // Verify equality (they must agree result-for-result).
  size_t mismatches = 0;
  for (size_t u = 0; u < gen.users.size(); ++u) {
    if (!(joint.per_user[u] == baseline.per_user[u])) ++mismatches;
  }

  std::printf("objects=%zu users=%zu k=%zu\n\n", dataset.size(),
              gen.users.size(), k);
  std::printf("%-22s %12s %14s %12s\n", "method", "runtime_ms", "sim_IOs",
              "IOs/user");
  std::printf("%-22s %12.1f %14llu %12.1f\n", "per-user baseline", baseline_ms,
              static_cast<unsigned long long>(baseline.io.TotalIos()),
              static_cast<double>(baseline.io.TotalIos()) / gen.users.size());
  std::printf("%-22s %12.1f %14llu %12.1f\n", "joint processing", joint_ms,
              static_cast<unsigned long long>(joint.io.TotalIos()),
              static_cast<double>(joint.io.TotalIos()) / gen.users.size());
  std::printf("\nshared candidate pool: |LO|=%zu, |RO|=%zu of %zu objects\n",
              joint.traversal.lo.size(), joint.traversal.ro.size(),
              dataset.size());
  std::printf("result mismatches: %zu (must be 0)\n", mismatches);
  return mismatches == 0 ? 0 : 1;
}
