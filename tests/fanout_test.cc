// Intra-query fan-out (DESIGN.md §8.1): RstknnSearcher::Search with a
// multi-thread pool decides each round of probe candidates in parallel on
// the one frozen tree. Contract: answers equal the exhaustive oracle, and
// every RstknnStats field — traversal counters and simulated I/O alike —
// equals the pool-less search at any thread count. A heatmap accumulates
// per worker and merges to the serial heatmap; single-threaded instruments
// are rejected.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "rst/data/generators.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/trace.h"
#include "rst/rstknn/rstknn.h"
#include "rst/storage/buffer_pool.h"

namespace rst {
namespace {

struct Fixture {
  Dataset dataset;
  frozen::FrozenTree iur;
  frozen::FrozenTree ciur;
  TextSimilarity sim;

  Fixture() : sim(TextMeasure::kExtendedJaccard) {
    FlickrLikeConfig config;
    config.num_objects = 240;
    config.vocab_size = 200;
    config.seed = 7;
    dataset = GenFlickrLike(config, {Weighting::kTfIdf, 0.1});
    std::vector<TermVector> docs;
    for (const StObject& o : dataset.objects()) docs.push_back(o.doc);
    ClusteringOptions copts;
    copts.num_clusters = 6;
    copts.outlier_threshold = 0.1;
    const std::vector<uint32_t> clusters =
        ClusterDocuments(docs, copts).assignment;
    IurTreeOptions topts;  // small fanout: deep trees, many rounds
    topts.max_entries = 8;
    topts.min_entries = 4;
    iur = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(dataset, topts));
    ciur = frozen::FrozenTree::Freeze(
        IurTree::BuildFromDataset(dataset, topts, &clusters));
  }

  RstknnQuery SelfQuery(ObjectId id, size_t k) const {
    const StObject& o = dataset.object(id);
    return {o.loc, &o.doc, k, id};
  }
};

const Fixture& SharedFixture() {
  static const Fixture fixture;
  return fixture;
}

void ExpectStatsEqual(const RstknnStats& a, const RstknnStats& b) {
  EXPECT_EQ(a.io.node_reads, b.io.node_reads);
  EXPECT_EQ(a.io.payload_blocks, b.io.payload_blocks);
  EXPECT_EQ(a.io.payload_bytes, b.io.payload_bytes);
  EXPECT_EQ(a.io.cache_hits, b.io.cache_hits);
  EXPECT_EQ(a.entries_created, b.entries_created);
  EXPECT_EQ(a.expansions, b.expansions);
  EXPECT_EQ(a.pruned_entries, b.pruned_entries);
  EXPECT_EQ(a.reported_entries, b.reported_entries);
  EXPECT_EQ(a.bound_computations, b.bound_computations);
  EXPECT_EQ(a.probes, b.probes);
  EXPECT_EQ(a.pq_pops, b.pq_pops);
}

// The acceptance property over tree kind × α × query kind × thread count:
// oracle answers, and stats identical to the pool-less search.
TEST(FanoutTest, MatchesOracleAndSerialStatsAtEveryThreadCount) {
  const Fixture& f = SharedFixture();
  const TermVector external = TermVector::FromTerms({3, 17, 42});
  std::vector<exec::ThreadPool*> pools;
  exec::ThreadPool p1(1), p2(2), p4(4), p8(8);
  for (exec::ThreadPool* p : {&p1, &p2, &p4, &p8}) pools.push_back(p);

  for (const bool clustered : {false, true}) {
    const frozen::FrozenTree& tree = clustered ? f.ciur : f.iur;
    for (const double alpha : {0.0, 0.1, 0.5, 0.9, 1.0}) {
      const StScorer scorer(&f.sim, {alpha, f.dataset.max_dist()});
      const RstknnSearcher searcher(&tree, &f.dataset, &scorer);
      std::vector<RstknnQuery> queries = {f.SelfQuery(11, 4),
                                          f.SelfQuery(150, 8)};
      queries.push_back({Point{40, 60}, &external, 5, IurTree::kNoObject});
      for (const RstknnQuery& q : queries) {
        RstknnOptions options;
        options.publish_metrics = false;
        const RstknnResult serial = searcher.Search(q, options);
        EXPECT_EQ(serial.answers, BruteForceRstknn(f.dataset, scorer, q));
        for (exec::ThreadPool* pool : pools) {
          SCOPED_TRACE("clustered=" + std::to_string(clustered) +
                       " alpha=" + std::to_string(alpha) +
                       " self=" + std::to_string(q.self) +
                       " threads=" + std::to_string(pool->num_threads()));
          const RstknnResult fanned = searcher.Search(q, options, pool);
          EXPECT_EQ(fanned.answers, serial.answers);
          ExpectStatsEqual(fanned.stats, serial.stats);
        }
      }
    }
  }
}

// k > |D|: every object is an answer; the fan-out still reports them all.
TEST(FanoutTest, KLargerThanDatasetReportsEverything) {
  const Fixture& f = SharedFixture();
  const StScorer scorer(&f.sim, {0.5, f.dataset.max_dist()});
  const RstknnSearcher searcher(&f.iur, &f.dataset, &scorer);
  const RstknnQuery q = f.SelfQuery(5, f.dataset.size() + 10);
  RstknnOptions options;
  options.publish_metrics = false;
  const RstknnResult serial = searcher.Search(q, options);
  EXPECT_EQ(serial.answers.size(), f.dataset.size() - 1);
  exec::ThreadPool pool(4);
  const RstknnResult fanned = searcher.Search(q, options, &pool);
  EXPECT_EQ(fanned.answers, serial.answers);
  ExpectStatsEqual(fanned.stats, serial.stats);
}

// Per-worker heatmaps merge into exactly the serial heatmap, node by node,
// and the totals reconcile with the query's stats.
TEST(FanoutTest, HeatmapMatchesSerialAndReconciles) {
  const Fixture& f = SharedFixture();
  const StScorer scorer(&f.sim, {0.5, f.dataset.max_dist()});
  const RstknnSearcher searcher(&f.ciur, &f.dataset, &scorer);
  const RstknnQuery q = f.SelfQuery(42, 6);

  obs::HeatmapRecorder serial_heatmap;
  RstknnOptions options;
  options.publish_metrics = false;
  options.heatmap = &serial_heatmap;
  const RstknnResult serial = searcher.Search(q, options);

  obs::HeatmapRecorder fanned_heatmap;
  options.heatmap = &fanned_heatmap;
  exec::ThreadPool pool(4);
  const RstknnResult fanned = searcher.Search(q, options, &pool);

  EXPECT_EQ(fanned_heatmap.ToJson(), serial_heatmap.ToJson());
  const Status reconciled = fanned_heatmap.CheckReconciles(
      fanned.stats.expansions, fanned.stats.pruned_entries,
      fanned.stats.reported_entries);
  EXPECT_TRUE(reconciled.ok()) << reconciled.ToString();
  EXPECT_GT(fanned_heatmap.decisions(), 0u);
}

// The contribution-list algorithm ignores the pool and runs on the caller,
// so it accepts the pool and still answers exactly.
TEST(FanoutTest, ContributionListRunsOnTheCaller) {
  const Fixture& f = SharedFixture();
  const StScorer scorer(&f.sim, {0.5, f.dataset.max_dist()});
  const RstknnSearcher searcher(&f.iur, &f.dataset, &scorer);
  const RstknnQuery q = f.SelfQuery(77, 5);
  RstknnOptions options;
  options.publish_metrics = false;
  options.algorithm = RstknnAlgorithm::kContributionList;
  const RstknnResult serial = searcher.Search(q, options);
  exec::ThreadPool pool(4);
  const RstknnResult pooled = searcher.Search(q, options, &pool);
  EXPECT_EQ(pooled.answers, BruteForceRstknn(f.dataset, scorer, q));
  ExpectStatsEqual(pooled.stats, serial.stats);
}

// Single-threaded instruments are rejected under a multi-thread pool. The
// pool is built inside each death statement, so the forked child owns it.
TEST(FanoutDeathTest, RejectsSingleThreadedInstruments) {
  const Fixture& f = SharedFixture();
  const StScorer scorer(&f.sim, {0.5, f.dataset.max_dist()});
  const RstknnSearcher searcher(&f.iur, &f.dataset, &scorer);
  const RstknnQuery q = f.SelfQuery(3, 5);
  auto search = [&](const RstknnOptions& options) {
    exec::ThreadPool pool(4);
    searcher.Search(q, options, &pool);
  };

  obs::ExplainRecorder explain;
  RstknnOptions with_explain;
  with_explain.explain = &explain;
  EXPECT_DEATH(search(with_explain), "EXPLAIN");

  obs::QueryTrace trace;
  RstknnOptions with_trace;
  with_trace.trace = &trace;
  EXPECT_DEATH(search(with_trace), "query traces");

  obs::PhaseProfiler profiler;
  RstknnOptions with_profiler;
  with_profiler.profiler = &profiler;
  EXPECT_DEATH(search(with_profiler), "phase profiler");

  BufferPool buffer_pool(&f.iur.page_store(), 64);
  RstknnOptions with_pool;
  with_pool.pool = &buffer_pool;
  EXPECT_DEATH(search(with_pool), "buffer pool");
}

}  // namespace
}  // namespace rst
