// RSTkNN parallelism, both ways over one read-only frozen tree:
//   * batch  — a serial per-query loop vs the rst::exec::BatchRunner at
//              1/2/4/8 threads over the core CIUR-tree (query-major: each
//              worker runs whole queries);
//   * fanout — single-query latency through RstknnSearcher::Search(q, opts,
//              &pool) at 1/2/4 threads (intra-query: each round of probe
//              candidates fans out across the pool; DESIGN.md §8.1).
// Both paths run the identical per-candidate decisions (answers and
// RstknnStats are identical by the determinism contracts, and asserted
// here), so any delta is pure execution-model overhead or parallel speedup.
//
// The fan-out series is ROADMAP item 3's decisive test: a GeoNames-like
// corpus, alpha = 0.9, k = 8, queries Zipf(1.2)-skewed toward one corner of
// the world (the workload the removed sharded index was measured on). It is
// recorded with RST_BENCH_FANOUT_OBJECTS=1000000 RST_BENCH_QUERIES=6 on a
// 4-core host — RSTkNN takes seconds per query at a million objects.
//
// Extra knobs (this binary only): RST_BENCH_FANOUT_OBJECTS — fan-out corpus
// size (default 20000); RST_BENCH_QUERIES — fan-out query count (default 6).
//
// Besides the console tables this writes BENCH_batch.json into the working
// directory: the measured series plus the host core count, because speedup
// numbers are meaningless without knowing how many cores backed them.

#include "bench_common.h"

#include <algorithm>
#include <cstdlib>
#include <set>
#include <thread>

#include "rst/common/file_util.h"
#include "rst/common/rng.h"
#include "rst/common/stopwatch.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/obs/json.h"

namespace {

struct Measurement {
  std::string mode;
  size_t threads = 1;
  double wall_ms = 0;
  double speedup = 1.0;
  size_t answers = 0;
  double p50_ms = 0;  // fanout only: median single-query latency
};

size_t EnvOr(const char* name, size_t fallback) {
  const char* value = std::getenv(name);
  return value != nullptr ? std::strtoull(value, nullptr, 10) : fallback;
}

double Median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

// Query ids Zipf-skewed toward the low-(x, y) corner: sample a candidate
// pool, sort it spatially, then Zipf-sample ranks so low ranks (corner
// objects) dominate. Deterministic in (dataset, seed).
std::vector<rst::ObjectId> ZipfSkewedQueries(const rst::Dataset& dataset,
                                             size_t count, uint64_t seed) {
  const size_t pool =
      std::min<size_t>(dataset.size(), std::max<size_t>(4096, count));
  std::vector<rst::ObjectId> candidates =
      rst::SampleQueryObjects(dataset, pool, seed);
  std::sort(candidates.begin(), candidates.end(),
            [&](rst::ObjectId a, rst::ObjectId b) {
              const rst::Point& pa = dataset.object(a).loc;
              const rst::Point& pb = dataset.object(b).loc;
              const double ka = pa.x + pa.y;
              const double kb = pb.x + pb.y;
              if (ka != kb) return ka < kb;
              return a < b;
            });
  rst::Rng rng(seed ^ 0xABCDEF);
  const rst::ZipfSampler zipf(candidates.size(), 1.2);
  std::set<rst::ObjectId> picked;
  while (picked.size() < std::min(count, candidates.size())) {
    picked.insert(candidates[zipf.Sample(&rng)]);
  }
  return {picked.begin(), picked.end()};
}

// The fan-out series: p50 single-query latency at 1/2/4 threads. Returns
// false (after printing why) if any thread count changes an answer set or a
// work counter.
bool RunFanoutSeries(std::vector<Measurement>* series, size_t* objects,
                     size_t* num_queries) {
  const size_t k = 8;
  const double alpha = 0.9;
  rst::GeoNamesLikeConfig config;
  config.num_objects = EnvOr("RST_BENCH_FANOUT_OBJECTS", 20000);
  config.seed = 3;
  std::printf("fanout: generating %zu objects...\n", config.num_objects);
  const rst::Dataset dataset =
      rst::GenGeoNamesLike(config, {rst::Weighting::kTfIdf, 0.1});
  rst::IurTreeOptions tree_options;
  tree_options.store_payloads = false;  // million-object memory honesty
  tree_options.build_threads = 4;       // any N builds the identical tree
  const rst::frozen::FrozenTree tree = rst::frozen::FrozenTree::Freeze(
      rst::IurTree::BuildFromDataset(dataset, tree_options));
  rst::TextSimilarity sim(rst::TextMeasure::kExtendedJaccard,
                          &dataset.corpus_max());
  rst::StScorer scorer(&sim, {alpha, dataset.max_dist()});
  const rst::RstknnSearcher searcher(&tree, &dataset, &scorer);

  std::vector<rst::RstknnQuery> queries;
  for (rst::ObjectId qid : ZipfSkewedQueries(
           dataset, EnvOr("RST_BENCH_QUERIES", 6), /*seed=*/7)) {
    const rst::StObject& q = dataset.object(qid);
    queries.push_back({q.loc, &q.doc, k, qid});
  }
  *objects = dataset.size();
  *num_queries = queries.size();

  std::vector<rst::RstknnResult> reference;
  for (size_t threads : {1, 2, 4}) {
    Measurement m;
    m.mode = "fanout";
    m.threads = threads;
    std::vector<double> latencies;
    bool mismatch = false;
    rst::exec::ThreadPool pool(threads);
    for (size_t rep = 0; rep < rst::bench::Reps(); ++rep) {
      m.answers = 0;
      for (size_t qi = 0; qi < queries.size() && !mismatch; ++qi) {
        rst::RstknnOptions options;
        options.publish_metrics = false;
        rst::Stopwatch timer;
        rst::RstknnResult r = searcher.Search(queries[qi], options, &pool);
        latencies.push_back(timer.ElapsedMillis());
        m.wall_ms += latencies.back();
        m.answers += r.answers.size();
        if (reference.size() < queries.size()) {
          reference.push_back(std::move(r));
        } else if (r.answers != reference[qi].answers ||
                   r.stats.bound_computations !=
                       reference[qi].stats.bound_computations ||
                   r.stats.io.node_reads !=
                       reference[qi].stats.io.node_reads) {
          std::fprintf(stderr,
                       "fanout mismatch: query %zu at %zu threads\n", qi,
                       threads);
          mismatch = true;
        }
      }
    }
    if (mismatch) return false;
    m.wall_ms /= static_cast<double>(rst::bench::Reps());
    m.p50_ms = Median(latencies);
    m.speedup = series->empty() || m.p50_ms <= 0
                    ? 1.0
                    : series->front().p50_ms / m.p50_ms;
    series->push_back(m);
    std::printf("  fanout %zu thread(s): p50 %.1f ms\n", threads, m.p50_ms);
  }
  return true;
}

}  // namespace

int main() {
  using namespace rst::bench;
  using rst::exec::BatchRunner;
  using rst::exec::ThreadPool;

  CoreParams params;
  params.num_queries = 32;  // enough per-query work to spread across workers
  const CoreEnv& env = CachedCoreEnv(params);
  rst::TextSimilarity sim(params.measure, &env.dataset.corpus_max());
  rst::StScorer scorer(&sim, {params.alpha, env.dataset.max_dist()});

  std::vector<rst::RstknnQuery> queries;
  queries.reserve(env.queries.size());
  for (rst::ObjectId qid : env.queries) {
    const rst::StObject& q = env.dataset.object(qid);
    queries.push_back({q.loc, &q.doc, params.k, qid});
  }

  const size_t reps = Reps();
  std::vector<Measurement> series;

  // Serial reference: the plain per-query loop every figure harness uses.
  {
    Measurement m;
    m.mode = "serial";
    const rst::RstknnSearcher searcher(&env.frozen_ciur, &env.dataset,
                                       &scorer);
    rst::Stopwatch timer;
    for (size_t rep = 0; rep < reps; ++rep) {
      m.answers = 0;
      for (const rst::RstknnQuery& q : queries) {
        m.answers += searcher.Search(q, {}).answers.size();
      }
    }
    m.wall_ms = timer.ElapsedMillis() / static_cast<double>(reps);
    series.push_back(m);
  }
  const double serial_ms = series[0].wall_ms;

  for (size_t threads : {1, 2, 4, 8}) {
    Measurement m;
    m.mode = "batch";
    m.threads = threads;
    ThreadPool pool(threads);
    const BatchRunner runner(&env.frozen_ciur, &env.dataset, &scorer,
                             &pool);
    rst::Stopwatch timer;
    for (size_t rep = 0; rep < reps; ++rep) {
      m.answers = 0;
      for (const rst::RstknnResult& r : runner.RunRstknn(queries, {})) {
        m.answers += r.answers.size();
      }
    }
    m.wall_ms = timer.ElapsedMillis() / static_cast<double>(reps);
    m.speedup = m.wall_ms > 0 ? serial_ms / m.wall_ms : 0.0;
    series.push_back(m);
  }

  std::vector<Measurement> fanout;
  size_t fanout_objects = 0;
  size_t fanout_queries = 0;
  if (!RunFanoutSeries(&fanout, &fanout_objects, &fanout_queries)) return 1;

  const unsigned cores = std::thread::hardware_concurrency();
  PrintTitle("micro_batch: batched RSTkNN throughput  (|D|=" +
             std::to_string(env.dataset.size()) + ", " +
             std::to_string(queries.size()) + " queries, k=" +
             std::to_string(params.k) + ", " + std::to_string(cores) +
             " core(s))");
  PrintHeader({"mode", "threads", "wall_ms", "speedup", "|ans|"});
  for (const Measurement& m : series) {
    PrintRow({m.mode, FmtInt(m.threads), Fmt(m.wall_ms), Fmt(m.speedup),
              FmtInt(m.answers)});
  }
  PrintTitle("micro_batch: single-query fan-out  (|D|=" +
             std::to_string(fanout_objects) + ", " +
             std::to_string(fanout_queries) +
             " Zipf-skewed queries, k=8, alpha=0.9)");
  PrintHeader({"mode", "threads", "p50_ms", "speedup", "|ans|"});
  for (const Measurement& m : fanout) {
    PrintRow({m.mode, FmtInt(m.threads), Fmt(m.p50_ms), Fmt(m.speedup),
              FmtInt(m.answers)});
  }
  std::printf(
      "\nNote: batch speedup is vs the serial per-query loop, fan-out speedup\n"
      "is p50 vs 1 thread; answers and work counters are identical across\n"
      "all rows by the determinism contracts. Speedup above 1 at N threads\n"
      "requires N physical cores.\n");

  rst::obs::JsonWriter writer;
  writer.BeginObject();
  writer.Key("figure");
  writer.String("micro_batch");
  writer.Key("env");
  AppendEnvJson(&writer);
  writer.Key("dataset_objects");
  writer.Uint(env.dataset.size());
  writer.Key("queries");
  writer.Uint(queries.size());
  writer.Key("k");
  writer.Uint(params.k);
  writer.Key("fanout_objects");
  writer.Uint(fanout_objects);
  writer.Key("fanout_queries");
  writer.Uint(fanout_queries);
  writer.Key("series");
  writer.BeginArray();
  series.insert(series.end(), fanout.begin(), fanout.end());
  for (const Measurement& m : series) {
    writer.BeginObject();
    writer.Key("mode");
    writer.String(m.mode);
    writer.Key("threads");
    writer.Uint(m.threads);
    writer.Key("wall_ms");
    writer.Double(m.wall_ms);
    writer.Key("speedup_vs_serial");
    writer.Double(m.speedup);
    if (m.mode == "fanout") {
      writer.Key("p50_ms");
      writer.Double(m.p50_ms);
    }
    writer.Key("answers");
    writer.Uint(m.answers);
    writer.EndObject();
  }
  writer.EndArray();
  writer.EndObject();
  if (rst::WriteStringToFileAtomic("BENCH_batch.json", writer.TakeString())
          .ok()) {
    std::printf("[series: BENCH_batch.json]\n");
  }

  EmitFigureMetrics("micro_batch");
  return 0;
}
