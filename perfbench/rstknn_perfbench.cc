// Seeded end-to-end benchmark of RSTkNN search, driven through the library's
// public API only (frozen searcher, IurTree build with Insert/Delete,
// BatchRunner, StScorer/TextSimilarity, span kernels).
//
//   rstknn_perfbench --workload NAME --seed N --seconds S --trace 0|1
//
// Load model: closed loop, kClients client threads in one process. Each
// client claims the next query from a shared cursor, calls
// RstknnSearcher::Search on the frozen tree with its own ProbeScratch and
// waits for the reply before claiming again. Every call is timed and every
// percentile comes from the raw per-query samples. One untimed warm-up pass
// runs before timing.
//
// Workloads (k = 10, queries are SampleQueryObjects picks with `self` set):
//   flickr_probe   — flickr-like 5k, CIUR (8 clusters), alpha 0.1, read-only.
//                    Text-dominated scores make competitor probes nearly all
//                    of the work; heavy-tailed per-query cost.
//   yelp_longdoc   — yelp-like 1k, IUR, alpha 0.5, read-only. ~150 terms per
//                    document, so the sorted-merge kernels and bound
//                    evaluators dominate.
//   geonames_churn — geonames-like 20k, IUR, alpha 0.9. Rounds of
//                    {Delete 200 sampled objects, re-Insert them at the same
//                    location, FinalizeStorage, Freeze, 32 queries on the new
//                    snapshot}: writes beside reads; the refresh counts in the
//                    wall time behind qps.
// The read-only corpora are sized so that a 30 s run completes several
// hundred queries on 4 cores; fewer make the percentiles too noisy.
//
// Every answer is checked after timing (see CheckAnswers). The last stdout
// line is one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "rst/common/stopwatch.h"
#include "rst/data/dataset.h"
#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/exec/thread_pool.h"
#include "rst/frozen/frozen.h"
#include "rst/iurtree/cluster.h"
#include "rst/iurtree/iurtree.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/phase_timer.h"
#include "rst/rstknn/rstknn.h"
#include "rst/text/similarity.h"
#include "rst/text/term_vector.h"

namespace {

using rst::Dataset;
using rst::IurTree;
using rst::ObjectId;
using rst::RstknnQuery;
using rst::RstknnResult;
using rst::RstknnStats;
using rst::Stopwatch;
using rst::frozen::FrozenTree;

constexpr size_t kClients = 4;
constexpr size_t kK = 10;
/// Index builds per run; setup_s is their median.
constexpr size_t kSetupReps = 9;
/// Distinct queries per run; a run that outlasts them repeats them.
constexpr size_t kQueryPool = 2000;
/// Warm-up queries per client, run untimed before the timed loop.
constexpr size_t kWarmupPerClient = 2;
/// Highest-Score(o, q) non-answers re-checked per query.
constexpr size_t kCheckedNonAnswers = kK;
/// Objects deleted and re-inserted per refresh round, and queries per round.
constexpr size_t kChurnObjects = 200;
constexpr size_t kChurnQueries = 32;
/// Refresh rounds the traced run of a read-only workload times on its
/// IurTree after the query loops.
constexpr size_t kReadOnlyRefreshRounds = 4;
/// Generator seed of every workload's corpus. The corpus is fixed, like a
/// real collection, because seeded corpora differ in query cost by more than
/// the benchmark's bounds; --seed picks the queries, the warm-up queries,
/// the refresh victims and the self-test corpus.
constexpr uint64_t kCorpusSeed = 1;

enum class Kind { kFlickr, kYelp, kGeoNames };

struct Workload {
  const char* name;
  Kind kind;
  size_t objects;
  uint32_t clusters;  ///< 0 = plain IUR-tree, otherwise CIUR-tree
  double alpha;
  bool churn;
  /// Leading queries that the traced run always completes: the exact
  /// rstknn.* counter means and the BatchRunner cross-check use them.
  size_t fixed_queries;
};

constexpr Workload kWorkloads[] = {
    {"flickr_probe", Kind::kFlickr, 5000, 8, 0.1, false, 32},
    {"yelp_longdoc", Kind::kYelp, 1000, 0, 0.5, false, 32},
    {"geonames_churn", Kind::kGeoNames, 20000, 0, 0.9, true, 2 * kChurnQueries},
};

const char* KindName(Kind kind) {
  switch (kind) {
    case Kind::kFlickr:
      return "flickr";
    case Kind::kYelp:
      return "yelp";
    case Kind::kGeoNames:
      return "geonames";
  }
  return "?";
}

Dataset MakeDataset(Kind kind, size_t objects, uint64_t seed) {
  const rst::WeightingOptions weighting;
  switch (kind) {
    case Kind::kFlickr: {
      rst::FlickrLikeConfig config;
      config.num_objects = objects;
      config.seed = seed;
      return rst::GenFlickrLike(config, weighting);
    }
    case Kind::kYelp: {
      rst::YelpLikeConfig config;
      config.num_objects = objects;
      config.seed = seed;
      return rst::GenYelpLike(config, weighting);
    }
    case Kind::kGeoNames: {
      rst::GeoNamesLikeConfig config;
      config.num_objects = objects;
      config.seed = seed;
      return rst::GenGeoNamesLike(config, weighting);
    }
  }
  return Dataset();
}

// ---------------------------------------------------------------------------
// Statistics over raw samples.

/// Linear interpolation between closest ranks over the raw samples.
double Quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double Median(const std::vector<double>& values) {
  return Quantile(values, 0.5);
}

double Mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (double v : values) sum += v;
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Index set-up: clustering (CIUR only) + IurTree build + Freeze.

struct SetupTiming {
  double cluster_ms = 0.0;
  double build_ms = 0.0;
  double freeze_ms = 0.0;
  double TotalSeconds() const {
    return (cluster_ms + build_ms + freeze_ms) / 1e3;
  }
};

struct Index {
  std::vector<uint32_t> cluster_of;  ///< empty for a plain IUR-tree
  std::optional<IurTree> tree;       ///< the dynamic tree; takes Insert/Delete
  FrozenTree snapshot;               ///< what queries search

  uint32_t ClusterOf(ObjectId id) const {
    return cluster_of.empty() ? IurTree::kNoCluster : cluster_of[id];
  }
};

Index BuildIndex(const Dataset& dataset, uint32_t clusters,
                 SetupTiming* timing) {
  Index index;
  Stopwatch watch;
  // The clustering stage is timed for every tree kind so that the three
  // stages always add up to setup_s; for a plain IUR-tree it is empty.
  if (clusters > 0) {
    std::vector<rst::TermVector> docs;
    docs.reserve(dataset.size());
    for (const rst::StObject& o : dataset.objects()) docs.push_back(o.doc);
    rst::ClusteringOptions options;
    options.num_clusters = clusters;
    index.cluster_of = rst::ClusterDocuments(docs, options).assignment;
  }
  timing->cluster_ms = watch.ElapsedMillis();
  watch.Restart();
  index.tree.emplace(IurTree::BuildFromDataset(
      dataset, {}, index.cluster_of.empty() ? nullptr : &index.cluster_of));
  timing->build_ms = watch.ElapsedMillis();
  watch.Restart();
  index.snapshot = FrozenTree::Freeze(*index.tree);
  timing->freeze_ms = watch.ElapsedMillis();
  return index;
}

// ---------------------------------------------------------------------------
// Refresh: Delete a sample of objects, re-Insert them at the same location,
// FinalizeStorage, Freeze. The object set is unchanged afterwards.

struct RefreshTiming {
  double total_ms = 0.0;   ///< first Delete until the new snapshot is ready
  double delete_us = 0.0;  ///< mean per Delete
  double insert_us = 0.0;  ///< mean per Insert
  double finalize_ms = 0.0;
};

/// Returns the number of failed operations.
size_t Refresh(const Dataset& dataset, const std::vector<ObjectId>& victims,
               Index* index, RefreshTiming* timing) {
  size_t failed = 0;
  Stopwatch total;
  Stopwatch watch;
  for (ObjectId id : victims) {
    if (!index->tree->Delete(id, dataset.object(id).loc).ok()) ++failed;
  }
  const double n = static_cast<double>(victims.size());
  timing->delete_us = watch.ElapsedMicros() / n;
  watch.Restart();
  for (ObjectId id : victims) {
    const rst::StObject& o = dataset.object(id);
    index->tree->Insert(id, o.loc, &o.doc, index->ClusterOf(id));
  }
  timing->insert_us = watch.ElapsedMicros() / n;
  watch.Restart();
  index->tree->FinalizeStorage();
  timing->finalize_ms = watch.ElapsedMillis();
  index->snapshot = FrozenTree::Freeze(*index->tree);
  timing->total_ms = total.ElapsedMillis();
  if (index->tree->size() != dataset.size()) ++failed;
  return failed;
}

std::vector<ObjectId> RefreshVictims(const Dataset& dataset, uint64_t seed,
                                     size_t round) {
  return rst::SampleQueryObjects(dataset, kChurnObjects,
                                 seed * 1000003ULL + 7919ULL * (round + 1));
}

// ---------------------------------------------------------------------------
// Closed-loop clients.

struct QueryRecord {
  double ms = 0.0;
  RstknnResult result;
  double phase_ms[rst::obs::kNumPhases] = {};
};

struct Env {
  const Workload* workload;
  const Dataset* dataset;
  const rst::StScorer* scorer;
  std::vector<RstknnQuery> pool;  ///< distinct queries, in the order sent

  /// The i-th query sent; the pool repeats when a run outlasts it.
  const RstknnQuery& Query(size_t i) const { return pool[i % pool.size()]; }
};

/// Sends queries begin, begin + 1, ... (up to `end`) to `snapshot`
/// from kClients clients. A client stops claiming once `deadline_s` on
/// `clock` has passed and at least `min_count` queries were claimed, so the
/// completed queries are always a prefix. Returns their records, in order.
std::vector<QueryRecord> RunClients(const Env& env, const FrozenTree& snapshot,
                                    size_t begin, size_t end, size_t min_count,
                                    const Stopwatch* clock, double deadline_s,
                                    bool profile) {
  const rst::RstknnSearcher searcher(&snapshot, env.dataset, env.scorer);
  std::atomic<size_t> cursor{begin};
  std::vector<std::vector<std::pair<size_t, QueryRecord>>> done(kClients);
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      rst::ProbeScratch scratch;
      rst::obs::PhaseProfiler profiler;
      rst::RstknnOptions options;
      options.scratch = &scratch;
      options.publish_metrics = false;
      if (profile) options.profiler = &profiler;
      for (;;) {
        const size_t i = cursor++;
        if (i >= end) break;
        if (i >= begin + min_count && clock != nullptr &&
            clock->ElapsedSeconds() >= deadline_s) {
          break;
        }
        QueryRecord record;
        const Stopwatch watch;
        record.result = searcher.Search(env.Query(i), options);
        record.ms = watch.ElapsedMillis();
        if (profile) {
          for (size_t p = 0; p < rst::obs::kNumPhases; ++p) {
            record.phase_ms[p] =
                profiler.total_ms(static_cast<rst::obs::Phase>(p));
          }
        }
        done[c].emplace_back(i, std::move(record));
      }
    });
  }
  for (std::thread& t : clients) t.join();
  size_t completed = 0;
  for (const auto& client : done) completed += client.size();
  std::vector<QueryRecord> records(completed);
  for (auto& client : done) {
    for (auto& [i, record] : client) records[i - begin] = std::move(record);
  }
  return records;
}

struct TimedPhase {
  double wall_s = 0.0;               ///< the time qps is measured over
  std::vector<QueryRecord> records;  ///< one per query sent, in order
  std::vector<RefreshTiming> refreshes;
  size_t updates = 0;
  size_t failed_updates = 0;
  /// Churn: the first query of the last round, which ran on the current
  /// snapshot.
  size_t last_round_begin = 0;
};

/// One timed closed-loop phase. Read-only workloads run pool queries until
/// the deadline; the churn workload runs rounds of a refresh followed by
/// kChurnQueries queries on the new snapshot, and the refresh counts in the
/// wall time. At least `min_queries` queries complete.
TimedPhase RunTimed(const Env& env, Index* index, double seconds,
                    size_t min_queries, bool profile, uint64_t seed) {
  TimedPhase phase;
  const Stopwatch clock;
  if (!env.workload->churn) {
    phase.records = RunClients(env, index->snapshot, 0, SIZE_MAX, min_queries,
                               &clock, seconds, profile);
    phase.wall_s = clock.ElapsedSeconds();
    return phase;
  }
  for (size_t round = 0;; ++round) {
    const size_t begin = round * kChurnQueries;
    if (begin >= min_queries && clock.ElapsedSeconds() >= seconds) break;
    RefreshTiming timing;
    phase.failed_updates +=
        Refresh(*env.dataset, RefreshVictims(*env.dataset, seed, round), index,
                &timing);
    phase.updates += 2 * kChurnObjects;
    phase.refreshes.push_back(timing);
    for (QueryRecord& record :
         RunClients(env, index->snapshot, begin, begin + kChurnQueries,
                    kChurnQueries, nullptr, 0.0, profile)) {
      phase.records.push_back(std::move(record));
    }
    phase.last_round_begin = begin;
  }
  phase.wall_s = clock.ElapsedSeconds();
  return phase;
}

// ---------------------------------------------------------------------------
// Answer checks.

/// The inner loop of BruteForceRstknn for one object: counts the objects
/// other than `o` and `query.self` strictly more similar to `o` than the
/// query is, stopping at k. `o` is an answer iff the count is below k.
bool IsAnswer(const Dataset& dataset, const rst::StScorer& scorer,
              const RstknnQuery& query, ObjectId id) {
  const rst::StObject& o = dataset.object(id);
  const double sim_q = scorer.Score(o.loc, o.doc, query.loc, *query.doc);
  size_t strictly_better = 0;
  for (const rst::StObject& other : dataset.objects()) {
    if (other.id == o.id || other.id == query.self) continue;
    if (scorer.Score(o.loc, o.doc, other.loc, other.doc) > sim_q &&
        ++strictly_better >= query.k) {
      return false;
    }
  }
  return true;
}

/// Checks one query's answers in O(|D|) per checked object: every returned
/// answer, and the kCheckedNonAnswers non-answers with the highest
/// Score(o, q) — the objects a search that misses answers most likely drops.
bool CheckAnswers(const Dataset& dataset, const rst::StScorer& scorer,
                  const RstknnQuery& query,
                  const std::vector<ObjectId>& answers) {
  for (size_t i = 0; i < answers.size(); ++i) {
    if (answers[i] >= dataset.size() || answers[i] == query.self) return false;
    if (i > 0 && answers[i] <= answers[i - 1]) return false;
    if (!IsAnswer(dataset, scorer, query, answers[i])) return false;
  }
  std::vector<std::pair<double, ObjectId>> others;
  others.reserve(dataset.size());
  for (const rst::StObject& o : dataset.objects()) {
    if (o.id == query.self ||
        std::binary_search(answers.begin(), answers.end(), o.id)) {
      continue;
    }
    others.emplace_back(scorer.Score(o.loc, o.doc, query.loc, *query.doc),
                        o.id);
  }
  const size_t take = std::min(kCheckedNonAnswers, others.size());
  std::partial_sort(others.begin(), others.begin() + take, others.end(),
                    [](const auto& a, const auto& b) {
                      return a.first > b.first ||
                             (a.first == b.first && a.second < b.second);
                    });
  for (size_t i = 0; i < take; ++i) {
    if (IsAnswer(dataset, scorer, query, others[i].second)) return false;
  }
  return true;
}

/// Checks every record in parallel; returns the number that fail. A query
/// the pool repeats must give the answers it gave when first sent, which is
/// checked in full.
size_t CountWrong(const Env& env, const std::vector<QueryRecord>& records,
                  rst::exec::ThreadPool* pool) {
  std::atomic<size_t> wrong{0};
  pool->ParallelFor(records.size(), 1, [&](size_t i, size_t /*worker*/) {
    const std::vector<ObjectId>& answers = records[i].result.answers;
    const bool ok =
        i < env.pool.size()
            ? CheckAnswers(*env.dataset, *env.scorer, env.Query(i), answers)
            : answers == records[i % env.pool.size()].result.answers;
    if (!ok) ++wrong;
  });
  return wrong.load();
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

void PrintResult(bool correct, size_t attempted, size_t failed,
                 const std::vector<Metric>& metrics) {
  rst::obs::JsonWriter w;
  w.BeginObject();
  w.Key("correct");
  w.Bool(correct);
  w.Key("attempted");
  w.Uint(attempted);
  w.Key("failed");
  w.Uint(failed);
  w.Key("metrics");
  w.BeginObject();
  for (const Metric& m : metrics) {
    w.Key(m.name);
    w.BeginObject();
    w.Key("value");
    w.Double(m.value);
    w.Key("unit");
    w.String(m.unit);
    w.EndObject();
  }
  w.EndObject();
  w.EndObject();
  std::printf("%s\n", w.str().c_str());
}

void PrintEnv(const Workload& workload, uint64_t seed, double seconds,
              bool trace) {
  rst::obs::JsonWriter w;
  w.BeginObject();
  w.Key("nproc");
  w.Uint(std::thread::hardware_concurrency());
  rst::obs::AppendProvenanceJson(&w);
  w.Key("RST_FORCE_SCALAR");
  const char* force = std::getenv("RST_FORCE_SCALAR");
  if (force == nullptr) {
    w.Null();
  } else {
    w.String(force);
  }
  w.Key("seed");
  w.Uint(seed);
  w.Key("seconds");
  w.Double(seconds);
  w.Key("trace");
  w.Bool(trace);
  w.Key("workload");
  w.BeginObject();
  w.Key("name");
  w.String(workload.name);
  w.Key("data");
  w.String(KindName(workload.kind));
  w.Key("objects");
  w.Uint(workload.objects);
  w.Key("index");
  w.String(workload.clusters > 0 ? "ciur" : "iur");
  w.Key("clusters");
  w.Uint(workload.clusters);
  w.Key("alpha");
  w.Double(workload.alpha);
  w.Key("k");
  w.Uint(kK);
  w.Key("clients");
  w.Uint(kClients);
  w.Key("churn_objects");
  w.Uint(workload.churn ? kChurnObjects : 0);
  w.Key("churn_queries");
  w.Uint(workload.churn ? kChurnQueries : 0);
  w.EndObject();
  w.EndObject();
  std::printf("env %s\n", w.str().c_str());
}

void PrintSamples(const char* name, const std::vector<double>& samples,
                  const char* unit) {
  std::printf("  %-28s p50 %.3f %s  p90 %.3f %s  max %.3f %s  (n=%zu)\n", name,
              Quantile(samples, 0.5), unit, Quantile(samples, 0.9), unit,
              samples.empty() ? 0.0
                              : *std::max_element(samples.begin(),
                                                  samples.end()),
              unit, samples.size());
}

// ---------------------------------------------------------------------------
// Layer timings for the traced run.

/// Keeps the timed calls' results observable so they are not optimized out.
volatile double g_sink = 0.0;

/// Nanoseconds per call of `fn(i)` over i in [0, count): repeats whole passes
/// for at least 200 ms and reports the median pass.
template <typename Fn>
double NsPerCall(size_t count, Fn fn) {
  std::vector<double> passes;
  double sink = 0.0;
  Stopwatch total;
  while (passes.size() < 3 || total.ElapsedMillis() < 200.0) {
    Stopwatch watch;
    for (size_t i = 0; i < count; ++i) sink += fn(i);
    passes.push_back(watch.ElapsedMicros() * 1e3 / static_cast<double>(count));
  }
  g_sink = sink;
  return Median(passes);
}

/// Checks CheckAnswers against the full BruteForceRstknn oracle on a small
/// dataset of the workload's kind: the searcher must match the oracle, the
/// check must accept the oracle's answers and reject any added non-answer.
/// A dropped answer is caught only when it ranks among the checked
/// non-answers, so that rate is reported, not required.
bool SelfTest(const Workload& workload, uint64_t seed) {
  const Dataset dataset = MakeDataset(workload.kind, 200, seed);
  SetupTiming timing;
  const Index index = BuildIndex(dataset, workload.clusters, &timing);
  const rst::TextSimilarity sim(rst::TextMeasure::kExtendedJaccard,
                                &dataset.corpus_max());
  const rst::StScorer scorer(&sim, {workload.alpha, dataset.max_dist()});
  const rst::RstknnSearcher searcher(&index.snapshot, &dataset, &scorer);
  bool ok = true;
  size_t dropped = 0;
  size_t dropped_caught = 0;
  for (ObjectId qid : rst::SampleQueryObjects(dataset, 6, seed + 1)) {
    const rst::StObject& q = dataset.object(qid);
    const RstknnQuery query{q.loc, &q.doc, kK, qid};
    const std::vector<ObjectId> oracle =
        rst::BruteForceRstknn(dataset, scorer, query);
    if (searcher.Search(query).answers != oracle ||
        !CheckAnswers(dataset, scorer, query, oracle)) {
      ok = false;
    }
    for (size_t drop = 0; drop < oracle.size(); ++drop) {
      std::vector<ObjectId> wrong = oracle;
      wrong.erase(wrong.begin() + static_cast<std::ptrdiff_t>(drop));
      ++dropped;
      if (!CheckAnswers(dataset, scorer, query, wrong)) ++dropped_caught;
    }
    size_t added = 0;
    for (const rst::StObject& o : dataset.objects()) {
      if (added == kCheckedNonAnswers) break;
      if (o.id == qid ||
          std::binary_search(oracle.begin(), oracle.end(), o.id)) {
        continue;
      }
      std::vector<ObjectId> wrong = oracle;
      wrong.insert(std::lower_bound(wrong.begin(), wrong.end(), o.id), o.id);
      ++added;
      if (CheckAnswers(dataset, scorer, query, wrong)) ok = false;
    }
  }
  std::printf("self-test on %zu objects: oracle match and added non-answers "
              "rejected: %s; dropped answers caught %zu/%zu\n",
              dataset.size(), ok ? "yes" : "NO", dropped_caught, dropped);
  return ok;
}

int Run(const Workload& workload, uint64_t seed, double seconds, bool trace) {
  PrintEnv(workload, seed, seconds, trace);
  size_t attempted = 1;
  size_t failed = SelfTest(workload, seed) ? 0 : 1;

  rst::exec::ThreadPool pool(kClients);  // answer checks and BatchRunner
  const Dataset dataset =
      MakeDataset(workload.kind, workload.objects, kCorpusSeed);
  const rst::TextSimilarity sim(rst::TextMeasure::kExtendedJaccard,
                                &dataset.corpus_max());
  const rst::StScorer scorer(&sim, {workload.alpha, dataset.max_dist()});

  // Set-up, kSetupReps times; the last index is the one searched.
  std::vector<double> setup_s, cluster_ms, build_ms, freeze_ms;
  Index index;
  for (size_t rep = 0; rep < kSetupReps; ++rep) {
    SetupTiming timing;
    index = Index();
    index = BuildIndex(dataset, workload.clusters, &timing);
    setup_s.push_back(timing.TotalSeconds());
    cluster_ms.push_back(timing.cluster_ms);
    build_ms.push_back(timing.build_ms);
    freeze_ms.push_back(timing.freeze_ms);
  }

  auto make_queries = [&](size_t count, uint64_t query_seed) {
    std::vector<RstknnQuery> queries;
    for (ObjectId id : rst::SampleQueryObjects(dataset, count, query_seed)) {
      const rst::StObject& q = dataset.object(id);
      queries.push_back({q.loc, &q.doc, kK, id});
    }
    return queries;
  };
  const Env env{&workload, &dataset, &scorer,
                make_queries(kQueryPool, seed + 1)};

  // Untimed warm-up pass on queries of their own.
  const Env warm{&workload, &dataset, &scorer,
                 make_queries(kClients * kWarmupPerClient, seed + 2)};
  RunClients(warm, index.snapshot, 0, warm.pool.size(), warm.pool.size(),
             nullptr, 0.0, trace);

  // The traced run splits its time between an untraced and a traced loop
  // that start from the same index state, to measure the tracing overhead.
  const size_t min_queries = trace ? workload.fixed_queries : 0;
  const double loop_seconds = trace ? seconds / 2 : seconds;
  Index fresh;
  if (trace && workload.churn) {
    SetupTiming unused;
    fresh = BuildIndex(dataset, workload.clusters, &unused);
  }
  const TimedPhase timed =
      RunTimed(env, &index, loop_seconds, min_queries, false, seed);
  const double peak_rss_mb = PeakRssMb();
  attempted += timed.records.size() + timed.updates;
  failed += timed.failed_updates + CountWrong(env, timed.records, &pool);
  const double qps = static_cast<double>(timed.records.size()) / timed.wall_s;
  std::vector<double> latency;
  for (const QueryRecord& record : timed.records) latency.push_back(record.ms);
  std::vector<Metric> metrics;
  if (trace) {
    std::vector<RefreshTiming> refreshes = timed.refreshes;
    if (workload.churn) index = std::move(fresh);
    const TimedPhase t =
        RunTimed(env, &index, loop_seconds, min_queries, true, seed);
    attempted += t.records.size() + t.updates;
    failed += t.failed_updates + CountWrong(env, t.records, &pool);
    refreshes.insert(refreshes.end(), t.refreshes.begin(), t.refreshes.end());
    const double traced_qps =
        static_cast<double>(t.records.size()) / t.wall_s;

    // Exact work counters over the fixed leading queries.
    RstknnStats total;
    for (size_t i = 0; i < workload.fixed_queries; ++i) {
      total.Merge(t.records[i].result.stats);
    }
    const double n = static_cast<double>(workload.fixed_queries);
    auto per_query = [n](uint64_t v) { return static_cast<double>(v) / n; };

    auto phase_mean = [&](rst::obs::Phase p) {
      double sum = 0.0;
      for (const QueryRecord& record : t.records) {
        sum += record.phase_ms[static_cast<size_t>(p)];
      }
      return sum / static_cast<double>(t.records.size());
    };

    // BatchRunner over the same queries on the same snapshot: the read-only
    // workloads' fixed prefix, the churn workload's last round. Answers and
    // stats must equal the client loop's.
    const size_t batch_begin = workload.churn ? t.last_round_begin : 0;
    const size_t batch_count =
        workload.churn ? kChurnQueries : workload.fixed_queries;
    std::vector<RstknnQuery> batch_queries;
    for (size_t i = 0; i < batch_count; ++i) {
      batch_queries.push_back(env.Query(batch_begin + i));
    }
    const rst::exec::BatchRunner runner(&index.snapshot, &dataset, &scorer,
                                        &pool);
    rst::exec::BatchStats batch;
    Stopwatch batch_watch;
    const std::vector<RstknnResult> batch_results =
        runner.RunRstknn(batch_queries, {}, &batch);
    const double batch_qps =
        static_cast<double>(batch_count) / batch_watch.ElapsedSeconds();
    size_t mismatched = 0;
    for (size_t i = 0; i < batch_count; ++i) {
      const RstknnResult& client = t.records[batch_begin + i].result;
      if (batch_results[i].answers != client.answers ||
          !(rst::exec::ToJournalStats(batch_results[i].stats) ==
            rst::exec::ToJournalStats(client.stats))) {
        ++mismatched;
      }
    }
    attempted += batch_count;
    failed += mismatched;
    const double busy_max = *std::max_element(batch.worker_busy_ms.begin(),
                                              batch.worker_busy_ms.end());

    // Kernel and pair-bound timings over the fixed queries: DotSpan against
    // every object document, MaxScore/MinScore against every frozen entry.
    const FrozenTree& snap = index.snapshot;
    const size_t nq = workload.fixed_queries;
    const size_t no = dataset.size();
    const double dot_ns = NsPerCall(nq * no, [&](size_t i) {
      const rst::TermVector& a = *env.pool[i / no].doc;
      const rst::TermVector& b = dataset.object(i % no).doc;
      return rst::DotSpan(a.entries().data(), a.size(), b.entries().data(),
                          b.size());
    });
    std::vector<rst::Rect> qrect;
    std::vector<rst::TextSummary> qsum;
    for (size_t i = 0; i < nq; ++i) {
      qrect.push_back(rst::Rect::FromPoint(env.pool[i].loc));
      qsum.push_back(rst::TextSummary::FromDoc(*env.pool[i].doc));
    }
    const size_t ne = snap.num_entries();
    auto bound_ns = [&](bool upper) {
      return NsPerCall(nq * ne, [&](size_t i) {
        const size_t q = i / ne;
        const uint32_t e = static_cast<uint32_t>(i % ne);
        const rst::SummarySpan qs = rst::AsSpan(qsum[q]);
        return upper ? scorer.MaxScore(snap.EntryRect(e), snap.Summary(e),
                                       qrect[q], qs)
                     : scorer.MinScore(snap.EntryRect(e), snap.Summary(e),
                                       qrect[q], qs);
      });
    };
    const double max_ns = bound_ns(true);
    const double min_ns = bound_ns(false);

    std::printf("traced loop: %zu queries in %.3f s (%.4f 1/s); batch of %zu: "
                "%zu mismatches\n",
                t.records.size(), t.wall_s, traced_qps, batch_count,
                mismatched);
    metrics = {
        {"simd.dot_ns", dot_ns, "ns"},
        {"bounds.max_ns", max_ns, "ns"},
        {"bounds.min_ns", min_ns, "ns"},
        {"rstknn.bound_computations", per_query(total.bound_computations),
         "count"},
        {"rstknn.probes", per_query(total.probes), "count"},
        {"rstknn.pq_pops", per_query(total.pq_pops), "count"},
        {"rstknn.expansions", per_query(total.expansions), "count"},
        {"rstknn.entries_created", per_query(total.entries_created), "count"},
        {"rstknn.pruned_entries", per_query(total.pruned_entries), "count"},
        {"rstknn.reported_entries", per_query(total.reported_entries),
         "count"},
        {"rstknn.io.node_reads", per_query(total.io.node_reads), "count"},
        {"rstknn.io.payload_bytes", per_query(total.io.payload_bytes),
         "bytes"},
        {"rstknn.decided_frac",
         static_cast<double>(total.pruned_entries + total.reported_entries) /
             static_cast<double>(total.entries_created),
         "ratio"},
        {"rstknn.phase.bounds_ms", phase_mean(rst::obs::Phase::kBounds), "ms"},
        {"rstknn.phase.descent_ms", phase_mean(rst::obs::Phase::kDescent),
         "ms"},
        {"rstknn.phase.finalize_ms", phase_mean(rst::obs::Phase::kFinalize),
         "ms"},
        {"exec.batch_qps", batch_qps, "1/s"},
        {"exec.busy_imbalance", busy_max / Mean(batch.worker_busy_ms),
         "ratio"},
        {"trace.overhead_frac", 1.0 - traced_qps / qps, "ratio"},
    };

    // Read-only workloads time the refresh path after their query loops.
    for (size_t round = 0; !workload.churn && round < kReadOnlyRefreshRounds;
         ++round) {
      RefreshTiming timing;
      failed += Refresh(dataset, RefreshVictims(dataset, seed, round), &index,
                        &timing);
      attempted += 2 * kChurnObjects;
      refreshes.push_back(timing);
    }
    std::vector<double> refresh_ms, delete_us, insert_us, finalize_ms;
    for (const RefreshTiming& r : refreshes) {
      refresh_ms.push_back(r.total_ms);
      delete_us.push_back(r.delete_us);
      insert_us.push_back(r.insert_us);
      finalize_ms.push_back(r.finalize_ms);
    }
    metrics.insert(
        metrics.end(),
        {
            {"iurtree.cluster_ms", Median(cluster_ms), "ms"},
            {"iurtree.build_ms", Median(build_ms), "ms"},
            {"frozen.freeze_ms", Median(freeze_ms), "ms"},
            {"refresh_ms.p50", Median(refresh_ms), "ms"},
            {"iurtree.delete_us", Median(delete_us), "us"},
            {"iurtree.insert_us", Median(insert_us), "us"},
            {"iurtree.finalize_ms", Median(finalize_ms), "ms"},
            {"iurtree.nodes", static_cast<double>(index.tree->NodeCount()),
             "count"},
            {"frozen.index_bytes",
             static_cast<double>(index.snapshot.IndexBytes()), "bytes"},
        });
  } else {
    metrics = {
        {"qps", qps, "1/s"},
        {"query_ms.p50", Quantile(latency, 0.5), "ms"},
        {"query_ms.p90", Quantile(latency, 0.9), "ms"},
        {"setup_s", Median(setup_s), "s"},
        {"peak_rss_mb", peak_rss_mb, "MB"},
    };
  }

  std::printf("workload %s: %zu queries in %.3f s, %zu updates\n",
              workload.name, timed.records.size(), timed.wall_s, timed.updates);
  std::printf("  %-28s %.4f 1/s\n", "qps", qps);
  PrintSamples("query_ms", latency, "ms");
  PrintSamples("setup_s", setup_s, "s");
  std::vector<double> round_ms;
  for (const RefreshTiming& r : timed.refreshes) round_ms.push_back(r.total_ms);
  if (!round_ms.empty()) PrintSamples("refresh_ms", round_ms, "ms");
  std::printf("  %-28s %.1f MB\n", "peak_rss_mb", peak_rss_mb);
  std::printf("  %-28s %.6f (%zu of %zu operations)\n", "failed_frac",
              static_cast<double>(failed) / static_cast<double>(attempted),
              failed, attempted);
  for (const Metric& m : metrics) {
    std::printf("  %-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  PrintResult(failed == 0, attempted, failed, metrics);
  return 0;
}

void Usage() {
  std::fprintf(stderr,
               "usage: rstknn_perfbench --workload NAME --seed N --seconds S "
               "--trace 0|1\nworkloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload_name;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (value == nullptr) {
      Usage();
      return 2;
    } else if (arg == "--workload") {
      workload_name = value;
      ++i;
    } else if (arg == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
      ++i;
    } else if (arg == "--seconds") {
      seconds = std::strtod(value, nullptr);
      ++i;
    } else if (arg == "--trace") {
      trace = std::strcmp(value, "0") != 0;
      ++i;
    } else {
      Usage();
      return 2;
    }
  }
  if (!(seconds > 0.0)) {
    Usage();
    return 2;
  }
  for (const Workload& w : kWorkloads) {
    if (workload_name == w.name) return Run(w, seed, seconds, trace);
  }
  Usage();
  return 2;
}
