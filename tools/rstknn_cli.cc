// rstknn_cli — command-line front end for the library, operating on the
// CSV/TSV interchange formats of rst/data/csv.h.
//
//   rstknn_cli gen      --kind flickr|yelp|geonames --objects N --out F
//   rstknn_cli genusers --data F --num N --ul K --uw W --area A --out F2
//   rstknn_cli stats    --data F
//   rstknn_cli topk     --data F --x X --y Y --keywords "1 2 3" --k K
//   rstknn_cli rstknn   --data F (--id QID | --x X --y Y --keywords "...") --k K
//                       builds the IUR-tree, freezes it into the flat-layout
//                       snapshot (rst::frozen) and answers over the snapshot;
//                       batch mode: --ids "3 5 7" [--threads N] evaluates
//                       the listed query objects through the rst::exec
//                       BatchRunner (N >= 1 concurrent workers, default 1)
//                       and prints "<query_id>\t<answer_id>" per answer;
//                       results are identical to running each id serially.
//   rstknn_cli maxbrst  --data F --users F2 --locations "x:y;x:y"
//                       --keywords "1 2 3" --ws W --k K [--method exact]
//
// topk, rstknn and maxbrst each build the IUR-tree and query its frozen
// snapshot (rst::frozen), the one layout every query reads.
//
// Common flags: --alpha A (0.5; a number in [0, 1], else exit 2),
// --measure ej|cos|sum (ej; sum for maxbrst), --weighting tfidf|lm|binary
// (tfidf), --seed S.
//
// Observability flags (topk / rstknn / maxbrst):
//   --trace             print the per-phase span tree of the query to stderr
//   --metrics-out FILE  write a JSON artifact: {"command", "metrics"
//                       (registry snapshot: counters/gauges/histograms),
//                       "trace" (span tree), "explain" (with --explain),
//                       "slow_log" (with --slow-log-ms)}. For rstknn this
//                       also switches node accesses to real reads through a
//                       buffer pool, so storage.buffer_pool.{hits,misses}
//                       are genuine.
//   --pool-pages N      buffer-pool capacity in 4 KiB pages (default 256)
//
// Frozen-index flags (rstknn only):
//   --save-index FILE   freeze and persist the snapshot (versioned format);
//                       with no query flags (--id/--ids/--keywords) the
//                       command exits after saving
//   --load-index FILE   answer over a previously saved snapshot instead of
//                       rebuilding the tree (--data must still name the
//                       dataset the index was built from)
//   --build-threads N   worker threads (N >= 1) for the STR bulk-load slab
//                       sorts (default 1; any N produces the identical tree)
//   --check-invariants  run the deep structural validation (DESIGN.md §11.2)
//                       over the index before answering — summary domination,
//                       tight MBRs, level leaves, cluster partitions; exits
//                       non-zero with the precise violation on corruption
//
// Profiling flags (rstknn; DESIGN.md §12):
//   --profile           attribute each query's wall time into the fixed phase
//                       set (descent / bounds / merge / io / finalize) and
//                       publish rstknn.phase.* latency histograms; serial
//                       runs also print the per-phase table to stderr and
//                       embed it in the --metrics-out artifact
//   --trace-out FILE    write Chrome trace-event JSON (open in Perfetto or
//                       chrome://tracing): per-worker run / queue-wait
//                       timelines in batch mode, the query's span tree
//                       serially
//   --trace-sample N    in batch mode, keep the full span tree of every N-th
//                       query in the trace-event output (default 1 = all)
//   --telemetry-ms N    sample process runtime telemetry (RSS, page faults,
//                       CPU time, thread count) every N ms into runtime.*
//                       gauges, visible in the --metrics-out snapshot
//
// EXPLAIN / slow-query flags (rstknn only):
//   --explain           print the per-level branch-and-bound decision
//                       summary (which bound fired, prune/expand/report) to
//                       stderr and embed it in the --metrics-out artifact
//   --explain-log N     also keep the first N raw decisions (0 = summary
//                       only, the default)
//   --algo probe|cl     algorithm realization: competitor probes (default)
//                       or the 2011 contribution-list scheme
//   --slow-log-ms X     capture queries slower than X ms (trace + explain
//                       summary) into an in-process ring buffer
//   --slow-log-out FILE write the captured slow queries as JSON
//
// Workload capture / heatmap flags (rstknn only; DESIGN.md §14):
//   --journal-out FILE  append every executed query to a crash-atomic JSONL
//                       workload journal (query object, wall/phase timings,
//                       stats, FNV-1a64 answer digest) replayable with
//                       tools/rst_replay
//   --journal-sample N  record every N-th query by batch index (default 1)
//   --heatmap-out FILE  accumulate per-node visit/prune/expand/report
//                       counters across the run (merged across workers in
//                       batch mode) and write the heatmap JSON; exits
//                       non-zero if the totals fail to reconcile exactly
//                       with the summed RstknnStats
//
// Output-file errors (--metrics-out / --slow-log-out on an unwritable path)
// exit non-zero with the underlying Status message.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/data/csv.h"
#include "rst/data/generators.h"
#include "rst/exec/batch_runner.h"
#include "rst/frozen/frozen.h"
#include "rst/maxbrst/maxbrst.h"
#include "rst/obs/explain.h"
#include "rst/obs/heatmap.h"
#include "rst/obs/journal.h"
#include "rst/obs/json.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/metrics.h"
#include "rst/obs/phase_timer.h"
#include "rst/obs/runtime.h"
#include "rst/obs/slow_log.h"
#include "rst/obs/trace.h"
#include "rst/obs/trace_event.h"
#include "rst/rstknn/rstknn.h"

namespace rst {
namespace {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 2; i < argc;) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        std::fprintf(stderr, "expected --flag [value], got '%s'\n", argv[i]);
        std::exit(2);
      }
      // A flag followed by another --flag (or nothing) is boolean, e.g.
      // --trace.
      if (i + 1 < argc && std::strncmp(argv[i + 1], "--", 2) != 0) {
        values_[argv[i] + 2] = argv[i + 1];
        i += 2;
      } else {
        values_[argv[i] + 2] = "1";
        i += 1;
      }
    }
  }

  std::string Get(const std::string& name, const std::string& fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
  }
  double GetDouble(const std::string& name, double fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtod(it->second.c_str(), nullptr);
  }
  long GetInt(const std::string& name, long fallback) const {
    auto it = values_.find(name);
    return it == values_.end() ? fallback : std::strtol(it->second.c_str(), nullptr, 10);
  }
  bool Has(const std::string& name) const { return values_.count(name) > 0; }

 private:
  std::map<std::string, std::string> values_;
};

/// Reads a worker-count flag (absent = 1). A count below 1 prints the usage
/// error and yields nullopt; the caller exits 2.
std::optional<size_t> GetThreadCount(const Flags& flags,
                                     const std::string& name) {
  const long n = flags.GetInt(name, 1);
  if (n < 1) {
    std::fprintf(stderr, "--%s must be at least 1 (got %s)\n", name.c_str(),
                 flags.Get(name, "").c_str());
    return std::nullopt;
  }
  return static_cast<size_t>(n);
}

/// --alpha weighs space against text. Outside [0, 1] the blended bounds stop
/// bracketing scores and searches return wrong answers, so a non-numeric or
/// out-of-range value prints the usage error and yields false; the caller
/// exits 2.
bool AlphaValid(const Flags& flags) {
  if (!flags.Has("alpha")) return true;
  const std::string value = flags.Get("alpha", "");
  char* end = nullptr;
  const double alpha = std::strtod(value.c_str(), &end);
  if (end != value.c_str() && *end == '\0' && alpha >= 0.0 && alpha <= 1.0) {
    return true;
  }
  std::fprintf(stderr, "--alpha must be a number in [0, 1] (got %s)\n",
               value.c_str());
  return false;
}

std::vector<TermId> ParseTerms(const std::string& s) {
  std::vector<TermId> out;
  std::istringstream in(s);
  std::string tok;
  while (in >> tok) out.push_back(static_cast<TermId>(std::stoul(tok)));
  return out;
}

std::vector<Point> ParseLocations(const std::string& s) {
  std::vector<Point> out;
  std::istringstream in(s);
  std::string pair;
  while (std::getline(in, pair, ';')) {
    const size_t colon = pair.find(':');
    if (colon == std::string::npos) continue;
    out.push_back({std::strtod(pair.substr(0, colon).c_str(), nullptr),
                   std::strtod(pair.substr(colon + 1).c_str(), nullptr)});
  }
  return out;
}

/// Observability switches shared by the query commands.
struct ObsFlags {
  bool trace = false;           ///< print the span tree to stderr
  std::string metrics_out;      ///< JSON artifact path ("" = off)
  size_t pool_pages = 256;
  bool explain = false;         ///< record + print branch-and-bound decisions
  size_t explain_log = 0;       ///< raw decision-log cap (0 = summary only)
  double slow_log_ms = -1.0;    ///< capture threshold (< 0 = off)
  std::string slow_log_out;     ///< slow-query JSON path ("" = stderr note)
  bool profile = false;         ///< per-phase latency attribution
  std::string trace_out;        ///< Chrome trace-event JSON path ("" = off)
  uint64_t trace_sample = 1;    ///< span tree of every N-th batch query
  long telemetry_ms = -1;       ///< runtime sampling period (< 0 = off)
  std::string journal_out;      ///< workload-journal JSONL path ("" = off)
  uint64_t journal_sample = 1;  ///< journal every N-th query by index
  std::string heatmap_out;      ///< index-heatmap JSON path ("" = off)

  explicit ObsFlags(const Flags& flags)
      : trace(flags.Has("trace")),
        metrics_out(flags.Get("metrics-out", "")),
        pool_pages(static_cast<size_t>(flags.GetInt("pool-pages", 256))),
        explain(flags.Has("explain")),
        explain_log(static_cast<size_t>(flags.GetInt("explain-log", 0))),
        slow_log_ms(flags.Has("slow-log-ms") ? flags.GetDouble("slow-log-ms", 0)
                                             : -1.0),
        slow_log_out(flags.Get("slow-log-out", "")),
        profile(flags.Has("profile")),
        trace_out(flags.Get("trace-out", "")),
        trace_sample(static_cast<uint64_t>(flags.GetInt("trace-sample", 1))),
        telemetry_ms(flags.Has("telemetry-ms") ? flags.GetInt("telemetry-ms", 1)
                                               : -1),
        journal_out(flags.Get("journal-out", "")),
        journal_sample(static_cast<uint64_t>(
            std::max(1L, flags.GetInt("journal-sample", 1)))),
        heatmap_out(flags.Get("heatmap-out", "")) {}

  bool tracing() const {
    return trace || !metrics_out.empty() || !trace_out.empty();
  }
  bool slow_logging() const { return slow_log_ms >= 0.0; }
};

/// Finishes the trace and emits the requested artifacts: the span tree on
/// stderr (--trace), the combined JSON file (--metrics-out) holding the full
/// registry snapshot of this process plus the span tree (and, when recorded,
/// the explain report and slow-query log), and the standalone slow-query
/// file (--slow-log-out). Unwritable paths exit non-zero with the Status
/// message.
int EmitObsArtifacts(const ObsFlags& obs_flags, const std::string& command,
                     obs::QueryTrace* trace,
                     const obs::ExplainRecorder* explain = nullptr,
                     const obs::SlowQueryLog* slow_log = nullptr,
                     const obs::PhaseProfiler* profiler = nullptr,
                     const obs::TraceEventWriter* trace_events = nullptr) {
  if (obs_flags.tracing()) trace->Finish();
  if (obs_flags.trace) {
    std::fprintf(stderr, "%s", trace->ToString().c_str());
  }
  if (!obs_flags.metrics_out.empty()) {
    obs::JsonWriter writer;
    writer.BeginObject();
    writer.Key("command");
    writer.String(command);
    writer.Key("metrics");
    obs::MetricRegistry::Global().Snapshot().AppendJson(&writer);
    writer.Key("trace");
    trace->AppendJson(&writer);
    if (profiler != nullptr) {
      writer.Key("phases");
      profiler->AppendJson(&writer);
    }
    if (explain != nullptr) {
      writer.Key("explain");
      explain->AppendJson(&writer);
    }
    if (slow_log != nullptr) {
      writer.Key("slow_log");
      slow_log->AppendJson(&writer);
    }
    writer.EndObject();
    const Status s =
        WriteStringToFileAtomic(obs_flags.metrics_out, writer.str());
    if (!s.ok()) {
      std::fprintf(stderr, "--metrics-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n",
                 obs_flags.metrics_out.c_str());
  }
  if (!obs_flags.trace_out.empty() && trace_events != nullptr) {
    const Status s = trace_events->WriteFile(obs_flags.trace_out);
    if (!s.ok()) {
      std::fprintf(stderr, "--trace-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace events (%zu kept, %llu dropped) written to %s\n",
                 trace_events->size(),
                 static_cast<unsigned long long>(trace_events->dropped()),
                 obs_flags.trace_out.c_str());
  }
  if (!obs_flags.slow_log_out.empty() && slow_log != nullptr) {
    const Status s = WriteStringToFileAtomic(obs_flags.slow_log_out,
                                             slow_log->ToJson());
    if (!s.ok()) {
      std::fprintf(stderr, "--slow-log-out: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "slow-query log (%llu captured) written to %s\n",
                 static_cast<unsigned long long>(slow_log->captured()),
                 obs_flags.slow_log_out.c_str());
  }
  return 0;
}

WeightingOptions ParseWeighting(const Flags& flags) {
  const std::string w = flags.Get("weighting", "tfidf");
  if (w == "lm") return {Weighting::kLanguageModel, 0.1};
  if (w == "binary") return {Weighting::kBinary, 0.1};
  return {Weighting::kTfIdf, 0.1};
}

TextMeasure ParseMeasure(const Flags& flags, TextMeasure fallback) {
  const std::string m = flags.Get("measure", "");
  if (m == "ej") return TextMeasure::kExtendedJaccard;
  if (m == "cos") return TextMeasure::kCosine;
  if (m == "sum") return TextMeasure::kSum;
  return fallback;
}

RstknnAlgorithm ParseAlgorithm(const Flags& flags) {
  const std::string a = flags.Get("algo", "probe");
  if (a == "cl" || a == "contribution-list") {
    return RstknnAlgorithm::kContributionList;
  }
  return RstknnAlgorithm::kProbe;
}

/// Capture context for a workload journal (DESIGN.md §14): everything
/// rst_replay needs to rebuild the same index and scorer, normalized to the
/// CLI's own flag vocabulary.
obs::JournalHeader MakeJournalHeader(const Flags& flags,
                                     const std::string& label,
                                     uint64_t threads,
                                     uint64_t sample_every) {
  obs::JournalHeader header;
  header.label = label;
  header.data = flags.Get("data", "objects.csv");
  header.algo = ParseAlgorithm(flags) == RstknnAlgorithm::kContributionList
                    ? "contribution_list"
                    : "probe";
  header.view = "frozen";  // every search runs over a frozen tree
  header.tree = "iur";  // the CLI builds an unclustered IUR-tree
  header.measure = flags.Get("measure", "ej");
  header.weighting = flags.Get("weighting", "tfidf");
  header.alpha = flags.GetDouble("alpha", 0.5);
  header.threads = threads;
  header.sample_every = sample_every;
  return header;
}

/// Writes the heatmap JSON after verifying its totals reconcile exactly with
/// the summed per-query stats; any mismatch or write failure is fatal so
/// scripted runs can gate on it (same contract as the CI counter gate).
int EmitHeatmap(const std::string& path, const obs::HeatmapRecorder& heatmap,
                const RstknnStats& total) {
  const Status reconciled = heatmap.CheckReconciles(
      total.expansions, total.pruned_entries, total.reported_entries);
  if (!reconciled.ok()) {
    std::fprintf(stderr, "--heatmap-out: %s\n", reconciled.ToString().c_str());
    return 1;
  }
  const Status s = WriteStringToFileAtomic(path, heatmap.ToJson());
  if (!s.ok()) {
    std::fprintf(stderr, "--heatmap-out: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr,
               "heatmap (%llu queries, %llu decisions over %zu nodes) written "
               "to %s\n",
               static_cast<unsigned long long>(heatmap.queries()),
               static_cast<unsigned long long>(heatmap.decisions()),
               heatmap.nodes().size(), path.c_str());
  return 0;
}

/// Closes the journal and reports it; a latched append error is fatal.
int FinishJournal(obs::WorkloadRecorder* journal, const std::string& path) {
  const uint64_t recorded = journal->recorded();
  const Status s = journal->Close();
  if (!s.ok()) {
    std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "workload journal (%llu records) written to %s\n",
               static_cast<unsigned long long>(recorded), path.c_str());
  return 0;
}

int CmdGen(const Flags& flags) {
  const std::string kind = flags.Get("kind", "flickr");
  const size_t n = static_cast<size_t>(flags.GetInt("objects", 10000));
  const uint64_t seed = static_cast<uint64_t>(flags.GetInt("seed", 1));
  const WeightingOptions weighting = ParseWeighting(flags);
  Dataset dataset;
  if (kind == "yelp") {
    YelpLikeConfig config;
    config.num_objects = n;
    config.seed = seed;
    dataset = GenYelpLike(config, weighting);
  } else if (kind == "geonames") {
    GeoNamesLikeConfig config;
    config.num_objects = n;
    config.seed = seed;
    dataset = GenGeoNamesLike(config, weighting);
  } else {
    FlickrLikeConfig config;
    config.num_objects = n;
    config.seed = seed;
    dataset = GenFlickrLike(config, weighting);
  }
  const std::string out = flags.Get("out", "objects.csv");
  const Status s = SaveDatasetIds(dataset, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu %s-like objects to %s\n", dataset.size(),
              kind.c_str(), out.c_str());
  return 0;
}

Result<Dataset> LoadData(const Flags& flags) {
  return LoadDatasetIds(flags.Get("data", "objects.csv"),
                        ParseWeighting(flags));
}

int CmdGenUsers(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  UserGenConfig config;
  config.num_users = static_cast<size_t>(flags.GetInt("num", 100));
  config.keywords_per_user = static_cast<size_t>(flags.GetInt("ul", 3));
  config.num_unique_keywords = static_cast<size_t>(flags.GetInt("uw", 20));
  config.area_extent = flags.GetDouble("area", 5.0);
  config.seed = static_cast<uint64_t>(flags.GetInt("seed", 11));
  const GeneratedUsers gen = GenUsers(data.value(), config);
  const std::string out = flags.Get("out", "users.csv");
  const Status s = SaveUsersIds(gen.users, out);
  if (!s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("wrote %zu users to %s\ncandidate keyword pool (W):",
              gen.users.size(), out.c_str());
  for (TermId w : gen.candidate_keywords) std::printf(" %u", w);
  std::printf("\n");
  return 0;
}

int CmdStats(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const DatasetStatsRow row = ComputeDatasetStats(data.value());
  const IurTree tree = IurTree::BuildFromDataset(data.value(), {});
  std::printf("objects:            %zu\n", row.total_objects);
  std::printf("unique terms:       %zu\n", row.total_unique_terms);
  std::printf("avg terms/object:   %.2f\n", row.avg_unique_terms_per_object);
  std::printf("total terms:        %llu\n",
              static_cast<unsigned long long>(row.total_terms));
  std::printf("bounds:             %s\n", data.value().bounds().ToString().c_str());
  std::printf("iur-tree:           height %zu, %zu nodes, %llu bytes\n",
              tree.height(), tree.NodeCount(),
              static_cast<unsigned long long>(tree.IndexBytes()));

  // Corpus-level distributions, aggregated with the obs histogram type:
  // term document frequencies (how skewed the vocabulary is — drives the
  // text-bound tightness) and per-object document lengths.
  const Dataset& dataset = data.value();
  obs::Histogram term_freq(obs::HistogramSpec::Exponential(1.0, 2.0, 16));
  const CorpusStats& corpus = dataset.stats();
  size_t used_terms = 0;
  for (TermId t = 0; t < corpus.vocab_size(); ++t) {
    const uint32_t df = corpus.DocFreq(t);
    if (df == 0) continue;
    ++used_terms;
    term_freq.Record(static_cast<double>(df));
  }
  obs::Histogram doc_len(obs::HistogramSpec::Linear(1.0, 1.0, 64));
  for (const StObject& o : dataset.objects()) {
    doc_len.Record(static_cast<double>(o.doc.size()));
  }
  std::printf("term doc-freq:      p50 %.0f, p90 %.0f, p99 %.0f, max %.0f "
              "(%zu used terms)\n",
              term_freq.Percentile(0.5), term_freq.Percentile(0.9),
              term_freq.Percentile(0.99), term_freq.snapshot().max,
              used_terms);
  std::printf("doc length:         mean %.2f, p50 %.0f, p90 %.0f, p99 %.0f, "
              "max %.0f\n",
              doc_len.snapshot().Mean(), doc_len.Percentile(0.5),
              doc_len.Percentile(0.9), doc_len.Percentile(0.99),
              doc_len.snapshot().max);
  return 0;
}

int CmdTopK(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = data.value();
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));
  TextSimilarity sim(ParseMeasure(flags, TextMeasure::kExtendedJaccard),
                     &dataset.corpus_max());
  StScorer scorer(&sim, {flags.GetDouble("alpha", 0.5), dataset.max_dist()});
  TopKSearcher searcher(&tree, &dataset, &scorer);
  const TermVector qdoc = TermVector::FromTerms(
      ParseTerms(flags.Get("keywords", "")));
  TopKQuery query;
  query.loc = {flags.GetDouble("x", 0), flags.GetDouble("y", 0)};
  query.doc = &qdoc;
  query.k = static_cast<size_t>(flags.GetInt("k", 10));
  const ObsFlags obs_flags(flags);
  obs::QueryTrace trace(obs::names::kTraceTopk);
  IoStats io;
  Stopwatch timer;
  const auto results =
      searcher.Search(query, &io, obs_flags.tracing() ? &trace : nullptr);
  const double ms = timer.ElapsedMillis();
  io.Publish(obs::names::kTopkIoPrefix);
  for (const TopKResult& r : results) {
    std::printf("%u\t%.6f\n", r.id, r.score);
  }
  std::fprintf(stderr, "%zu results in %.2f ms, %llu simulated I/Os\n",
               results.size(), ms,
               static_cast<unsigned long long>(io.TotalIos()));
  return EmitObsArtifacts(obs_flags, "topk", &trace);
}

/// Batch mode (--ids): evaluates every listed query object through the
/// BatchRunner. Traces are single-threaded by design, so --trace only
/// annotates the artifact with the batch, not per-query spans.
int CmdRstknnBatch(const Flags& flags, const Dataset& dataset,
                   const frozen::FrozenTree* frozen, const StScorer& scorer,
                   size_t threads, obs::RuntimeSampler* sampler) {
  std::vector<ObjectId> ids;
  for (TermId t : ParseTerms(flags.Get("ids", ""))) {
    ids.push_back(static_cast<ObjectId>(t));
  }
  if (ids.empty()) {
    std::fprintf(stderr, "--ids must list at least one object id\n");
    return 2;
  }
  const size_t k = static_cast<size_t>(flags.GetInt("k", 10));
  std::vector<RstknnQuery> queries;
  queries.reserve(ids.size());
  for (ObjectId qid : ids) {
    if (qid >= dataset.size()) {
      std::fprintf(stderr, "--ids entry %u out of range\n", qid);
      return 2;
    }
    queries.push_back(
        {dataset.object(qid).loc, &dataset.object(qid).doc, k, qid});
  }

  const ObsFlags obs_flags(flags);
  RstknnOptions options;
  options.algorithm = ParseAlgorithm(flags);
  BufferPool pool(&frozen->page_store(), obs_flags.pool_pages);
  if (!obs_flags.metrics_out.empty()) options.pool = &pool;

  exec::ThreadPool thread_pool(threads);
  exec::BatchRunner runner(frozen, &dataset, &scorer, &thread_pool);
  obs::SlowQueryLog slow_log(obs_flags.slow_log_ms);
  obs::TraceEventWriter trace_events(/*capacity=*/1 << 16,
                                     obs_flags.trace_sample);
  if (obs_flags.slow_logging()) runner.set_slow_log(&slow_log);
  if (obs_flags.profile) runner.set_profiling(true);
  if (!obs_flags.trace_out.empty()) runner.set_trace_events(&trace_events);
  obs::WorkloadRecorder journal;
  if (!obs_flags.journal_out.empty()) {
    const Status s = journal.Open(
        obs_flags.journal_out,
        MakeJournalHeader(flags, "rstknn.batch", thread_pool.num_threads(),
                          obs_flags.journal_sample));
    if (!s.ok()) {
      std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
      return 1;
    }
    runner.set_journal(&journal);
  }
  obs::HeatmapRecorder heatmap;
  if (!obs_flags.heatmap_out.empty()) runner.set_heatmap(&heatmap);
  exec::BatchStats batch_stats;
  const std::vector<RstknnResult> results =
      runner.RunRstknn(queries, options, &batch_stats);

  for (size_t i = 0; i < results.size(); ++i) {
    for (ObjectId id : results[i].answers) {
      std::printf("%u\t%u\n", ids[i], id);
    }
  }
  double busy_ms = 0.0;
  for (double ms : batch_stats.worker_busy_ms) busy_ms += ms;
  std::fprintf(stderr,
               "%llu reverse neighbors across %zu queries in %.2f ms wall "
               "(%zu threads, %.2f ms busy, %llu I/Os)\n",
               static_cast<unsigned long long>(batch_stats.answers),
               queries.size(), batch_stats.wall_ms, thread_pool.num_threads(),
               busy_ms,
               static_cast<unsigned long long>(
                   batch_stats.total.io.TotalIos()));
  if (options.pool != nullptr) {
    std::fprintf(stderr, "buffer pool: %llu hits, %llu misses, %llu evictions "
                 "(%.1f%% hit rate)\n",
                 static_cast<unsigned long long>(pool.hits()),
                 static_cast<unsigned long long>(pool.misses()),
                 static_cast<unsigned long long>(pool.evictions()),
                 100.0 * pool.hit_rate());
  }
  if (obs_flags.slow_logging()) {
    std::fprintf(stderr, "slow-query log: %llu captured over %.2f ms "
                 "(%llu dropped)\n",
                 static_cast<unsigned long long>(slow_log.captured()),
                 slow_log.threshold_ms(),
                 static_cast<unsigned long long>(slow_log.dropped()));
  }
  if (!obs_flags.journal_out.empty()) {
    const int rc = FinishJournal(&journal, obs_flags.journal_out);
    if (rc != 0) return rc;
  }
  if (!obs_flags.heatmap_out.empty()) {
    const int rc =
        EmitHeatmap(obs_flags.heatmap_out, heatmap, batch_stats.total);
    if (rc != 0) return rc;
  }
  // Stop before the artifact snapshot so the runtime.* gauges carry a final
  // post-batch sample.
  if (sampler != nullptr) sampler->Stop();
  obs::QueryTrace trace(obs::names::kTraceRstknn);  // batch runs carry no per-query spans
  return EmitObsArtifacts(obs_flags, "rstknn", &trace, /*explain=*/nullptr,
                          obs_flags.slow_logging() ? &slow_log : nullptr,
                          /*profiler=*/nullptr, &trace_events);
}

int CmdRstknn(const Flags& flags) {
  if (ParseMeasure(flags, TextMeasure::kExtendedJaccard) == TextMeasure::kSum) {
    std::fprintf(stderr,
                 "--measure sum is not an RSTkNN measure: use ej or cos "
                 "(sum is for maxbrst)\n");
    return 2;
  }
  const std::optional<size_t> threads = GetThreadCount(flags, "threads");
  const std::optional<size_t> build_threads =
      GetThreadCount(flags, "build-threads");
  if (!threads.has_value() || !build_threads.has_value()) return 2;
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = data.value();
  TextSimilarity sim(ParseMeasure(flags, TextMeasure::kExtendedJaccard),
                     &dataset.corpus_max());
  StScorer scorer(&sim, {flags.GetDouble("alpha", 0.5), dataset.max_dist()});

  // Runtime telemetry starts before the index build so the runtime.* gauges
  // cover the build's memory growth, not just the queries.
  const ObsFlags obs_flags(flags);
  obs::RuntimeSampler sampler;
  if (obs_flags.telemetry_ms >= 0) {
    sampler.Start(static_cast<uint64_t>(obs_flags.telemetry_ms));
  }

  // Index setup: build the IUR-tree and freeze it, or load a previously
  // saved frozen snapshot and skip the build entirely.
  std::optional<IurTree> tree;
  std::optional<frozen::FrozenTree> frozen;
  if (flags.Has("load-index")) {
    Result<frozen::FrozenTree> loaded =
        frozen::FrozenTree::Load(flags.Get("load-index", ""));
    if (!loaded.ok()) {
      std::fprintf(stderr, "--load-index: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    frozen.emplace(std::move(loaded.value()));
  } else {
    IurTreeOptions tree_options;
    tree_options.build_threads = *build_threads;
    tree.emplace(IurTree::BuildFromDataset(dataset, tree_options));
    frozen.emplace(frozen::FrozenTree::Freeze(*tree));
  }
  // Opt-in deep validation of whichever index will serve the query: every
  // node summary dominated and equal to the merge of its children, MBRs
  // tight, leaves level, cluster lists partitioning. Exits non-zero with the
  // precise violation so scripted runs can gate on it.
  if (flags.Has("check-invariants")) {
    Status invariants = Status::Ok();
    if (tree.has_value()) {
      invariants = tree->CheckInvariants(
          [&dataset](uint32_t oid) -> const TermVector* {
            return oid < dataset.size() ? &dataset.object(oid).doc : nullptr;
          });
    }
    if (invariants.ok()) invariants = frozen->CheckInvariants();
    if (!invariants.ok()) {
      std::fprintf(stderr, "--check-invariants: %s\n",
                   invariants.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "--check-invariants: index ok\n");
  }
  if (flags.Has("save-index")) {
    const std::string path = flags.Get("save-index", "");
    const Status s = frozen->Save(path);
    if (!s.ok()) {
      std::fprintf(stderr, "--save-index: %s\n", s.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "frozen index (%u nodes, %u entries, %llu payload bytes) "
                 "written to %s\n",
                 frozen->num_nodes(), frozen->num_entries(),
                 static_cast<unsigned long long>(frozen->IndexBytes()),
                 path.c_str());
    if (!flags.Has("id") && !flags.Has("ids") && !flags.Has("keywords")) {
      return 0;  // save-only invocation
    }
  }
  if (flags.Has("ids")) {
    return CmdRstknnBatch(flags, dataset, &*frozen, scorer, *threads,
                          &sampler);
  }

  RstknnQuery query;
  TermVector qdoc;
  if (flags.Has("id")) {
    const ObjectId qid = static_cast<ObjectId>(flags.GetInt("id", 0));
    if (qid >= dataset.size()) {
      std::fprintf(stderr, "--id out of range\n");
      return 2;
    }
    query.loc = dataset.object(qid).loc;
    query.doc = &dataset.object(qid).doc;
    query.self = qid;
  } else {
    qdoc = TermVector::FromTerms(ParseTerms(flags.Get("keywords", "")));
    query.loc = {flags.GetDouble("x", 0), flags.GetDouble("y", 0)};
    query.doc = &qdoc;
  }
  query.k = static_cast<size_t>(flags.GetInt("k", 10));

  obs::QueryTrace trace(obs::names::kTraceRstknn);
  RstknnOptions options;
  options.algorithm = ParseAlgorithm(flags);
  // With a metrics artifact requested, switch to real I/O through a buffer
  // pool so the reported hit/miss/fill metrics are genuine reads of the
  // serialized index rather than simulated charges.
  BufferPool pool(&frozen->page_store(), obs_flags.pool_pages);
  if (obs_flags.tracing() || obs_flags.slow_logging()) {
    options.trace = &trace;
  }
  obs::PhaseProfiler profiler;
  if (obs_flags.profile) options.profiler = &profiler;
  if (!obs_flags.metrics_out.empty()) {
    pool.set_trace(options.trace);
    pool.set_phase_profiler(options.profiler);
    options.pool = &pool;
  }
  obs::ExplainRecorder recorder(obs_flags.explain_log);
  if (obs_flags.explain) options.explain = &recorder;
  obs::HeatmapRecorder heatmap;
  if (!obs_flags.heatmap_out.empty()) options.heatmap = &heatmap;

  obs::TraceEventWriter trace_events(/*capacity=*/1 << 16,
                                     obs_flags.trace_sample);
  const double query_start_us = trace_events.NowUs();
  Stopwatch timer;
  const RstknnSearcher searcher(&*frozen, &dataset, &scorer);
  const RstknnResult result = searcher.Search(query, options);
  const double ms = timer.ElapsedMillis();
  if (obs_flags.profile) {
    std::fprintf(stderr, "per-phase attribution (of %.2f ms wall):\n%s",
                 ms, profiler.ToString().c_str());
  }
  if (!obs_flags.trace_out.empty()) {
    // A serial run's timeline is the query's own span tree on one track.
    trace.Finish();
    trace_events.AddThreadName(1, "query");
    trace_events.AddSpanTree(trace.root(), 1, query_start_us);
  }

  if (obs_flags.explain) {
    std::fprintf(stderr, "%s", recorder.ToString().c_str());
    const Status reconciled = recorder.CheckReconciles(
        result.stats.expansions, result.stats.pruned_entries,
        result.stats.reported_entries);
    if (!reconciled.ok()) {
      std::fprintf(stderr, "WARNING: %s\n", reconciled.ToString().c_str());
    }
  }
  if (!obs_flags.journal_out.empty()) {
    // Serial capture: a one-record journal with the same header/record
    // format as batch mode, so single-query runs replay identically.
    obs::WorkloadRecorder journal;
    const Status s = journal.Open(
        obs_flags.journal_out,
        MakeJournalHeader(flags, "rstknn", /*threads=*/1,
                          obs_flags.journal_sample));
    if (!s.ok()) {
      std::fprintf(stderr, "--journal-out: %s\n", s.ToString().c_str());
      return 1;
    }
    if (journal.ShouldSample(0)) {
      obs::JournalQueryRecord record =
          exec::MakeJournalRecord(0, query, result, ms);
      if (obs_flags.profile) {
        obs::JsonWriter phases;
        profiler.AppendJson(&phases);
        record.phases_json = phases.TakeString();
      }
      journal.Append(record);
    }
    const int rc = FinishJournal(&journal, obs_flags.journal_out);
    if (rc != 0) return rc;
  }
  if (!obs_flags.heatmap_out.empty()) {
    heatmap.AddQueries(1);
    const int rc = EmitHeatmap(obs_flags.heatmap_out, heatmap, result.stats);
    if (rc != 0) return rc;
  }
  obs::SlowQueryLog slow_log(obs_flags.slow_log_ms);
  if (obs_flags.slow_logging() && slow_log.ShouldCapture(ms)) {
    trace.Finish();
    obs::SlowQueryRecord record;
    record.label = obs::names::kTraceRstknn;
    record.elapsed_ms = ms;
    record.answers = result.answers.size();
    record.trace_json = trace.ToJson();
    if (obs_flags.explain) record.explain_json = recorder.ToJson();
    slow_log.Insert(std::move(record));
  }
  for (ObjectId id : result.answers) std::printf("%u\n", id);
  std::fprintf(stderr,
               "%zu reverse neighbors in %.2f ms (%llu entries, %llu pruned, "
               "%llu I/Os)\n",
               result.answers.size(), ms,
               static_cast<unsigned long long>(result.stats.entries_created),
               static_cast<unsigned long long>(result.stats.pruned_entries),
               static_cast<unsigned long long>(result.stats.io.TotalIos()));
  if (options.pool != nullptr) {
    std::fprintf(stderr, "buffer pool: %llu hits, %llu misses, %llu evictions "
                 "(%.1f%% hit rate)\n",
                 static_cast<unsigned long long>(pool.hits()),
                 static_cast<unsigned long long>(pool.misses()),
                 static_cast<unsigned long long>(pool.evictions()),
                 100.0 * pool.hit_rate());
  }
  sampler.Stop();  // final runtime sample lands in the snapshot below
  return EmitObsArtifacts(obs_flags, "rstknn", &trace,
                          obs_flags.explain ? &recorder : nullptr,
                          obs_flags.slow_logging() ? &slow_log : nullptr,
                          obs_flags.profile ? &profiler : nullptr,
                          &trace_events);
}

int CmdMaxBrst(const Flags& flags) {
  auto data = LoadData(flags);
  if (!data.ok()) {
    std::fprintf(stderr, "%s\n", data.status().ToString().c_str());
    return 1;
  }
  const Dataset& dataset = data.value();
  auto users = LoadUsersIds(flags.Get("users", "users.csv"));
  if (!users.ok()) {
    std::fprintf(stderr, "%s\n", users.status().ToString().c_str());
    return 1;
  }
  const frozen::FrozenTree tree =
      frozen::FrozenTree::Freeze(IurTree::BuildFromDataset(dataset, {}));
  TextSimilarity sim(TextMeasure::kSum, &dataset.corpus_max());
  StScorer scorer(&sim, {flags.GetDouble("alpha", 0.5), dataset.max_dist()});

  MaxBrstQuery query;
  query.locations = ParseLocations(flags.Get("locations", ""));
  query.keywords = ParseTerms(flags.Get("keywords", ""));
  query.ws = static_cast<size_t>(flags.GetInt("ws", 2));
  query.k = static_cast<size_t>(flags.GetInt("k", 10));
  if (query.locations.empty() || query.keywords.empty()) {
    std::fprintf(stderr, "need --locations \"x:y;x:y\" and --keywords\n");
    return 2;
  }

  const ObsFlags obs_flags(flags);
  obs::QueryTrace trace(obs::names::kTraceMaxbrst);
  obs::QueryTrace* trace_ptr = obs_flags.tracing() ? &trace : nullptr;

  JointTopKProcessor proc(&tree, &dataset, &scorer);
  Stopwatch timer;
  if (trace_ptr != nullptr) trace_ptr->Enter(obs::names::kSpanJointTopk);
  const JointTopKResult joint = proc.Process(users.value(), query.k);
  if (trace_ptr != nullptr) trace_ptr->Exit();
  const double topk_ms = timer.ElapsedMillis();

  MaxBrstSolver solver(&dataset, &scorer);
  const KeywordSelect method = flags.Get("method", "approx") == "exact"
                                   ? KeywordSelect::kExact
                                   : KeywordSelect::kApprox;
  timer.Restart();
  const MaxBrstResult best =
      solver.Solve(users.value(), joint.rsk, query, method, trace_ptr);
  const double sel_ms = timer.ElapsedMillis();

  if (best.location_index == SIZE_MAX) {
    std::printf("no placement covers any user\n");
  } else {
    const Point loc = query.locations[best.location_index];
    std::printf("location: %.6f %.6f\nkeywords:", loc.x, loc.y);
    for (TermId w : best.keywords) std::printf(" %u", w);
    std::printf("\ncovered users (%zu):", best.coverage());
    for (uint32_t u : best.covered_users) std::printf(" %u", u);
    std::printf("\n");
  }
  std::fprintf(stderr, "joint top-k %.2f ms (%llu I/Os), selection %.2f ms\n",
               topk_ms,
               static_cast<unsigned long long>(joint.io.TotalIos()), sel_ms);
  return EmitObsArtifacts(obs_flags, "maxbrst", &trace);
}

int Usage() {
  std::fprintf(stderr,
               "usage: rstknn_cli <gen|genusers|stats|topk|rstknn|maxbrst> "
               "[--flag value ...]\n(see the header of tools/rstknn_cli.cc)\n");
  return 2;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string cmd = argv[1];
  const Flags flags(argc, argv);
  if (!AlphaValid(flags)) return 2;
  if (cmd == "gen") return CmdGen(flags);
  if (cmd == "genusers") return CmdGenUsers(flags);
  if (cmd == "stats") return CmdStats(flags);
  if (cmd == "topk") return CmdTopK(flags);
  if (cmd == "rstknn") return CmdRstknn(flags);
  if (cmd == "maxbrst") return CmdMaxBrst(flags);
  return Usage();
}

}  // namespace
}  // namespace rst

int main(int argc, char** argv) { return rst::Main(argc, argv); }
