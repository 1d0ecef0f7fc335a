#include "rst/frozen/frozen.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <unordered_map>
#include <utility>

#include "rst/common/check.h"
#include "rst/common/file_util.h"
#include "rst/common/stopwatch.h"
#include "rst/iurtree/cluster.h"
#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"
#include "rst/obs/trace.h"
#include "rst/storage/varint.h"

namespace rst {
namespace frozen {

namespace {

constexpr char kMagic[4] = {'R', 'S', 'T', 'F'};

struct FrozenMetrics {
  obs::Counter freezes;
  obs::Counter loads;
  obs::Gauge freeze_ms;
  obs::Gauge load_ms;

  static const FrozenMetrics& Get() {
    static const FrozenMetrics* metrics = [] {
      // rst-lint: allow(raw-new-delete) leaky singleton; cached metric handles live for the process
      auto* m = new FrozenMetrics();
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      m->freezes = registry.GetCounter(obs::names::kFrozenFreezes);
      m->loads = registry.GetCounter(obs::names::kFrozenLoads);
      m->freeze_ms = registry.GetGauge(obs::names::kFrozenFreezeLastMs);
      m->load_ms = registry.GetGauge(obs::names::kFrozenLoadLastMs);
      return m;
    }();
    return *metrics;
  }
};

void PutFixed64(std::string* dst, uint64_t value) {
  char buf[8];
  std::memcpy(buf, &value, 8);
  dst->append(buf, 8);
}

Status GetFixed64(const std::string& src, size_t* offset, uint64_t* value) {
  if (*offset + 8 > src.size()) {
    return Status::Corruption("truncated fixed64");
  }
  std::memcpy(value, src.data() + *offset, 8);
  *offset += 8;
  return Status::Ok();
}

uint64_t Fnv1a64(const char* data, size_t len) {
  uint64_t h = 1469598103934665603ULL;
  for (size_t i = 0; i < len; ++i) {
    h ^= static_cast<unsigned char>(data[i]);
    h *= 1099511628211ULL;
  }
  return h;
}

void PutSlice(std::string* dst, const TermSlice& s) {
  PutVarint64(dst, s.offset);
  PutVarint32(dst, s.len);
}

Status GetSlice(const std::string& src, size_t* offset, TermSlice* s) {
  Status status = GetVarint64(src, offset, &s->offset);
  if (!status.ok()) return status;
  return GetVarint32(src, offset, &s->len);
}

void PutSummaryRef(std::string* dst, const SummaryRef& s) {
  PutSlice(dst, s.uni);
  PutSlice(dst, s.intr);
  PutVarint32(dst, s.count);
}

Status GetSummaryRef(const std::string& src, size_t* offset, SummaryRef* s) {
  Status status = GetSlice(src, offset, &s->uni);
  if (!status.ok()) return status;
  status = GetSlice(src, offset, &s->intr);
  if (!status.ok()) return status;
  return GetVarint32(src, offset, &s->count);
}

/// Appends a term vector's entries to the pool and returns its slice.
TermSlice AppendToPool(const TermVector& vec, std::vector<TermWeight>* pool) {
  TermSlice slice;
  slice.offset = pool->size();
  slice.len = static_cast<uint32_t>(vec.size());
  pool->insert(pool->end(), vec.entries().begin(), vec.entries().end());
  return slice;
}

/// First element of [first, last) whose term is >= `term`, by doubling
/// probes from `first` and a binary search inside the last octave: O(log gap)
/// per call as a merge advances.
template <typename T, typename TermOf>
const T* GallopTo(const T* first, const T* last, TermId term, TermOf term_of) {
  if (first == last || term_of(*first) >= term) return first;
  size_t step = 1;
  while (first + step < last && term_of(first[step]) < term) step <<= 1;
  return std::lower_bound(
      first + (step >> 1) + 1, std::min(first + step, last), term,
      [&term_of](const T& x, TermId t) { return term_of(x) < t; });
}

/// Kinds of postings, in their order within a dictionary entry (ScanDots
/// reads the run boundaries in this order).
enum PostingKind : uint32_t {
  kEntryUni = 0,
  kEntryIntr = 1,
  kClusterUni = 2,
  kClusterIntr = 3,
};

}  // namespace

FrozenTree FrozenTree::Freeze(const IurTree& tree, obs::QueryTrace* trace) {
  Stopwatch timer;
  obs::TraceSpan freeze_span(trace, obs::names::kSpanFrozenFreeze);
  FrozenTree out;
  out.size_ = tree.size();
  out.clustered_ = tree.clustered();
  out.has_payloads_ =
      tree.storage_finalized() && tree.root()->record_handle.valid();

  // The norm caches are copied from the source vectors; a summary whose intr
  // equals its uni (every leaf document) shares one pool slice.
  auto make_ref = [&out](const TextSummary& s) {
    SummaryRef ref;
    ref.count = s.count;
    ref.uni = AppendToPool(s.uni, &out.pool_);
    ref.uni_norm_sq = s.uni.NormSquared();
    if (s.intr.entries() == s.uni.entries()) {
      ref.intr = ref.uni;
      ref.intr_norm_sq = ref.uni_norm_sq;
    } else {
      ref.intr = AppendToPool(s.intr, &out.pool_);
      ref.intr_norm_sq = s.intr.NormSquared();
    }
    return ref;
  };

  // Layout walk: a stack traversal whose order is the explain numbering
  // (children pushed in reverse so they pop in entry order; a popped node's
  // entries get consecutive indices). Entry index i carries explain id i + 1,
  // which depends only on tree structure, never on pointer values.
  if (trace != nullptr) trace->Enter(obs::names::kSpanFrozenLayout);
  struct Frame {
    const IurTree::Node* node;
    uint32_t level;
  };
  std::vector<Frame> stack = {{tree.root(), 0}};
  std::unordered_map<const IurTree::Node*, uint32_t> node_index;
  std::vector<std::pair<uint32_t, const IurTree::Node*>> child_links;
  while (!stack.empty()) {
    const Frame frame = stack.back();
    stack.pop_back();
    for (size_t i = frame.node->entries.size(); i-- > 0;) {
      const IurTree::Entry& e = frame.node->entries[i];
      if (!e.is_object()) stack.push_back({e.child, frame.level + 1});
    }
    const uint32_t node_id = out.num_nodes();
    node_index.emplace(frame.node, node_id);
    out.node_leaf_.push_back(frame.node->leaf ? 1 : 0);
    out.node_entry_begin_.push_back(out.num_entries());
    out.node_entry_count_.push_back(
        static_cast<uint32_t>(frame.node->entries.size()));
    out.node_record_.push_back(frame.node->record_handle);
    out.node_invfile_.push_back(frame.node->invfile_handle);
    for (const IurTree::Entry& e : frame.node->entries) {
      const uint32_t entry_id = out.num_entries();
      out.entry_rect_.push_back(e.rect);
      out.entry_id_.push_back(e.id);
      out.entry_child_.push_back(kNoNode);  // fixed up once the child pops
      out.entry_level_.push_back(frame.level);
      out.entry_summary_.push_back(make_ref(e.summary));
      out.entry_cluster_begin_.push_back(
          static_cast<uint32_t>(out.clusters_.size()));
      out.entry_cluster_count_.push_back(
          static_cast<uint32_t>(e.clusters.size()));
      for (const auto& [cluster_id, summary] : e.clusters) {
        out.clusters_.push_back({cluster_id, make_ref(summary)});
      }
      if (!e.is_object()) child_links.push_back({entry_id, e.child});
    }
  }
  for (const auto& [entry_id, child] : child_links) {
    out.entry_child_[entry_id] = node_index.at(child);
  }
  if (trace != nullptr) trace->Exit();  // layout

  // The tree's handles point into its own store, which FinalizeStorage()
  // never writes again, so sharing it is exact.
  if (out.has_payloads_) out.page_store_ = tree.shared_page_store();

  {
    obs::TraceSpan postings_span(trace, obs::names::kSpanFrozenPostings);
    const Status derived = out.DeriveSearchArrays();
    RST_CHECK(derived.ok()) << derived.ToString();
  }

  const FrozenMetrics& metrics = FrozenMetrics::Get();
  metrics.freezes.Increment();
  metrics.freeze_ms.Set(timer.ElapsedMillis());
  return out;
}

void FrozenTree::SerializeNodePayloads(uint32_t node, PageStore* store) {
  const uint32_t begin = node_entry_begin_[node];
  const uint32_t count = node_entry_count_[node];
  if (!IsLeaf(node)) {
    for (uint32_t i = 0; i < count; ++i) {
      SerializeNodePayloads(entry_child_[begin + i], store);
    }
  }
  // Byte-for-byte the record IurTree::SerializeNode writes, in the same
  // post-order, so page handles match the source IurTree exactly.
  std::string record;
  record.push_back(IsLeaf(node) ? 1 : 0);
  PutVarint32(&record, count);
  for (uint32_t i = 0; i < count; ++i) {
    const uint32_t e = begin + i;
    PutDouble(&record, entry_rect_[e].min_x);
    PutDouble(&record, entry_rect_[e].min_y);
    PutDouble(&record, entry_rect_[e].max_x);
    PutDouble(&record, entry_rect_[e].max_y);
    PutVarint32(&record, entry_id_[e] == kNoObject ? 0 : entry_id_[e] + 1);
    PutVarint32(&record, entry_summary_[e].count);
  }
  node_record_[node] = store->Write(record);

  InvertedFile file;
  for (uint32_t i = 0; i < count; ++i) {
    const SummaryRef& s = entry_summary_[begin + i];
    const TermWeight* uni = pool_.data() + s.uni.offset;
    for (uint32_t t = 0; t < s.uni.len; ++t) {
      file[uni[t].term].push_back(
          {i, uni[t].weight,
           GetSpan(pool_.data() + s.intr.offset, s.intr.len, uni[t].term)});
    }
  }
  std::string payload;
  EncodeInvertedFile(file, &payload);
  if (clustered_) {
    auto slice_vector = [this](const TermSlice& s) {
      return TermVector::FromSorted(std::vector<TermWeight>(
          pool_.begin() + static_cast<ptrdiff_t>(s.offset),
          pool_.begin() + static_cast<ptrdiff_t>(s.offset) + s.len));
    };
    for (uint32_t i = 0; i < count; ++i) {
      const uint32_t e = begin + i;
      PutVarint32(&payload, entry_cluster_count_[e]);
      for (uint32_t c = 0; c < entry_cluster_count_[e]; ++c) {
        const ClusterRef& cluster = clusters_[entry_cluster_begin_[e] + c];
        PutVarint32(&payload, cluster.cluster_id);
        const TextSummary summary{slice_vector(cluster.summary.uni),
                                  slice_vector(cluster.summary.intr),
                                  cluster.summary.count};
        EncodeTextSummary(summary, &payload);
      }
    }
  }
  node_invfile_[node] = store->Write(payload);
}

void FrozenTree::RebuildPayloads() {
  auto store = std::make_shared<PageStore>();
  node_record_.assign(num_nodes(), PageHandle());
  node_invfile_.assign(num_nodes(), PageHandle());
  if (num_nodes() > 0) SerializeNodePayloads(root(), store.get());
  page_store_ = std::move(store);
}

void FrozenTree::RecomputeNorms() {
  auto norms = [this](SummaryRef* s) {
    s->uni_norm_sq = NormSquaredSpan(pool_.data() + s->uni.offset, s->uni.len);
    s->intr_norm_sq =
        NormSquaredSpan(pool_.data() + s->intr.offset, s->intr.len);
  };
  for (SummaryRef& s : entry_summary_) norms(&s);
  for (ClusterRef& c : clusters_) norms(&c.summary);
}

Status FrozenTree::ComputeSubtreeEnds(std::vector<uint32_t>* ends) const {
  const uint32_t n_nodes = num_nodes();
  ends->assign(n_nodes, 0);
  // Children carry larger ids than their parent, so one reverse sweep sees
  // every child's end before its parent needs it.
  for (uint32_t n = n_nodes; n-- > 0;) {
    uint32_t expected = n + 1;
    if (!IsLeaf(n)) {
      for (uint32_t i = 0; i < node_entry_count_[n]; ++i) {
        const uint32_t child = entry_child_[node_entry_begin_[n] + i];
        if (child != expected || child >= n_nodes) {
          return Status::Corruption("frozen index: node numbering is not "
                                    "preorder");
        }
        expected = (*ends)[child];
      }
    }
    (*ends)[n] = expected;
  }
  if (n_nodes > 0 && (*ends)[0] != n_nodes) {
    return Status::Corruption("frozen index: node numbering is not preorder");
  }
  return Status::Ok();
}

uint32_t FrozenTree::LeafOf(uint32_t id) const {
  const auto it = std::find(entry_id_.begin(), entry_id_.end(), id);
  if (id == kNoObject || it == entry_id_.end()) return kNoNode;
  const uint32_t e = static_cast<uint32_t>(it - entry_id_.begin());
  // Entries tile the nodes in order; the last node starting at or before e
  // holds it (an empty node never precedes the one it shares a start with).
  return static_cast<uint32_t>(std::upper_bound(node_entry_begin_.begin(),
                                                node_entry_begin_.end(), e) -
                               node_entry_begin_.begin()) -
         1;
}

uint32_t FrozenTree::NodeClusterCount(uint32_t node) const {
  uint32_t count = 0;
  for (uint32_t i = 0; i < node_entry_count_[node]; ++i) {
    count += entry_cluster_count_[node_entry_begin_[node] + i];
  }
  return count;
}

Status FrozenTree::DeriveSearchArrays() {
  Status status = ComputeSubtreeEnds(&node_subtree_end_);
  if (!status.ok()) return status;
  const uint32_t n_nodes = num_nodes();

  auto same_run = [this](const TermSlice& a, const TermSlice& b) {
    return a.len == b.len &&
           (a.offset == b.offset ||
            std::equal(pool_.begin() + static_cast<ptrdiff_t>(a.offset),
                       pool_.begin() + static_cast<ptrdiff_t>(a.offset + a.len),
                       pool_.begin() + static_cast<ptrdiff_t>(b.offset)));
  };
  // Clusters are entries when every entry is its own intersection and its
  // one cluster (clustered trees) repeats its blended summary: leaves.
  auto clusters_are_entries = [&](uint32_t node) {
    for (uint32_t i = 0; i < node_entry_count_[node]; ++i) {
      const uint32_t e = node_entry_begin_[node] + i;
      const SummaryRef& s = entry_summary_[e];
      if (!same_run(s.uni, s.intr)) return false;
      if (entry_cluster_count_[e] != (clustered_ ? 1u : 0u)) return false;
      if (clustered_) {
        const SummaryRef& c = clusters_[entry_cluster_begin_[e]].summary;
        if (!same_run(c.uni, s.uni) || !same_run(c.intr, s.intr) ||
            c.uni_norm_sq != s.uni_norm_sq ||
            c.intr_norm_sq != s.intr_norm_sq) {
          return false;
        }
      }
    }
    return true;
  };
  // The sorted runs a node's postings come from, numbered kind-major: every
  // entry union run, then the entry intersection, cluster union and cluster
  // intersection runs (only the first kind when clusters are entries).
  struct Run {
    const TermWeight* at;
    const TermWeight* end;
    uint32_t kind;
    uint32_t slot;
  };
  std::vector<Run> runs;
  auto collect_runs = [&](uint32_t node, bool entries_only) {
    runs.clear();
    const uint32_t begin = node_entry_begin_[node];
    const uint32_t count = node_entry_count_[node];
    auto add = [&](const TermSlice& slice, uint32_t kind, uint32_t slot) {
      const TermWeight* at = pool_.data() + slice.offset;
      runs.push_back({at, at + slice.len, kind, slot});
    };
    for (uint32_t i = 0; i < count; ++i) {
      add(entry_summary_[begin + i].uni, kEntryUni, i);
    }
    if (entries_only) return;
    for (uint32_t i = 0; i < count; ++i) {
      add(entry_summary_[begin + i].intr, kEntryIntr, i);
    }
    for (uint32_t kind : {kClusterUni, kClusterIntr}) {
      uint32_t slot = 0;
      for (uint32_t i = 0; i < count; ++i) {
        const uint32_t e = begin + i;
        for (uint32_t c = 0; c < entry_cluster_count_[e]; ++c, ++slot) {
          const SummaryRef& cluster =
              clusters_[entry_cluster_begin_[e] + c].summary;
          add(kind == kClusterUni ? cluster.uni : cluster.intr, kind, slot);
        }
      }
    }
  };

  // Pass 1: node kinds and the exact posting count.
  constexpr uint32_t kMaxSlots = 1u << 16;
  node_aux_begin_.assign(n_nodes, 0);
  max_node_entries_ = 0;
  max_node_clusters_ = 0;
  uint64_t post_total = 0;
  for (uint32_t n = 0; n < n_nodes; ++n) {
    const uint32_t clusters = NodeClusterCount(n);
    if (node_entry_count_[n] > kMaxSlots || clusters > kMaxSlots) {
      return Status::InvalidArgument(
          "frozen index: a node holds more than 65536 entries or clusters");
    }
    max_node_entries_ = std::max(max_node_entries_, node_entry_count_[n]);
    max_node_clusters_ = std::max(max_node_clusters_, clusters);
    const bool only = clusters_are_entries(n);
    if (only) node_aux_begin_[n] = kNoNode;
    collect_runs(n, only);
    for (const Run& run : runs) post_total += run.end - run.at;
  }
  if (post_total >= kNoNode) {
    return Status::InvalidArgument("frozen index: postings exceed 2^32");
  }
  post_slot_.assign(post_total, 0);
  post_weight_.assign(post_total, 0.0f);
  node_dict_begin_.assign(n_nodes + 1, 0);
  dict_term_.clear();
  dict_begin_.clear();
  dict_aux_.clear();

  // Pass 2: a k-way merge of each node's runs by (term, run number) emits
  // its postings already grouped by term, and within a term by kind.
  std::vector<uint64_t> heap;  // (term << 32 | run), smallest on top
  const auto later = std::greater<uint64_t>();
  uint32_t next = 0;
  for (uint32_t n = 0; n < n_nodes; ++n) {
    const bool only = node_aux_begin_[n] == kNoNode;
    if (!only) node_aux_begin_[n] = static_cast<uint32_t>(dict_aux_.size());
    node_dict_begin_[n] = static_cast<uint32_t>(dict_term_.size());
    collect_runs(n, only);
    heap.clear();
    for (uint32_t r = 0; r < runs.size(); ++r) {
      if (runs[r].at != runs[r].end) {
        heap.push_back(uint64_t{runs[r].at->term} << 32 | r);
      }
    }
    std::make_heap(heap.begin(), heap.end(), later);
    uint32_t kind = 0;  // kinds of the current term closed so far
    auto close_kinds = [&](uint32_t upto) {
      for (; kind < upto; ++kind) {
        if (!only && kind < 3) dict_aux_[dict_aux_.size() - 3 + kind] = next;
      }
    };
    while (!heap.empty()) {
      std::pop_heap(heap.begin(), heap.end(), later);
      const uint64_t top = heap.back();
      heap.pop_back();
      const TermId term = static_cast<TermId>(top >> 32);
      Run& run = runs[static_cast<uint32_t>(top)];
      const bool first_term = dict_term_.size() == node_dict_begin_[n];
      if (first_term || dict_term_.back() != term) {
        if (!first_term) close_kinds(4);
        dict_term_.push_back(term);
        dict_begin_.push_back(next);
        if (!only) dict_aux_.insert(dict_aux_.end(), 3, 0);
        kind = 0;
      }
      close_kinds(run.kind);
      post_slot_[next] = static_cast<uint16_t>(run.slot);
      post_weight_[next] = run.at->weight;
      ++next;
      if (++run.at != run.end) {
        heap.push_back(uint64_t{run.at->term} << 32 | (top & 0xFFFFFFFFu));
        std::push_heap(heap.begin(), heap.end(), later);
      }
    }
    if (dict_term_.size() > node_dict_begin_[n]) close_kinds(4);
    if (dict_term_.size() >= kNoNode) {
      return Status::InvalidArgument("frozen index: postings exceed 2^32");
    }
  }
  node_dict_begin_[n_nodes] = static_cast<uint32_t>(dict_term_.size());
  dict_begin_.push_back(next);
  dict_term_.shrink_to_fit();
  dict_begin_.shrink_to_fit();
  dict_aux_.shrink_to_fit();
  return Status::Ok();
}

void FrozenTree::EntryDots(uint32_t node, const SummarySpan& probe,
                           double* uni, double* intr) const {
  ScanDots(node, probe, /*clusters=*/false, uni, intr);
}

void FrozenTree::ClusterDots(uint32_t node, const SummarySpan& probe,
                             double* uni, double* intr) const {
  // A node whose clusters are its entries has one per entry, or none at all
  // in an unclustered tree.
  if (ClustersAreEntries(node)) {
    if (clustered_) ScanDots(node, probe, /*clusters=*/false, uni, intr);
    return;
  }
  ScanDots(node, probe, /*clusters=*/true, uni, intr);
}

void FrozenTree::ScanDots(uint32_t node, const SummarySpan& probe,
                          bool clusters, double* uni, double* intr) const {
  const uint32_t slots =
      clusters ? NodeClusterCount(node) : node_entry_count_[node];
  std::fill(uni, uni + slots, 0.0);
  std::fill(intr, intr + slots, 0.0);
  const uint32_t d0 = node_dict_begin_[node];
  const uint32_t aux = node_aux_begin_[node];
  const uint32_t* const dict = dict_term_.data();
  const uint16_t* const slot_of = post_slot_.data();
  const float* const weight_of = post_weight_.data();
  auto add = [&](uint32_t begin, uint32_t end, float w, double* out) {
    for (uint32_t i = begin; i < end; ++i) {
      out[slot_of[i]] += static_cast<double>(w) * weight_of[i];
    }
  };
  // One merge of the probe's union terms with the dictionary. The probe's
  // intersection terms are a subset of its union terms, so its cursor `q`
  // only ever moves forward to the union term just matched. Each slot's sums
  // run over the probe's terms in ascending order, one exact float × float
  // product per shared term: DotSpan's sums, bit for bit.
  const TermWeight* p = probe.uni.data;
  const TermWeight* const p_end = p + probe.uni.len;
  const TermWeight* q = probe.intr.data;
  const TermWeight* const q_end = q + probe.intr.len;
  const uint32_t* t = dict + d0;
  const uint32_t* const t_end = dict + node_dict_begin_[node + 1];
  auto term_of = [](const TermWeight& w) { return w.term; };
  while (p != p_end && t != t_end) {
    if (p->term < *t) {
      p = GallopTo(p, p_end, *t, term_of);
      continue;
    }
    if (*t < p->term) {
      t = GallopTo(t, t_end, p->term, [](uint32_t term) { return term; });
      continue;
    }
    const uint32_t d = static_cast<uint32_t>(t - dict);
    bool in_intr = false;
    float intr_weight = 0.0f;
    if (q != q_end && q->term <= p->term) {
      q = GallopTo(q, q_end, p->term, term_of);
      if (q != q_end && q->term == p->term) {
        in_intr = true;
        intr_weight = q->weight;
        ++q;
      }
    }
    if (aux == kNoNode) {
      // Intersections are unions here: one run feeds both sums.
      const uint32_t begin = dict_begin_[d];
      const uint32_t end = dict_begin_[d + 1];
      if (in_intr) {
        for (uint32_t i = begin; i < end; ++i) {
          uni[slot_of[i]] += static_cast<double>(p->weight) * weight_of[i];
          intr[slot_of[i]] += static_cast<double>(intr_weight) * weight_of[i];
        }
      } else {
        add(begin, end, p->weight, uni);
      }
    } else {
      // Runs: [begin, ends[0]) entry union, [ends[0], ends[1]) entry
      // intersection, [ends[1], ends[2]) cluster union, [ends[2], next
      // begin) cluster intersection.
      const uint32_t* ends = &dict_aux_[aux + 3 * (d - d0)];
      if (clusters) {
        add(ends[1], ends[2], p->weight, uni);
        if (in_intr) add(ends[2], dict_begin_[d + 1], intr_weight, intr);
      } else {
        add(dict_begin_[d], ends[0], p->weight, uni);
        if (in_intr) add(ends[0], ends[1], intr_weight, intr);
      }
    }
    ++p;
    ++t;
  }
}

void FrozenTree::ChargeAccess(uint32_t node, IoStats* stats) const {
  if (stats == nullptr) return;
  stats->AddNodeRead();
  if (has_payloads_ && node_invfile_[node].valid()) {
    stats->AddPayloadRead(node_invfile_[node].bytes);
  }
}

Status FrozenTree::ReadNodePayload(uint32_t node, BufferPool* pool,
                                   IoStats* stats, InvertedFile* out) const {
  if (!has_payloads_ || !node_invfile_[node].valid()) {
    return Status::FailedPrecondition("frozen tree has no payloads");
  }
  stats->AddNodeRead();
  auto payload = pool->Fetch(node_invfile_[node], stats);
  if (!payload.ok()) return payload.status();
  size_t offset = 0;
  obs::TraceSpan decode_span(pool->trace(), obs::names::kSpanPayloadDecode);
  return DecodeInvertedFile(*payload.value(), &offset, out);
}

std::string FrozenTree::SerializeToString() const {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  PutVarint32(&out, kFormatVersion);
  uint8_t flags = 0;
  if (clustered_) flags |= 1;
  if (has_payloads_) flags |= 2;
  out.push_back(static_cast<char>(flags));
  PutVarint64(&out, size_);
  PutVarint32(&out, num_nodes());
  PutVarint32(&out, num_entries());
  PutVarint32(&out, static_cast<uint32_t>(clusters_.size()));
  PutVarint64(&out, pool_.size());
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    out.push_back(static_cast<char>(node_leaf_[n]));
    PutVarint32(&out, node_entry_begin_[n]);
    PutVarint32(&out, node_entry_count_[n]);
  }
  for (uint32_t e = 0; e < num_entries(); ++e) {
    PutDouble(&out, entry_rect_[e].min_x);
    PutDouble(&out, entry_rect_[e].min_y);
    PutDouble(&out, entry_rect_[e].max_x);
    PutDouble(&out, entry_rect_[e].max_y);
    PutVarint32(&out, entry_id_[e] == kNoObject ? 0 : entry_id_[e] + 1);
    PutVarint32(&out, entry_child_[e] == kNoNode ? 0 : entry_child_[e] + 1);
    PutVarint32(&out, entry_level_[e]);
    PutSummaryRef(&out, entry_summary_[e]);
    PutVarint32(&out, entry_cluster_begin_[e]);
    PutVarint32(&out, entry_cluster_count_[e]);
  }
  for (const ClusterRef& c : clusters_) {
    PutVarint32(&out, c.cluster_id);
    PutSummaryRef(&out, c.summary);
  }
  for (const TermWeight& tw : pool_) {
    PutVarint32(&out, tw.term);
    PutFloat(&out, tw.weight);
  }
  PutFixed64(&out, Fnv1a64(out.data(), out.size()));
  return out;
}

Result<FrozenTree> FrozenTree::Deserialize(const std::string& bytes) {
  if (bytes.size() < sizeof(kMagic) + 8) {
    return Status::Corruption("frozen index: file too short");
  }
  if (std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::Corruption("frozen index: bad magic");
  }
  // Verify the trailing checksum before trusting any field.
  size_t tail = bytes.size() - 8;
  uint64_t stored_checksum = 0;
  {
    size_t off = tail;
    Status status = GetFixed64(bytes, &off, &stored_checksum);
    if (!status.ok()) return status;
  }
  if (Fnv1a64(bytes.data(), tail) != stored_checksum) {
    return Status::Corruption("frozen index: checksum mismatch");
  }

  size_t offset = sizeof(kMagic);
  FrozenTree out;
  uint32_t version = 0;
  Status status = GetVarint32(bytes, &offset, &version);
  if (!status.ok()) return status;
  if (version != kFormatVersion) {
    return Status::InvalidArgument("frozen index: unsupported format version");
  }
  if (offset >= tail) return Status::Corruption("frozen index: truncated");
  const uint8_t flags = static_cast<uint8_t>(bytes[offset++]);
  out.clustered_ = (flags & 1) != 0;
  out.has_payloads_ = (flags & 2) != 0;

  uint32_t num_nodes = 0, num_entries = 0, num_clusters = 0;
  uint64_t pool_size = 0;
  status = GetVarint64(bytes, &offset, &out.size_);
  if (!status.ok()) return status;
  status = GetVarint32(bytes, &offset, &num_nodes);
  if (!status.ok()) return status;
  status = GetVarint32(bytes, &offset, &num_entries);
  if (!status.ok()) return status;
  status = GetVarint32(bytes, &offset, &num_clusters);
  if (!status.ok()) return status;
  status = GetVarint64(bytes, &offset, &pool_size);
  if (!status.ok()) return status;
  // Cheap sanity cap before any reserve: every node/entry/cluster/pool item
  // costs at least one serialized byte, so counts beyond the file size mean
  // corruption (and would otherwise trigger huge allocations).
  const uint64_t total_items = static_cast<uint64_t>(num_nodes) + num_entries +
                               num_clusters + pool_size;
  if (total_items > bytes.size()) {
    return Status::Corruption("frozen index: counts exceed file size");
  }

  out.node_leaf_.reserve(num_nodes);
  out.node_entry_begin_.reserve(num_nodes);
  out.node_entry_count_.reserve(num_nodes);
  for (uint32_t n = 0; n < num_nodes; ++n) {
    if (offset >= tail) return Status::Corruption("frozen index: truncated");
    out.node_leaf_.push_back(static_cast<uint8_t>(bytes[offset++]));
    uint32_t begin = 0, count = 0;
    status = GetVarint32(bytes, &offset, &begin);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &count);
    if (!status.ok()) return status;
    out.node_entry_begin_.push_back(begin);
    out.node_entry_count_.push_back(count);
  }
  out.node_record_.assign(num_nodes, PageHandle());
  out.node_invfile_.assign(num_nodes, PageHandle());

  out.entry_rect_.reserve(num_entries);
  out.entry_id_.reserve(num_entries);
  out.entry_child_.reserve(num_entries);
  out.entry_level_.reserve(num_entries);
  out.entry_summary_.reserve(num_entries);
  out.entry_cluster_begin_.reserve(num_entries);
  out.entry_cluster_count_.reserve(num_entries);
  for (uint32_t e = 0; e < num_entries; ++e) {
    Rect rect;
    status = GetDouble(bytes, &offset, &rect.min_x);
    if (!status.ok()) return status;
    status = GetDouble(bytes, &offset, &rect.min_y);
    if (!status.ok()) return status;
    status = GetDouble(bytes, &offset, &rect.max_x);
    if (!status.ok()) return status;
    status = GetDouble(bytes, &offset, &rect.max_y);
    if (!status.ok()) return status;
    uint32_t id_plus = 0, child_plus = 0, level = 0;
    status = GetVarint32(bytes, &offset, &id_plus);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &child_plus);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &level);
    if (!status.ok()) return status;
    SummaryRef summary;
    status = GetSummaryRef(bytes, &offset, &summary);
    if (!status.ok()) return status;
    uint32_t cluster_begin = 0, cluster_count = 0;
    status = GetVarint32(bytes, &offset, &cluster_begin);
    if (!status.ok()) return status;
    status = GetVarint32(bytes, &offset, &cluster_count);
    if (!status.ok()) return status;
    out.entry_rect_.push_back(rect);
    out.entry_id_.push_back(id_plus == 0 ? kNoObject : id_plus - 1);
    out.entry_child_.push_back(child_plus == 0 ? kNoNode : child_plus - 1);
    out.entry_level_.push_back(level);
    out.entry_summary_.push_back(summary);
    out.entry_cluster_begin_.push_back(cluster_begin);
    out.entry_cluster_count_.push_back(cluster_count);
  }

  out.clusters_.reserve(num_clusters);
  for (uint32_t c = 0; c < num_clusters; ++c) {
    ClusterRef cluster;
    status = GetVarint32(bytes, &offset, &cluster.cluster_id);
    if (!status.ok()) return status;
    status = GetSummaryRef(bytes, &offset, &cluster.summary);
    if (!status.ok()) return status;
    out.clusters_.push_back(cluster);
  }

  out.pool_.reserve(pool_size);
  for (uint64_t i = 0; i < pool_size; ++i) {
    TermWeight tw;
    status = GetVarint32(bytes, &offset, &tw.term);
    if (!status.ok()) return status;
    status = GetFloat(bytes, &offset, &tw.weight);
    if (!status.ok()) return status;
    out.pool_.push_back(tw);
  }
  if (offset != tail) {
    return Status::Corruption("frozen index: trailing bytes");
  }

  status = out.CheckInvariants();
  if (!status.ok()) return status;
  out.RecomputeNorms();
  status = out.DeriveSearchArrays();
  if (!status.ok()) return status;
  if (out.has_payloads_) out.RebuildPayloads();
  return out;
}

Status FrozenTree::Save(const std::string& path) const {
  return WriteStringToFile(path, SerializeToString());
}

Result<FrozenTree> FrozenTree::Load(const std::string& path) {
  Stopwatch timer;
  Result<std::string> bytes = ReadFileToString(path);
  if (!bytes.ok()) return bytes.status();
  Result<FrozenTree> tree = Deserialize(bytes.value());
  if (!tree.ok()) return tree.status();
  const FrozenMetrics& metrics = FrozenMetrics::Get();
  metrics.loads.Increment();
  metrics.load_ms.Set(timer.ElapsedMillis());
  return tree;
}

Status FrozenTree::CheckInvariants() const {
  if (num_nodes() == 0) return Status::Corruption("frozen index: no root");
  if (node_entry_begin_.size() != num_nodes() ||
      node_entry_count_.size() != num_nodes()) {
    return Status::Corruption("frozen index: node array size mismatch");
  }
  // Entries tile [0, num_entries) in node order (the layout walk appends a
  // popped node's entries consecutively).
  uint32_t expected_begin = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    if (node_entry_begin_[n] != expected_begin) {
      return Status::Corruption("frozen index: entries do not tile");
    }
    if (node_entry_count_[n] >
        num_entries() - expected_begin) {
      return Status::Corruption("frozen index: entry span overflow");
    }
    expected_begin += node_entry_count_[n];
  }
  if (expected_begin != num_entries()) {
    return Status::Corruption("frozen index: dangling entries");
  }
  std::vector<uint8_t> child_seen(num_nodes(), 0);
  uint64_t objects = 0;
  for (uint32_t n = 0; n < num_nodes(); ++n) {
    const uint32_t begin = node_entry_begin_[n];
    for (uint32_t i = 0; i < node_entry_count_[n]; ++i) {
      const uint32_t e = begin + i;
      if (IsLeaf(n)) {
        if (entry_child_[e] != kNoNode) {
          return Status::Corruption("frozen index: leaf entry with child");
        }
        if (entry_id_[e] == kNoObject) {
          return Status::Corruption("frozen index: leaf entry without object");
        }
        ++objects;
      } else {
        const uint32_t child = entry_child_[e];
        if (child == kNoNode) {
          return Status::Corruption("frozen index: internal entry w/o child");
        }
        // Children pop after their parent in the layout walk, so a child
        // index <= its parent's means a cycle or a forged link.
        if (child <= n || child >= num_nodes()) {
          return Status::Corruption("frozen index: child index out of order");
        }
        if (child_seen[child]++ != 0) {
          return Status::Corruption("frozen index: node with two parents");
        }
        const uint32_t child_begin = node_entry_begin_[child];
        for (uint32_t j = 0; j < node_entry_count_[child]; ++j) {
          if (entry_level_[child_begin + j] != entry_level_[e] + 1) {
            return Status::Corruption("frozen index: inconsistent levels");
          }
        }
      }
    }
  }
  for (uint32_t n = 1; n < num_nodes(); ++n) {
    if (child_seen[n] == 0) {
      return Status::Corruption("frozen index: orphan node");
    }
  }
  if (objects != size_) {
    return Status::Corruption("frozen index: object count mismatch");
  }
  std::vector<uint32_t> subtree_end;
  const Status preorder = ComputeSubtreeEnds(&subtree_end);
  if (!preorder.ok()) return preorder;
  auto check_ref = [this](const SummaryRef& s) {
    return s.uni.offset + s.uni.len <= pool_.size() &&
           s.intr.offset + s.intr.len <= pool_.size();
  };
  for (const SummaryRef& s : entry_summary_) {
    if (!check_ref(s)) {
      return Status::Corruption("frozen index: summary slice out of pool");
    }
  }
  for (uint32_t e = 0; e < num_entries(); ++e) {
    const uint64_t end = static_cast<uint64_t>(entry_cluster_begin_[e]) +
                         entry_cluster_count_[e];
    if (end > clusters_.size()) {
      return Status::Corruption("frozen index: cluster span out of range");
    }
  }
  for (const ClusterRef& c : clusters_) {
    if (!check_ref(c.summary)) {
      return Status::Corruption("frozen index: cluster slice out of pool");
    }
  }
  // Same bracketing contract the IurTree enforces: slices sorted, weights
  // non-negative, and the intersection dominated by the union — otherwise the
  // frozen kernels could compute MinSim > MaxSim.
  auto check_summary = [this](const SummaryRef& s) -> Status {
    const TermSlice* slices[] = {&s.uni, &s.intr};
    for (const TermSlice* slice : slices) {
      for (uint32_t i = 0; i < slice->len; ++i) {
        const TermWeight& w = pool_[slice->offset + i];
        if (i > 0 && pool_[slice->offset + i - 1].term >= w.term) {
          return Status::Corruption("frozen index: unsorted summary slice");
        }
        if (w.weight < 0.0f) {
          return Status::Corruption("frozen index: negative summary weight");
        }
      }
    }
    for (uint32_t i = 0; i < s.intr.len; ++i) {
      const TermWeight& w = pool_[s.intr.offset + i];
      if (!ContainsSpan(&pool_[s.uni.offset], s.uni.len, w.term) ||
          w.weight > GetSpan(&pool_[s.uni.offset], s.uni.len, w.term)) {
        return Status::Corruption(
            "frozen index: intersection not dominated by union for term " +
            std::to_string(w.term));
      }
    }
    return Status::Ok();
  };
  for (const SummaryRef& s : entry_summary_) {
    const Status summary_ok = check_summary(s);
    if (!summary_ok.ok()) return summary_ok;
  }
  for (const ClusterRef& c : clusters_) {
    const Status summary_ok = check_summary(c.summary);
    if (!summary_ok.ok()) return summary_ok;
  }
  return Status::Ok();
}

TextBounds SummaryTextBounds(const FrozenTree& tree, uint32_t e,
                             const SummarySpan& other,
                             const TextSimilarity& sim) {
  const uint32_t nc = tree.NumClusters(e);
  if (nc == 0) {
    const SummarySpan s = tree.Summary(e);
    return {sim.MinSim(s, other), sim.MaxSim(s, other)};
  }
  TextBounds bounds{1.0, 0.0};
  for (uint32_t i = 0; i < nc; ++i) {
    const SummarySpan s = tree.ClusterSummary(e, i);
    bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(s, other));
    bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(s, other));
  }
  return bounds;
}

TextBounds PairTextBounds(const FrozenTree& tree, uint32_t a, uint32_t b,
                          const TextSimilarity& sim) {
  const uint32_t na = tree.NumClusters(a);
  const uint32_t nb = tree.NumClusters(b);
  if (na == 0 && nb == 0) {
    const SummarySpan sa = tree.Summary(a);
    const SummarySpan sb = tree.Summary(b);
    return {sim.MinSim(sa, sb), sim.MaxSim(sa, sb)};
  }
  TextBounds bounds{1.0, 0.0};
  for (uint32_t i = 0; i < std::max<uint32_t>(na, 1); ++i) {
    const SummarySpan sa = na == 0 ? tree.Summary(a) : tree.ClusterSummary(a, i);
    for (uint32_t j = 0; j < std::max<uint32_t>(nb, 1); ++j) {
      const SummarySpan sb =
          nb == 0 ? tree.Summary(b) : tree.ClusterSummary(b, j);
      bounds.min_sim = std::min(bounds.min_sim, sim.MinSim(sa, sb));
      bounds.max_sim = std::max(bounds.max_sim, sim.MaxSim(sa, sb));
    }
  }
  return bounds;
}

double ClusterEntropyOf(const FrozenTree& tree, uint32_t e) {
  const uint32_t nc = tree.NumClusters(e);
  if (nc == 0) return 0.0;
  std::vector<uint32_t> counts;
  counts.reserve(nc);
  for (uint32_t i = 0; i < nc; ++i) counts.push_back(tree.ClusterCount(e, i));
  return ClusterEntropy(counts);
}

}  // namespace frozen
}  // namespace rst
