#include "rst/storage/codec.h"

#include <algorithm>
#include <cmath>

#include "rst/storage/varint.h"

namespace rst {

namespace {

void EncodeTermSpan(const TermSpan& span, std::string* dst) {
  PutVarint32(dst, span.len);
  TermId prev = 0;
  for (const TermWeight* e = span.data; e != span.data + span.len; ++e) {
    PutVarint32(dst, e->term - prev);
    PutFloat(dst, e->weight);
    prev = e->term;
  }
}

}  // namespace

void EncodeTermVector(const TermVector& vec, std::string* dst) {
  EncodeTermSpan(AsSpan(vec), dst);
}

Status DecodeTermVector(const std::string& src, size_t* offset,
                        TermVector* out) {
  uint32_t count = 0;
  Status s = GetVarint32(src, offset, &count);
  if (!s.ok()) return s;
  std::vector<TermWeight> entries;
  // Never trust a decoded count for allocation: each entry needs >= 5 bytes.
  entries.reserve(std::min<size_t>(count, (src.size() - *offset) / 5 + 1));
  TermId prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    float weight = 0.0f;
    s = GetVarint32(src, offset, &delta);
    if (!s.ok()) return s;
    s = GetFloat(src, offset, &weight);
    if (!s.ok()) return s;
    if (i > 0 && delta == 0) return Status::Corruption("duplicate term id");
    if (weight < 0.0f || !std::isfinite(weight)) {
      return Status::Corruption("invalid term weight");
    }
    prev += delta;
    entries.push_back({prev, weight});
  }
  *out = TermVector::FromSorted(std::move(entries));
  return Status::Ok();
}

void EncodeTextSummary(const SummarySpan& summary, std::string* dst) {
  PutVarint32(dst, summary.count);
  EncodeTermSpan(summary.uni, dst);
  EncodeTermSpan(summary.intr, dst);
}

Status DecodeTextSummary(const std::string& src, size_t* offset,
                         TextSummary* out) {
  Status s = GetVarint32(src, offset, &out->count);
  if (!s.ok()) return s;
  s = DecodeTermVector(src, offset, &out->uni);
  if (!s.ok()) return s;
  return DecodeTermVector(src, offset, &out->intr);
}

void EncodePostingList(const std::vector<Posting>& postings,
                       std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(postings.size()));
  uint32_t prev = 0;
  for (const Posting& p : postings) {
    PutVarint32(dst, p.id - prev);
    PutFloat(dst, p.max_weight);
    PutFloat(dst, p.min_weight);
    prev = p.id;
  }
}

Status DecodePostingList(const std::string& src, size_t* offset,
                         std::vector<Posting>* out) {
  uint32_t count = 0;
  Status s = GetVarint32(src, offset, &count);
  if (!s.ok()) return s;
  out->clear();
  out->reserve(std::min<size_t>(count, (src.size() - *offset) / 9 + 1));
  uint32_t prev = 0;
  for (uint32_t i = 0; i < count; ++i) {
    uint32_t delta = 0;
    Posting p;
    s = GetVarint32(src, offset, &delta);
    if (!s.ok()) return s;
    s = GetFloat(src, offset, &p.max_weight);
    if (!s.ok()) return s;
    s = GetFloat(src, offset, &p.min_weight);
    if (!s.ok()) return s;
    prev += delta;
    p.id = prev;
    out->push_back(p);
  }
  return Status::Ok();
}

void EncodeInvertedFile(const InvertedFile& file, std::string* dst) {
  PutVarint32(dst, static_cast<uint32_t>(file.size()));
  TermId prev = 0;
  for (const auto& [term, postings] : file) {
    PutVarint32(dst, term - prev);
    EncodePostingList(postings, dst);
    prev = term;
  }
}

void EncodeNodeInvertedFile(const std::vector<SummarySpan>& slots,
                            std::string* dst) {
  struct Gathered {
    uint64_t key;  ///< term << 32 | slot: the map's order
    float max_weight;
    float min_weight;
  };
  size_t total = 0;
  for (const SummarySpan& s : slots) total += s.uni.len;
  std::vector<Gathered> postings;
  postings.reserve(total);
  for (uint32_t slot = 0; slot < slots.size(); ++slot) {
    const TermSpan& uni = slots[slot].uni;
    const TermSpan& intr = slots[slot].intr;
    // Both runs ascend, so one forward cursor in intr finds each union
    // term's intersection weight (0 when absent, as TermVector::Get).
    const TermWeight* q = intr.data;
    const TermWeight* const q_end = intr.data + intr.len;
    for (const TermWeight* u = uni.data; u != uni.data + uni.len; ++u) {
      while (q != q_end && q->term < u->term) ++q;
      const float min_weight =
          q != q_end && q->term == u->term ? q->weight : 0.0f;
      postings.push_back(
          {uint64_t{u->term} << 32 | slot, u->weight, min_weight});
    }
  }
  std::sort(postings.begin(), postings.end(),
            [](const Gathered& a, const Gathered& b) { return a.key < b.key; });

  uint32_t terms = 0;
  for (size_t i = 0; i < postings.size(); ++i) {
    if (i == 0 || postings[i].key >> 32 != postings[i - 1].key >> 32) ++terms;
  }
  PutVarint32(dst, terms);
  TermId prev = 0;
  for (size_t begin = 0, end = 0; begin < postings.size(); begin = end) {
    const TermId term = static_cast<TermId>(postings[begin].key >> 32);
    end = begin + 1;
    while (end < postings.size() && postings[end].key >> 32 == term) ++end;
    PutVarint32(dst, term - prev);
    PutVarint32(dst, static_cast<uint32_t>(end - begin));
    uint32_t prev_slot = 0;
    for (size_t i = begin; i < end; ++i) {
      const uint32_t slot = static_cast<uint32_t>(postings[i].key);
      PutVarint32(dst, slot - prev_slot);
      PutFloat(dst, postings[i].max_weight);
      PutFloat(dst, postings[i].min_weight);
      prev_slot = slot;
    }
    prev = term;
  }
}

Status DecodeInvertedFile(const std::string& src, size_t* offset,
                          InvertedFile* out) {
  uint32_t terms = 0;
  Status s = GetVarint32(src, offset, &terms);
  if (!s.ok()) return s;
  out->clear();
  TermId prev = 0;
  for (uint32_t i = 0; i < terms; ++i) {
    uint32_t delta = 0;
    s = GetVarint32(src, offset, &delta);
    if (!s.ok()) return s;
    prev += delta;
    std::vector<Posting> postings;
    s = DecodePostingList(src, offset, &postings);
    if (!s.ok()) return s;
    (*out)[prev] = std::move(postings);
  }
  return Status::Ok();
}

size_t TermVectorEncodedSize(const TermVector& vec) {
  size_t bytes = VarintLength(vec.size());
  TermId prev = 0;
  for (const TermWeight& e : vec.entries()) {
    bytes += VarintLength(e.term - prev) + sizeof(float);
    prev = e.term;
  }
  return bytes;
}

size_t InvertedFileEncodedSize(const InvertedFile& file) {
  size_t bytes = VarintLength(file.size());
  TermId prev = 0;
  for (const auto& [term, postings] : file) {
    bytes += VarintLength(term - prev);
    bytes += VarintLength(postings.size());
    uint32_t prev_id = 0;
    for (const Posting& p : postings) {
      bytes += VarintLength(p.id - prev_id) + 2 * sizeof(float);
      prev_id = p.id;
    }
    prev = term;
  }
  return bytes;
}

}  // namespace rst
