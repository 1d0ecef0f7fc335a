#ifndef RST_STORAGE_CODEC_H_
#define RST_STORAGE_CODEC_H_

#include <map>
#include <string>
#include <vector>

#include "rst/common/status.h"
#include "rst/text/similarity.h"
#include "rst/text/term_vector.h"

namespace rst {

/// Serialization of the spatial-textual index payloads. Sizes produced here
/// drive the simulated I/O accounting, so the formats are genuinely compact:
/// delta-coded varint term/document ids and raw float32 weights.

/// --- Term vectors ---
void EncodeTermVector(const TermVector& vec, std::string* dst);
Status DecodeTermVector(const std::string& src, size_t* offset,
                        TermVector* out);

/// --- Text summaries (IUR-tree node payloads) ---
void EncodeTextSummary(const SummarySpan& summary, std::string* dst);
inline void EncodeTextSummary(const TextSummary& summary, std::string* dst) {
  EncodeTextSummary(AsSpan(summary), dst);
}
Status DecodeTextSummary(const std::string& src, size_t* offset,
                         TextSummary* out);

/// --- Posting lists (MIR-tree node inverted files) ---
/// One posting per child entry of a node, carrying the max and min weight of
/// the term in the child's subtree (the 2016 paper's <d, maxw, minw> tuples).
struct Posting {
  uint32_t id = 0;
  float max_weight = 0.0f;
  float min_weight = 0.0f;

  friend bool operator==(const Posting& a, const Posting& b) {
    return a.id == b.id && a.max_weight == b.max_weight &&
           a.min_weight == b.min_weight;
  }
};

/// An inverted file mapping terms to posting lists, as attached to each
/// IR-/MIR-tree node.
using InvertedFile = std::map<TermId, std::vector<Posting>>;

void EncodePostingList(const std::vector<Posting>& postings, std::string* dst);
Status DecodePostingList(const std::string& src, size_t* offset,
                         std::vector<Posting>* out);

void EncodeInvertedFile(const InvertedFile& file, std::string* dst);
Status DecodeInvertedFile(const std::string& src, size_t* offset,
                          InvertedFile* out);

/// The inverted file of one IUR-tree node, straight from its entries'
/// summaries (`slots[i]` is entry i's): per union term t of entry i, the
/// posting <i, uni weight, intr weight or 0>. Byte-for-byte what
/// EncodeInvertedFile writes for the InvertedFile of those postings, without
/// building the map: the postings are gathered by walking each entry's union
/// beside its intersection and sorted by (term, slot). This is the one node
/// encoder of IurTree::FinalizeStorage and of a loaded FrozenTree's payloads.
void EncodeNodeInvertedFile(const std::vector<SummarySpan>& slots,
                            std::string* dst);

/// Serialized size (bytes) without materializing the buffer.
size_t TermVectorEncodedSize(const TermVector& vec);
size_t InvertedFileEncodedSize(const InvertedFile& file);

}  // namespace rst

#endif  // RST_STORAGE_CODEC_H_
