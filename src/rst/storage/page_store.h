#ifndef RST_STORAGE_PAGE_STORE_H_
#define RST_STORAGE_PAGE_STORE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "rst/common/status.h"
#include "rst/storage/io_stats.h"

namespace rst {

using PageId = uint32_t;

/// A handle to a contiguous payload stored in the page store.
struct PageHandle {
  PageId first_page = 0;
  uint32_t num_pages = 0;
  uint32_t bytes = 0;

  bool valid() const { return num_pages > 0; }
};

/// Append-only simulated disk of 4 KiB pages. Index structures serialize
/// their node payloads and inverted files here; every Read charges the
/// simulated I/O cost of the pages it touches (unless served by a
/// BufferPool layered above). Page numbering and page counts are those of a
/// padded disk (a payload spans ⌈bytes / 4 KiB⌉ pages, at least one), but the
/// backing memory holds each payload at its own size, so PayloadBytes() is
/// what the store really occupies and TotalBytes() what the disk would.
class PageStore {
 public:
  static constexpr size_t kPageSize = IoStats::kPageSize;

  PageStore() = default;
  PageStore(const PageStore&) = delete;
  PageStore& operator=(const PageStore&) = delete;

  /// Appends `payload` on fresh pages. Never fails (memory-backed).
  PageHandle Write(const std::string& payload);

  /// Reads the payload for `handle` into `*out`, charging `stats` (if
  /// non-null) one payload read of handle.bytes. A handle that is not one
  /// Write() returned (it does not start a payload, or its extent differs)
  /// is an error.
  Status Read(const PageHandle& handle, std::string* out,
              IoStats* stats) const;

  size_t num_pages() const { return num_pages_; }
  uint64_t TotalBytes() const { return num_pages_ * kPageSize; }
  uint64_t PayloadBytes() const { return payload_bytes_; }

 private:
  /// Written payloads in write order, so first pages ascend.
  std::vector<PageId> first_pages_;
  std::vector<std::string> payloads_;
  size_t num_pages_ = 0;
  uint64_t payload_bytes_ = 0;
};

}  // namespace rst

#endif  // RST_STORAGE_PAGE_STORE_H_
