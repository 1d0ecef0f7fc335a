#include "rst/storage/page_store.h"

#include <algorithm>

#include "rst/obs/metrics.h"
#include "rst/obs/metric_names.h"

namespace rst {

namespace {

/// Process-wide page-store traffic counters; handles are cached so the
/// per-call cost is one relaxed atomic add.
struct PageStoreMetrics {
  obs::Counter writes;
  obs::Counter pages_written;
  obs::Counter reads;
  obs::Counter pages_read;
  obs::Counter bytes_read;

  static const PageStoreMetrics& Get() {
    static const PageStoreMetrics* metrics = [] {
      auto* m = new PageStoreMetrics();
      obs::MetricRegistry& registry = obs::MetricRegistry::Global();
      m->writes = registry.GetCounter(obs::names::kPageStoreWrites);
      m->pages_written = registry.GetCounter(obs::names::kPageStorePagesWritten);
      m->reads = registry.GetCounter(obs::names::kPageStoreReads);
      m->pages_read = registry.GetCounter(obs::names::kPageStorePagesRead);
      m->bytes_read = registry.GetCounter(obs::names::kPageStoreBytesRead);
      return m;
    }();
    return *metrics;
  }
};

}  // namespace

PageHandle PageStore::Write(const std::string& payload) {
  PageHandle handle;
  handle.first_page = static_cast<PageId>(num_pages_);
  handle.bytes = static_cast<uint32_t>(payload.size());
  handle.num_pages =
      static_cast<uint32_t>((payload.size() + kPageSize - 1) / kPageSize);
  if (handle.num_pages == 0) handle.num_pages = 1;  // empty payloads pin a page
  first_pages_.push_back(handle.first_page);
  payloads_.push_back(payload);
  num_pages_ += handle.num_pages;
  payload_bytes_ += payload.size();
  const PageStoreMetrics& metrics = PageStoreMetrics::Get();
  metrics.writes.Increment();
  metrics.pages_written.Add(handle.num_pages);
  return handle;
}

Status PageStore::Read(const PageHandle& handle, std::string* out,
                       IoStats* stats) const {
  if (!handle.valid() ||
      uint64_t{handle.first_page} + handle.num_pages > num_pages_) {
    return Status::OutOfRange("page handle outside store");
  }
  const auto it = std::lower_bound(first_pages_.begin(), first_pages_.end(),
                                   handle.first_page);
  if (it == first_pages_.end() || *it != handle.first_page) {
    return Status::InvalidArgument("page handle does not start a payload");
  }
  const std::string& payload = payloads_[it - first_pages_.begin()];
  const uint64_t pages = std::max<uint64_t>(
      1, (uint64_t{payload.size()} + kPageSize - 1) / kPageSize);
  if (payload.size() != handle.bytes || pages != handle.num_pages) {
    return Status::Corruption("page handle extent mismatch");
  }
  *out = payload;
  if (stats != nullptr) stats->AddPayloadRead(handle.bytes);
  const PageStoreMetrics& metrics = PageStoreMetrics::Get();
  metrics.reads.Increment();
  // Page-granular attribution: the unit the perf-regression gate diffs —
  // byte counts drift with encoding changes, page counts only with access
  // patterns.
  metrics.pages_read.Add(handle.num_pages);
  metrics.bytes_read.Add(handle.bytes);
  return Status::Ok();
}

}  // namespace rst
