#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "rst/common/rng.h"
#include "rst/obs/metrics.h"
#include "rst/obs/trace.h"
#include "rst/storage/buffer_pool.h"
#include "rst/storage/codec.h"
#include "rst/storage/page_store.h"
#include "rst/storage/varint.h"

namespace rst {
namespace {

TEST(VarintTest, RoundTripEdgeValues) {
  for (uint64_t v : {0ull, 1ull, 127ull, 128ull, 16383ull, 16384ull,
                     0xFFFFFFFFull, 0xFFFFFFFFFFFFFFFFull}) {
    std::string buf;
    PutVarint64(&buf, v);
    EXPECT_EQ(buf.size(), VarintLength(v));
    size_t off = 0;
    uint64_t decoded = 0;
    ASSERT_TRUE(GetVarint64(buf, &off, &decoded).ok());
    EXPECT_EQ(decoded, v);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(VarintTest, TruncationIsCorruption) {
  std::string buf;
  PutVarint64(&buf, 1234567890123ull);
  buf.resize(buf.size() - 1);
  size_t off = 0;
  uint64_t v = 0;
  EXPECT_EQ(GetVarint64(buf, &off, &v).code(), StatusCode::kCorruption);
}

TEST(VarintTest, Varint32RejectsOverflow) {
  std::string buf;
  PutVarint64(&buf, 0x1FFFFFFFFull);
  size_t off = 0;
  uint32_t v = 0;
  EXPECT_EQ(GetVarint32(buf, &off, &v).code(), StatusCode::kCorruption);
}

TEST(VarintTest, FloatAndDoubleRoundTrip) {
  std::string buf;
  PutFloat(&buf, 3.25f);
  PutDouble(&buf, -1.5e300);
  size_t off = 0;
  float f = 0;
  double d = 0;
  ASSERT_TRUE(GetFloat(buf, &off, &f).ok());
  ASSERT_TRUE(GetDouble(buf, &off, &d).ok());
  EXPECT_EQ(f, 3.25f);
  EXPECT_EQ(d, -1.5e300);
}

TEST(CodecTest, TermVectorRoundTrip) {
  Rng rng(5);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<TermWeight> entries;
    TermId t = 0;
    const size_t n = rng.UniformInt(uint64_t{40});
    for (size_t i = 0; i < n; ++i) {
      t += 1 + static_cast<TermId>(rng.UniformInt(uint64_t{1000}));
      entries.push_back({t, static_cast<float>(rng.Uniform(0.001, 9.0))});
    }
    const TermVector vec = TermVector::FromSorted(std::move(entries));
    std::string buf;
    EncodeTermVector(vec, &buf);
    EXPECT_EQ(buf.size(), TermVectorEncodedSize(vec));
    size_t off = 0;
    TermVector out;
    ASSERT_TRUE(DecodeTermVector(buf, &off, &out).ok());
    EXPECT_EQ(out, vec);
    EXPECT_EQ(off, buf.size());
  }
}

TEST(CodecTest, TextSummaryRoundTrip) {
  TextSummary s;
  s.count = 17;
  s.uni = TermVector::FromUnsorted({{1, 2.0f}, {9, 1.0f}});
  s.intr = TermVector::FromUnsorted({{9, 0.5f}});
  std::string buf;
  EncodeTextSummary(s, &buf);
  size_t off = 0;
  TextSummary out;
  ASSERT_TRUE(DecodeTextSummary(buf, &off, &out).ok());
  EXPECT_EQ(out.count, 17u);
  EXPECT_EQ(out.uni, s.uni);
  EXPECT_EQ(out.intr, s.intr);
}

TEST(CodecTest, InvertedFileRoundTrip) {
  InvertedFile file;
  file[3] = {{0, 1.0f, 0.5f}, {4, 2.0f, 0.0f}};
  file[17] = {{2, 0.25f, 0.25f}};
  std::string buf;
  EncodeInvertedFile(file, &buf);
  EXPECT_EQ(buf.size(), InvertedFileEncodedSize(file));
  size_t off = 0;
  InvertedFile out;
  ASSERT_TRUE(DecodeInvertedFile(buf, &off, &out).ok());
  EXPECT_EQ(out, file);
}

TEST(CodecTest, CorruptedInvertedFileFailsCleanly) {
  InvertedFile file;
  file[3] = {{0, 1.0f, 0.5f}};
  std::string buf;
  EncodeInvertedFile(file, &buf);
  buf.resize(buf.size() / 2);
  size_t off = 0;
  InvertedFile out;
  EXPECT_FALSE(DecodeInvertedFile(buf, &off, &out).ok());
}

TEST(PageStoreTest, WriteReadRoundTripAndAccounting) {
  PageStore store;
  IoStats stats;
  const std::string small(100, 'a');
  const std::string large(3 * PageStore::kPageSize + 5, 'b');
  const PageHandle h1 = store.Write(small);
  const PageHandle h2 = store.Write(large);
  EXPECT_EQ(h1.num_pages, 1u);
  EXPECT_EQ(h2.num_pages, 4u);
  EXPECT_EQ(store.num_pages(), 5u);

  std::string out;
  ASSERT_TRUE(store.Read(h1, &out, &stats).ok());
  EXPECT_EQ(out, small);
  EXPECT_EQ(stats.payload_blocks, 1u);
  ASSERT_TRUE(store.Read(h2, &out, &stats).ok());
  EXPECT_EQ(out, large);
  EXPECT_EQ(stats.payload_blocks, 5u);
  EXPECT_EQ(stats.payload_bytes, small.size() + large.size());
}

TEST(PageStoreTest, InvalidHandleRejected) {
  PageStore store;
  std::string out;
  PageHandle bogus;
  bogus.first_page = 10;
  bogus.num_pages = 1;
  bogus.bytes = 10;
  EXPECT_FALSE(store.Read(bogus, &out, nullptr).ok());
}

TEST(PageStoreTest, EmptyPayload) {
  PageStore store;
  const PageHandle h = store.Write("");
  std::string out = "junk";
  ASSERT_TRUE(store.Read(h, &out, nullptr).ok());
  EXPECT_TRUE(out.empty());
}

TEST(PageStoreTest, PayloadsAtPageBoundariesKeepPageAccounting) {
  PageStore store;
  IoStats stats;
  const size_t sizes[] = {0, 1, PageStore::kPageSize, PageStore::kPageSize + 1};
  const uint32_t pages[] = {1, 1, 1, 2};
  std::vector<PageHandle> handles;
  uint64_t payload = 0;
  PageId next_page = 0;
  for (size_t i = 0; i < 4; ++i) {
    const PageHandle h =
        store.Write(std::string(sizes[i], static_cast<char>('a' + i)));
    EXPECT_EQ(h.first_page, next_page);
    EXPECT_EQ(h.num_pages, pages[i]);
    EXPECT_EQ(h.bytes, sizes[i]);
    next_page += h.num_pages;
    payload += sizes[i];
    handles.push_back(h);
  }
  EXPECT_EQ(store.num_pages(), 5u);
  EXPECT_EQ(store.TotalBytes(), 5u * PageStore::kPageSize);
  // Backing memory is the payloads at their own size, not padded pages.
  EXPECT_EQ(store.PayloadBytes(), payload);
  std::string out;
  for (size_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(store.Read(handles[i], &out, &stats).ok());
    EXPECT_EQ(out, std::string(sizes[i], static_cast<char>('a' + i)));
  }
  // IoStats charges blocks by bytes: 0 + 1 + 1 + 2.
  EXPECT_EQ(stats.payload_bytes, payload);
  EXPECT_EQ(stats.payload_blocks, 4u);
}

TEST(PageStoreTest, HandleThatDoesNotStartAPayloadIsAnError) {
  PageStore store;
  store.Write(std::string(10, 'x'));
  const PageHandle two_pages =
      store.Write(std::string(PageStore::kPageSize + 1, 'y'));
  std::string out;
  PageHandle middle = two_pages;
  middle.first_page += 1;  // the second page of a two-page payload
  middle.num_pages = 1;
  middle.bytes = 1;
  EXPECT_FALSE(store.Read(middle, &out, nullptr).ok());
  PageHandle wrong_size = two_pages;
  wrong_size.bytes -= 1;
  EXPECT_FALSE(store.Read(wrong_size, &out, nullptr).ok());
  EXPECT_TRUE(store.Read(two_pages, &out, nullptr).ok());
}

TEST(BufferPoolTest, HitsDoNotChargeIo) {
  PageStore store;
  const PageHandle h = store.Write(std::string(10, 'x'));
  BufferPool pool(&store, /*capacity_pages=*/8);
  IoStats stats;
  auto r1 = pool.Fetch(h, &stats);
  ASSERT_TRUE(r1.ok());
  EXPECT_EQ(stats.payload_blocks, 1u);
  auto r2 = pool.Fetch(h, &stats);
  ASSERT_TRUE(r2.ok());
  EXPECT_EQ(stats.payload_blocks, 1u);  // unchanged: cache hit
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(pool.hits(), 1u);
  EXPECT_EQ(pool.misses(), 1u);
  EXPECT_EQ(r2.value()->at(0), 'x');
}

TEST(BufferPoolTest, LruEvictsColdest) {
  PageStore store;
  std::vector<PageHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(store.Write(std::string(PageStore::kPageSize, 'a' + i)));
  }
  BufferPool pool(&store, /*capacity_pages=*/2);
  IoStats stats;
  ASSERT_TRUE(pool.Fetch(handles[0], &stats).ok());
  ASSERT_TRUE(pool.Fetch(handles[1], &stats).ok());
  // Touch 0 so 1 becomes the LRU victim.
  ASSERT_TRUE(pool.Fetch(handles[0], &stats).ok());
  ASSERT_TRUE(pool.Fetch(handles[2], &stats).ok());  // evicts 1
  EXPECT_EQ(pool.used_pages(), 2u);
  stats.Reset();
  ASSERT_TRUE(pool.Fetch(handles[0], &stats).ok());
  EXPECT_EQ(stats.payload_blocks, 0u);  // still resident
  ASSERT_TRUE(pool.Fetch(handles[1], &stats).ok());
  EXPECT_EQ(stats.payload_blocks, 1u);  // was evicted
}

TEST(BufferPoolTest, PinnedPayloadSurvivesPressure) {
  PageStore store;
  std::vector<PageHandle> handles;
  for (int i = 0; i < 4; ++i) {
    handles.push_back(store.Write(std::string(PageStore::kPageSize, 'a' + i)));
  }
  BufferPool pool(&store, /*capacity_pages=*/2);
  IoStats stats;
  ASSERT_TRUE(pool.Pin(handles[0], &stats).ok());
  ASSERT_TRUE(pool.Fetch(handles[1], &stats).ok());
  ASSERT_TRUE(pool.Fetch(handles[2], &stats).ok());
  ASSERT_TRUE(pool.Fetch(handles[3], &stats).ok());
  stats.Reset();
  ASSERT_TRUE(pool.Fetch(handles[0], &stats).ok());
  EXPECT_EQ(stats.payload_blocks, 0u);  // pinned: never evicted
  ASSERT_TRUE(pool.Unpin(handles[0]).ok());
  EXPECT_FALSE(pool.Unpin(handles[0]).ok());  // double unpin rejected
}

TEST(BufferPoolTest, ZeroCapacityDisablesCaching) {
  PageStore store;
  const PageHandle h = store.Write("abc");
  BufferPool pool(&store, 0);
  IoStats stats;
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());
  EXPECT_EQ(stats.payload_blocks, 2u);
  EXPECT_EQ(pool.resident_payloads(), 0u);
}

TEST(BufferPoolTest, EvictionAccountingReachesRegistry) {
  PageStore store;
  std::vector<PageHandle> handles;
  for (int i = 0; i < 3; ++i) {
    handles.push_back(store.Write(std::string(PageStore::kPageSize, 'a' + i)));
  }
  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  BufferPool pool(&store, /*capacity_pages=*/1);
  IoStats stats;
  ASSERT_TRUE(pool.Fetch(handles[0], &stats).ok());
  ASSERT_TRUE(pool.Fetch(handles[1], &stats).ok());  // evicts 0
  ASSERT_TRUE(pool.Fetch(handles[2], &stats).ok());  // evicts 1
  ASSERT_TRUE(pool.Fetch(handles[0], &stats).ok());  // evicts 2
  EXPECT_EQ(pool.evictions(), 3u);
  EXPECT_EQ(pool.misses(), 4u);
  EXPECT_EQ(pool.used_pages(), 1u);

  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("storage.buffer_pool.evictions"), 3u);
  EXPECT_EQ(delta.counters.at("storage.buffer_pool.misses"), 4u);
}

TEST(BufferPoolTest, HitRateTracksHitsOverAccesses) {
  PageStore store;
  const PageHandle h = store.Write("payload");
  BufferPool pool(&store, /*capacity_pages=*/4);
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.0);  // no accesses yet
  IoStats stats;
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());  // miss
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.0);
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());  // hit
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());  // hit
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());  // hit
  EXPECT_DOUBLE_EQ(pool.hit_rate(), 0.75);
}

TEST(BufferPoolTest, MissFillsRecordTraceSpans) {
  PageStore store;
  const PageHandle h = store.Write("abc");
  BufferPool pool(&store, /*capacity_pages=*/4);
  obs::QueryTrace trace("test");
  pool.set_trace(&trace);
  IoStats stats;
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());  // miss: fill span
  ASSERT_TRUE(pool.Fetch(h, &stats).ok());  // hit: no span
  trace.Finish();
  ASSERT_EQ(trace.root().children.size(), 1u);
  EXPECT_EQ(trace.root().children[0]->name, "buffer_pool.fill");
  EXPECT_EQ(trace.root().children[0]->calls, 1u);
}

TEST(BufferPoolTest, ConcurrentReadersStayConsistent) {
  // Several threads hammer one pool with deterministic fetch sequences.
  // Under TSan this exercises the shared-lock hit path racing the unique-lock
  // fill path; on any build it checks the accounting invariants.
  PageStore store;
  std::vector<PageHandle> handles;
  for (int i = 0; i < 12; ++i) {
    handles.push_back(
        store.Write(std::string(PageStore::kPageSize, 'a' + i % 26)));
  }
  BufferPool pool(&store, /*capacity_pages=*/6);

  constexpr size_t kThreads = 6;
  constexpr size_t kFetchesPerThread = 400;
  std::vector<IoStats> per_thread(kThreads);
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (size_t i = 0; i < kFetchesPerThread; ++i) {
        const size_t pick = (i * (t + 3)) % handles.size();
        auto r = pool.Fetch(handles[pick], &per_thread[t]);
        ASSERT_TRUE(r.ok());
        ASSERT_EQ(r.value()->size(), PageStore::kPageSize);
        ASSERT_EQ(r.value()->at(0), static_cast<char>('a' + pick % 26));
      }
    });
  }
  for (std::thread& th : threads) th.join();

  // Every access is a hit or a miss (a raced double-fill counts as two
  // misses, so the identity still holds).
  EXPECT_EQ(pool.hits() + pool.misses(), kThreads * kFetchesPerThread);
  uint64_t thread_hits = 0;
  for (const IoStats& s : per_thread) thread_hits += s.cache_hits;
  EXPECT_EQ(thread_hits, pool.hits());
  EXPECT_LE(pool.used_pages(), 6u);
  EXPECT_GT(pool.hits(), 0u);
  EXPECT_GT(pool.misses(), 0u);
}

TEST(IoStatsTest, BlockRoundingAndTotal) {
  IoStats stats;
  stats.AddNodeRead();
  stats.AddPayloadRead(1);
  stats.AddPayloadRead(IoStats::kPageSize);
  stats.AddPayloadRead(IoStats::kPageSize + 1);
  EXPECT_EQ(stats.node_reads, 1u);
  EXPECT_EQ(stats.payload_blocks, 1u + 1u + 2u);
  EXPECT_EQ(stats.TotalIos(), 5u);
  IoStats other;
  other.AddNodeRead();
  stats += other;
  EXPECT_EQ(stats.node_reads, 2u);
  stats.Reset();
  EXPECT_EQ(stats.TotalIos(), 0u);
}

TEST(IoStatsTest, PayloadBlockCeilEdgeCases) {
  IoStats stats;
  stats.AddPayloadRead(0);  // ceil(0/4096) = 0: no block charged
  EXPECT_EQ(stats.payload_blocks, 0u);
  EXPECT_EQ(stats.payload_bytes, 0u);
  stats.AddPayloadRead(4096);  // exactly one page
  EXPECT_EQ(stats.payload_blocks, 1u);
  stats.AddPayloadRead(4097);  // one byte over: two pages
  EXPECT_EQ(stats.payload_blocks, 3u);
  EXPECT_EQ(stats.payload_bytes, 4096u + 4097u);
}

TEST(IoStatsTest, ToStringFormatsAllFields) {
  IoStats stats;
  EXPECT_EQ(stats.ToString(),
            "IoStats{nodes=0, blocks=0, bytes=0, hits=0, total=0}");
  stats.AddNodeRead();
  stats.AddNodeRead();
  stats.AddPayloadRead(4097);
  stats.AddCacheHit();
  EXPECT_EQ(stats.ToString(),
            "IoStats{nodes=2, blocks=2, bytes=4097, hits=1, total=4}");
}

TEST(IoStatsTest, PublishBridgesFieldsToRegistry) {
  const obs::MetricsSnapshot before = obs::MetricRegistry::Global().Snapshot();
  IoStats stats;
  stats.AddNodeRead();
  stats.AddPayloadRead(IoStats::kPageSize + 1);
  stats.AddCacheHit();
  // rst-lint: allow(metric-name-literal) scratch prefix; this test pins Publish() expansion itself
  stats.Publish("test.io");
  const obs::MetricsSnapshot delta =
      obs::MetricRegistry::Global().Snapshot().Delta(before);
  EXPECT_EQ(delta.counters.at("test.io.node_reads"), 1u);
  EXPECT_EQ(delta.counters.at("test.io.payload_blocks"), 2u);
  EXPECT_EQ(delta.counters.at("test.io.payload_bytes"), IoStats::kPageSize + 1);
  EXPECT_EQ(delta.counters.at("test.io.cache_hits"), 1u);
}

}  // namespace
}  // namespace rst
