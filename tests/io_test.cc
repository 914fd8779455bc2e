// Unit tests for the block-I/O substrate: BlockDevice, Pager, PageIo.

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <numeric>
#include <span>
#include <thread>
#include <vector>

#include "ccidx/io/block_device.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/io/pager.h"

namespace ccidx {
namespace {

constexpr uint32_t kPageSize = 256;

// Whole-page copies through the pin API: an overwrite pin plus a memcpy
// in, a read pin plus a memcpy out.
Status WritePage(Pager* pager, PageId id, std::span<const uint8_t> in) {
  auto page = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(page.status());
  std::memcpy(page->data().data(), in.data(), in.size());
  return page->Release();
}

Status ReadPage(Pager* pager, PageId id, std::span<uint8_t> out) {
  auto page = pager->Pin(id);
  CCIDX_RETURN_IF_ERROR(page.status());
  std::memcpy(out.data(), page->data().data(), out.size());
  return Status::OK();
}

TEST(BlockDeviceTest, AllocateReadWriteRoundTrip) {
  BlockDevice dev(kPageSize);
  PageId id = dev.Allocate();
  std::vector<uint8_t> in(kPageSize), out(kPageSize);
  std::iota(in.begin(), in.end(), 0);
  ASSERT_TRUE(dev.Write(id, in).ok());
  ASSERT_TRUE(dev.Read(id, out).ok());
  EXPECT_EQ(in, out);
}

TEST(BlockDeviceTest, CountsIos) {
  BlockDevice dev(kPageSize);
  PageId id = dev.Allocate();
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_EQ(dev.stats().TotalIos(), 0u);
  ASSERT_TRUE(dev.Write(id, buf).ok());
  ASSERT_TRUE(dev.Read(id, buf).ok());
  ASSERT_TRUE(dev.Read(id, buf).ok());
  EXPECT_EQ(dev.stats().device_writes, 1u);
  EXPECT_EQ(dev.stats().device_reads, 2u);
  EXPECT_EQ(dev.stats().TotalIos(), 3u);
}

TEST(BlockDeviceTest, FreshPageIsZeroed) {
  BlockDevice dev(kPageSize);
  PageId id = dev.Allocate();
  std::vector<uint8_t> buf(kPageSize, 0xAB);
  ASSERT_TRUE(dev.Read(id, buf).ok());
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(BlockDeviceTest, FreeAndReuse) {
  BlockDevice dev(kPageSize);
  PageId a = dev.Allocate();
  std::vector<uint8_t> buf(kPageSize, 0xCD);
  ASSERT_TRUE(dev.Write(a, buf).ok());
  ASSERT_TRUE(dev.Free(a).ok());
  EXPECT_EQ(dev.live_pages(), 0u);
  // Reused page must come back zeroed.
  PageId b = dev.Allocate();
  EXPECT_EQ(a, b);
  ASSERT_TRUE(dev.Read(b, buf).ok());
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](uint8_t v) { return v == 0; }));
}

TEST(BlockDeviceTest, ErrorsOnInvalidAccess) {
  BlockDevice dev(kPageSize);
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_EQ(dev.Read(99, buf).code(), StatusCode::kIoError);
  EXPECT_EQ(dev.Write(99, buf).code(), StatusCode::kIoError);
  PageId id = dev.Allocate();
  ASSERT_TRUE(dev.Free(id).ok());
  EXPECT_FALSE(dev.Free(id).ok());          // double free
  EXPECT_FALSE(dev.Read(id, buf).ok());     // read after free
  std::vector<uint8_t> small(8);
  PageId id2 = dev.Allocate();
  EXPECT_EQ(dev.Read(id2, small).code(), StatusCode::kInvalidArgument);
}

TEST(BlockDeviceTest, LivePagesTracksFootprint) {
  BlockDevice dev(kPageSize);
  std::vector<PageId> ids;
  for (int i = 0; i < 10; ++i) ids.push_back(dev.Allocate());
  EXPECT_EQ(dev.live_pages(), 10u);
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dev.Free(ids[i]).ok());
  EXPECT_EQ(dev.live_pages(), 6u);
}

TEST(BlockDeviceTest, HighWaterAllocationZeroesOnlyRestoreOrphanedPages) {
  BlockDevice dev(kPageSize);
  (void)dev.Allocate();
  BlockDevice::AllocationSnapshot snap = dev.SnapshotAllocation();

  // Ordinary high-water-mark growth: the backend guarantees zeros, so no
  // zeroing page write is issued (bulk builds pay one write per page, not
  // two).
  uint64_t w0 = dev.stats().device_writes;
  PageId b = dev.Allocate();
  EXPECT_EQ(dev.stats().device_writes, w0);
  std::vector<uint8_t> junk(kPageSize, 0xEE);
  ASSERT_TRUE(dev.Write(b, junk).ok());

  // Recovery shrinks the table past b; re-growing re-covers b's backend
  // storage, whose stale bytes must be zeroed — and that page write must
  // show up in the I/O metric.
  dev.RestoreAllocation(snap);
  uint64_t w1 = dev.stats().device_writes;
  PageId c = dev.Allocate();
  EXPECT_EQ(c, b);
  EXPECT_EQ(dev.stats().device_writes, w1 + 1);
  std::vector<uint8_t> buf(kPageSize, 0xAB);
  ASSERT_TRUE(dev.Read(c, buf).ok());
  EXPECT_TRUE(std::all_of(buf.begin(), buf.end(),
                          [](uint8_t v) { return v == 0; }));
}

// Byte j of page `id` in the concurrent first-write test.
uint8_t PatternByte(PageId id, size_t j) {
  return static_cast<uint8_t>(id * 31 + j * 7 + 1);
}

std::vector<uint8_t> PatternPage(PageId id) {
  std::vector<uint8_t> buf(kPageSize);
  for (size_t j = 0; j < buf.size(); ++j) buf[j] = PatternByte(id, j);
  return buf;
}

// The mem backend allocates a page's storage at its first write, under the
// device's shared lock. Four writers each allocate and first-write their
// own pages (so the slot vector also grows between their writes) while a
// fifth thread reads pages written before the threads started, one by one
// and as batches. Under TSan this is the race check for first writes.
TEST(BlockDeviceTest, ConcurrentFirstWritesBesideReaders) {
  BlockDevice dev(kPageSize, {"mem", "", 0});
  constexpr int kWriters = 4;
  constexpr int kPagesPerWriter = 300;
  constexpr int kWritten = 32;
  std::vector<PageId> written;
  for (int i = 0; i < kWritten; ++i) {
    PageId id = dev.Allocate();
    ASSERT_TRUE(dev.Write(id, PatternPage(id)).ok());
    written.push_back(id);
  }

  std::atomic<int> writers_left{kWriters};
  std::atomic<bool> write_failed{false};
  std::vector<std::vector<PageId>> fresh(kWriters);
  std::vector<std::thread> threads;
  for (int t = 0; t < kWriters; ++t) {
    threads.emplace_back([&, t] {
      for (int i = 0; i < kPagesPerWriter; ++i) {
        PageId id = dev.Allocate();
        if (!dev.Write(id, PatternPage(id)).ok()) write_failed = true;
        fresh[t].push_back(id);
      }
      writers_left.fetch_sub(1);
    });
  }
  size_t bad_reads = 0;
  std::thread reader([&] {
    std::vector<uint8_t> out(kPageSize);
    std::vector<std::vector<uint8_t>> bufs(4,
                                           std::vector<uint8_t>(kPageSize));
    do {
      for (PageId id : written) {
        if (!dev.Read(id, out).ok() || out != PatternPage(id)) ++bad_reads;
      }
      for (size_t i = 0; i + 4 <= written.size(); i += 4) {
        PageReadRequest reqs[4];
        for (size_t k = 0; k < 4; ++k) {
          reqs[k] = {written[i + k], bufs[k].data()};
        }
        if (!dev.ReadBatch(reqs).ok()) ++bad_reads;
        for (size_t k = 0; k < 4; ++k) {
          if (bufs[k] != PatternPage(written[i + k])) ++bad_reads;
        }
      }
    } while (writers_left.load() > 0);
  });
  for (std::thread& th : threads) th.join();
  reader.join();

  EXPECT_FALSE(write_failed.load());
  EXPECT_EQ(bad_reads, 0u);
  EXPECT_EQ(dev.live_pages(),
            static_cast<uint64_t>(kWritten + kWriters * kPagesPerWriter));
  std::vector<uint8_t> out(kPageSize);
  size_t bad_bytes = 0;
  auto check = [&](PageId id) {
    ASSERT_TRUE(dev.Read(id, out).ok());
    for (size_t j = 0; j < out.size(); ++j) {
      if (out[j] != PatternByte(id, j)) ++bad_bytes;
    }
  };
  for (PageId id : written) check(id);
  for (const std::vector<PageId>& ids : fresh) {
    ASSERT_EQ(ids.size(), static_cast<size_t>(kPagesPerWriter));
    for (PageId id : ids) check(id);
  }
  EXPECT_EQ(bad_bytes, 0u);
}

TEST(PagerTest, UncachedPassesThrough) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, /*capacity_pages=*/0);
  PageId id = pager.Allocate();
  std::vector<uint8_t> in(kPageSize, 7), out(kPageSize);
  ASSERT_TRUE(WritePage(&pager, id, in).ok());
  ASSERT_TRUE(ReadPage(&pager, id, out).ok());
  EXPECT_EQ(in, out);
  EXPECT_EQ(dev.stats().device_writes, 1u);
  EXPECT_EQ(dev.stats().device_reads, 1u);
}

TEST(PagerTest, CacheAbsorbsRepeatedReads) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  PageId id = pager.Allocate();
  std::vector<uint8_t> buf(kPageSize, 3);
  ASSERT_TRUE(WritePage(&pager, id, buf).ok());
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(ReadPage(&pager, id, buf).ok());
  // Everything stayed in the pool: no device traffic at all yet.
  EXPECT_EQ(dev.stats().TotalIos(), 0u);
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(dev.stats().device_writes, 1u);
}

TEST(PagerTest, EvictionWritesBackDirtyPages) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 2);
  std::vector<PageId> ids;
  std::vector<uint8_t> buf(kPageSize);
  for (int i = 0; i < 5; ++i) {
    PageId id = pager.Allocate();
    ids.push_back(id);
    std::fill(buf.begin(), buf.end(), static_cast<uint8_t>(i + 1));
    ASSERT_TRUE(WritePage(&pager, id, buf).ok());
  }
  // All five written pages must be readable with their own contents.
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ReadPage(&pager, ids[i], buf).ok());
    EXPECT_EQ(buf[0], static_cast<uint8_t>(i + 1)) << "page " << i;
  }
}

TEST(PagerTest, DropCacheForcesColdReads) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  PageId id = pager.Allocate();
  std::vector<uint8_t> buf(kPageSize, 9);
  ASSERT_TRUE(WritePage(&pager, id, buf).ok());
  ASSERT_TRUE(pager.DropCache().ok());
  dev.ResetStats();
  ASSERT_TRUE(ReadPage(&pager, id, buf).ok());
  EXPECT_EQ(dev.stats().device_reads, 1u);
  EXPECT_EQ(buf[5], 9);
}

TEST(PagerTest, FreeDiscardsCachedCopy) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  PageId id = pager.Allocate();
  std::vector<uint8_t> buf(kPageSize, 1);
  ASSERT_TRUE(WritePage(&pager, id, buf).ok());
  ASSERT_TRUE(pager.Free(id).ok());
  PageId id2 = pager.Allocate();  // device reuses the id
  EXPECT_EQ(id, id2);
  ASSERT_TRUE(ReadPage(&pager, id2, buf).ok());
  EXPECT_EQ(buf[0], 0);  // fresh page, not the stale cached copy
}

TEST(PagerTest, CombinedStatsExposesHitsAndMisses) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId id = pager.Allocate();
  std::vector<uint8_t> buf(kPageSize);
  ASSERT_TRUE(ReadPage(&pager, id, buf).ok());
  ASSERT_TRUE(ReadPage(&pager, id, buf).ok());
  IoStats s = pager.CombinedStats();
  EXPECT_GE(s.cache_hits, 2u);  // allocate seeded the frame
  pager.ResetStats();
  s = pager.CombinedStats();
  EXPECT_EQ(s.cache_hits, 0u);
  EXPECT_EQ(s.TotalIos(), 0u);
}

struct Rec {
  int64_t a;
  uint64_t b;
};

TEST(PageIoTest, WriteReadRecordsRoundTrip) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  PageIo io(&pager);
  EXPECT_EQ(io.CapacityFor(sizeof(Rec)), (kPageSize - 16) / sizeof(Rec));
  std::vector<Rec> recs;
  for (int i = 0; i < 10; ++i) recs.push_back({i, static_cast<uint64_t>(i)});
  PageId id = pager.Allocate();
  ASSERT_TRUE(io.WriteRecords<Rec>(id, recs).ok());
  std::vector<Rec> out;
  auto next = io.ReadRecords<Rec>(id, &out);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, kInvalidPageId);
  ASSERT_EQ(out.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(out[i].a, recs[i].a);
    EXPECT_EQ(out[i].b, recs[i].b);
  }
}

TEST(PageIoTest, ChainSpansMultiplePages) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  PageIo io(&pager);
  uint32_t cap = io.CapacityFor(sizeof(Rec));
  std::vector<Rec> recs;
  for (uint32_t i = 0; i < 3 * cap + 2; ++i) {
    recs.push_back({static_cast<int64_t>(i), i});
  }
  auto ids = io.WriteChain<Rec>(recs);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 4u);
  std::vector<Rec> out;
  ASSERT_TRUE(io.ReadChain<Rec>(ids->front(), &out).ok());
  ASSERT_EQ(out.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) EXPECT_EQ(out[i].a, recs[i].a);
  // FreeChain releases every page.
  uint64_t live_before = dev.live_pages();
  ASSERT_TRUE(io.FreeChain(ids->front()).ok());
  EXPECT_EQ(dev.live_pages(), live_before - 4);
}

TEST(PageIoTest, EmptyChain) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  PageIo io(&pager);
  auto ids = io.WriteChain<Rec>({});
  ASSERT_TRUE(ids.ok());
  EXPECT_TRUE(ids->empty());
  std::vector<Rec> out;
  ASSERT_TRUE(io.ReadChain<Rec>(kInvalidPageId, &out).ok());
  EXPECT_TRUE(out.empty());
}

TEST(PageIoTest, ChainReadCostsOneIoPerPage) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  PageIo io(&pager);
  uint32_t cap = io.CapacityFor(sizeof(Rec));
  std::vector<Rec> recs(5 * cap);
  for (uint32_t i = 0; i < recs.size(); ++i) {
    recs[i] = {static_cast<int64_t>(i), i};
  }
  auto ids = io.WriteChain<Rec>(recs);
  ASSERT_TRUE(ids.ok());
  dev.ResetStats();
  std::vector<Rec> out;
  ASSERT_TRUE(io.ReadChain<Rec>(ids->front(), &out).ok());
  // Exactly t/B reads: the "compact output" property the paper demands.
  EXPECT_EQ(dev.stats().device_reads, 5u);
}

TEST(PageWriterReaderTest, MixedValuesRoundTrip) {
  std::vector<uint8_t> buf(64);
  PageWriter w(buf);
  w.Put<uint32_t>(0xDEADBEEF);
  w.Put<int64_t>(-42);
  w.Put<uint16_t>(7);
  EXPECT_EQ(w.offset(), 14u);
  EXPECT_EQ(w.remaining(), 50u);
  PageReader r(buf);
  EXPECT_EQ(r.Get<uint32_t>(), 0xDEADBEEFu);
  EXPECT_EQ(r.Get<int64_t>(), -42);
  EXPECT_EQ(r.Get<uint16_t>(), 7);
}

}  // namespace
}  // namespace ccidx
