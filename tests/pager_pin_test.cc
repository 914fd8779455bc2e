// Unit tests for the zero-copy pin API: PageRef / MutPageRef lifecycles,
// pin-aware eviction, dirty write-back, DropCache pin safety, and fault
// injection through the pin path (DESIGN.md §3).

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "ccidx/io/block_device.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/io/pager.h"

namespace ccidx {
namespace {

constexpr uint32_t kPageSize = 256;

// Rewrites the whole page with byte `v` through an overwrite pin.
Status FillPage(Pager* pager, PageId id, uint8_t v) {
  auto page = pager->PinMut(id, Pager::MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(page.status());
  std::memset(page->data().data(), v, kPageSize);
  return page->Release();
}

TEST(PagerPinTest, PinBlocksEviction) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, /*capacity_pages=*/2);
  PageId a = pager.Allocate();
  ASSERT_TRUE(FillPage(&pager, a, 0xAA).ok());
  ASSERT_TRUE(pager.Flush().ok());

  auto pin = pager.Pin(a);
  ASSERT_TRUE(pin.ok());
  const uint8_t* stable = pin->data().data();

  // Stream unrelated pages through the 2-frame pool. Frame `a` is pinned
  // and must be skipped by eviction even though it becomes the LRU tail.
  for (int i = 0; i < 6; ++i) {
    PageId id = pager.Allocate();
    ASSERT_TRUE(FillPage(&pager, id, static_cast<uint8_t>(i)).ok());
  }
  // The pinned view is still the same frame with the same contents.
  EXPECT_EQ(pin->data().data(), stable);
  EXPECT_EQ(pin->data()[0], 0xAA);

  pin->Release();
  // After release the frame is still resident: re-pinning costs no device
  // read.
  IoStats before = dev.stats();
  auto again = pager.Pin(a);
  ASSERT_TRUE(again.ok());
  EXPECT_EQ((dev.stats() - before).device_reads, 0u);
}

TEST(PagerPinTest, AllFramesPinnedIsCheckedError) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 2);
  PageId a = pager.Allocate();
  PageId b = pager.Allocate();
  PageId c = pager.Allocate();
  ASSERT_TRUE(pager.DropCache().ok());

  auto pa = pager.Pin(a);
  ASSERT_TRUE(pa.ok());
  auto pb = pager.Pin(b);
  ASSERT_TRUE(pb.ok());
  auto pc = pager.Pin(c);
  EXPECT_EQ(pc.status().code(), StatusCode::kResourceExhausted);

  // Releasing one frame unblocks the pool.
  pa->Release();
  auto pc2 = pager.Pin(c);
  EXPECT_TRUE(pc2.ok());
}

TEST(PagerPinTest, PinNewWithAllFramesPinnedIsCheckedError) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 1);
  auto held = pager.PinNew();
  ASSERT_TRUE(held.ok());
  // The single frame is pinned: a second PinNew must fail with a Status,
  // not abort. The page itself is still allocated (zeroed on the device).
  auto second = pager.PinNew();
  EXPECT_EQ(second.status().code(), StatusCode::kResourceExhausted);
  ASSERT_TRUE(held->Release().ok());
  auto third = pager.PinNew();
  EXPECT_TRUE(third.ok());
}

TEST(PagerPinTest, OverwriteOfPinnedPageIsCheckedError) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId a = pager.Allocate();
  ASSERT_TRUE(FillPage(&pager, a, 0x42).ok());
  auto pin = pager.Pin(a);
  ASSERT_TRUE(pin.ok());
  // Zero-filling under a live view would corrupt it mid-read.
  EXPECT_EQ(pager.PinMut(a, Pager::MutMode::kOverwrite).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(FillPage(&pager, a, 0).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(pin->data()[0], 0x42);  // view untouched
  pin->Release();
  EXPECT_TRUE(FillPage(&pager, a, 0).ok());
}

TEST(PagerPinTest, MultipleConcurrentPinsOnOneFrame) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId a = pager.Allocate();
  ASSERT_TRUE(FillPage(&pager, a, 0x5A).ok());

  auto p1 = pager.Pin(a);
  auto p2 = pager.Pin(a);
  ASSERT_TRUE(p1.ok());
  ASSERT_TRUE(p2.ok());
  // Both handles alias the same buffer-pool frame (zero-copy).
  EXPECT_EQ(p1->data().data(), p2->data().data());
  EXPECT_EQ(pager.pinned_frames(), 1u);
  EXPECT_EQ(pager.outstanding_pins(), 2u);

  p1->Release();
  EXPECT_EQ(pager.pinned_frames(), 1u);  // p2 still holds it
  EXPECT_EQ(p2->data()[0], 0x5A);
  p2->Release();
  EXPECT_EQ(pager.pinned_frames(), 0u);
  EXPECT_EQ(pager.outstanding_pins(), 0u);
}

TEST(PagerPinTest, DirtyOnUnpinIsWrittenBackOnEviction) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 1);
  PageId a = pager.Allocate();
  {
    auto mut = pager.PinMut(a, Pager::MutMode::kOverwrite);
    ASSERT_TRUE(mut.ok());
    std::memset(mut->data().data(), 0xBE, kPageSize);
    ASSERT_TRUE(mut->Release().ok());
  }
  EXPECT_EQ(dev.stats().device_writes, 0u);  // cached: write-back deferred
  // Pinning another page forces the single frame out: dirty write-back.
  PageId b = pager.Allocate();
  (void)b;
  EXPECT_EQ(dev.stats().device_writes, 1u);
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dev.Read(a, out).ok());
  EXPECT_EQ(out[17], 0xBE);
}

TEST(PagerPinTest, FlushKeepsFrameDirtyUnderActiveMutPin) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId a = pager.Allocate();
  auto mut = pager.PinMut(a, Pager::MutMode::kOverwrite);
  ASSERT_TRUE(mut.ok());
  mut->data()[0] = 1;
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(dev.stats().device_writes, 1u);
  // The writer is still active; later modifications must not be lost.
  mut->data()[0] = 2;
  ASSERT_TRUE(mut->Release().ok());
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(dev.stats().device_writes, 2u);
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dev.Read(a, out).ok());
  EXPECT_EQ(out[0], 2);
}

TEST(PagerPinTest, DropCacheWithOutstandingPinsIsCheckedError) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId a = pager.Allocate();
  auto pin = pager.Pin(a);
  ASSERT_TRUE(pin.ok());
  Status s = pager.DropCache();
  EXPECT_EQ(s.code(), StatusCode::kFailedPrecondition);
  pin->Release();
  EXPECT_TRUE(pager.DropCache().ok());
}

TEST(PagerPinTest, FreeOfPinnedPageIsCheckedError) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId a = pager.Allocate();
  auto pin = pager.Pin(a);
  ASSERT_TRUE(pin.ok());
  EXPECT_EQ(pager.Free(a).code(), StatusCode::kFailedPrecondition);
  pin->Release();
  EXPECT_TRUE(pager.Free(a).ok());
}

TEST(PagerPinTest, PinNewIsZeroedAndCostsNoDeviceIo) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  auto mut = pager.PinNew();
  ASSERT_TRUE(mut.ok());
  EXPECT_EQ(dev.stats().TotalIos(), 0u);
  for (uint8_t byte : mut->data()) EXPECT_EQ(byte, 0);
  mut->data()[3] = 9;
  ASSERT_TRUE(mut->Release().ok());
  ASSERT_TRUE(pager.Flush().ok());
  EXPECT_EQ(dev.stats().device_writes, 1u);
}

TEST(PagerPinTest, UncachedPinsReproduceDeviceCostModel) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, /*capacity_pages=*/0);
  PageId a = pager.Allocate();
  {
    // One logical write = one device write, surfaced at Release().
    auto mut = pager.PinMut(a, Pager::MutMode::kOverwrite);
    ASSERT_TRUE(mut.ok());
    EXPECT_EQ(dev.stats().device_writes, 0u);
    std::memset(mut->data().data(), 0x77, kPageSize);
    ASSERT_TRUE(mut->Release().ok());
    EXPECT_EQ(dev.stats().device_writes, 1u);
  }
  {
    // One logical read = one device read, even for repeated pins.
    auto p1 = pager.Pin(a);
    ASSERT_TRUE(p1.ok());
    auto p2 = pager.Pin(a);
    ASSERT_TRUE(p2.ok());
    EXPECT_EQ(dev.stats().device_reads, 2u);
    // Transient pins are private copies.
    EXPECT_NE(p1->data().data(), p2->data().data());
    EXPECT_EQ(p1->data()[5], 0x77);
  }
}

TEST(PagerPinTest, FaultInjectionThroughPinPath) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  PageId a = pager.Allocate();
  ASSERT_TRUE(FillPage(&pager, a, 1).ok());

  // Read pin: the device read fails synchronously at Pin().
  dev.SetFailAfter(0);
  EXPECT_EQ(pager.Pin(a).status().code(), StatusCode::kIoError);
  EXPECT_EQ(pager.PinMut(a).status().code(), StatusCode::kIoError);

  // Overwrite pin: no read, so the pin succeeds; the injected failure
  // surfaces from Release() as the write-back Status.
  auto mut = pager.PinMut(a, Pager::MutMode::kOverwrite);
  ASSERT_TRUE(mut.ok());
  EXPECT_EQ(mut->Release().code(), StatusCode::kIoError);

  dev.SetFailAfter(-1);
  // The failure was returned to the caller above: it must not linger as a
  // stale deferred error once the device is healthy again.
  EXPECT_TRUE(pager.Flush().ok());
  EXPECT_TRUE(pager.Pin(a).ok());

  // Cached path: a pool miss propagates the device failure too.
  Pager cached(&dev, 4);
  dev.SetFailAfter(0);
  EXPECT_EQ(cached.Pin(a).status().code(), StatusCode::kIoError);
  dev.SetFailAfter(-1);
}

TEST(PagerPinTest, PinCountersReported) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 4);
  PageId a = pager.Allocate();  // seeds the frame (one miss)
  { auto p = pager.Pin(a); ASSERT_TRUE(p.ok()); }
  { auto p = pager.Pin(a); ASSERT_TRUE(p.ok()); }
  IoStats s = pager.CombinedStats();
  EXPECT_GE(s.pin_requests, 2u);
  EXPECT_GE(s.cache_hits, 2u);
  pager.ResetStats();
  EXPECT_EQ(pager.CombinedStats().pin_requests, 0u);
}

TEST(PagerPinTest, ViewRecordsAliasesPinnedFrame) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  PageIo io(&pager);
  struct Rec {
    int64_t a;
    uint64_t b;
  };
  std::vector<Rec> recs;
  for (int i = 0; i < 8; ++i) recs.push_back({i, static_cast<uint64_t>(i)});
  auto ids = io.WriteChain<Rec>(recs);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(pager.DropCache().ok());

  auto view = io.ViewRecords<Rec>(ids->front());
  ASSERT_TRUE(view.ok());
  ASSERT_EQ(view->records.size(), recs.size());
  for (size_t i = 0; i < recs.size(); ++i) {
    EXPECT_EQ(view->records[i].a, recs[i].a);
  }
  // The record span points inside the pinned page (true zero-copy).
  const uint8_t* page = view->ref.data().data();
  const uint8_t* first = reinterpret_cast<const uint8_t*>(view->records.data());
  EXPECT_EQ(first, page + PageIo::kHeaderSize);
  EXPECT_EQ(pager.pinned_frames(), 1u);
}

}  // namespace
}  // namespace ccidx
