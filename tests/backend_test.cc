// Backend-equivalence tests (DESIGN.md §10): the device front end owns
// every cost-model concern, so swapping the byte-moving backend — or
// injecting latency — must change *nothing* observable except wall-clock
// time. Three contracts are pinned here:
//
//   1. Replay equivalence: the same workload over mem, file, and
//      latency-injecting devices returns bit-identical results and (with
//      speculation off) bit-identical IoStats.
//   2. Cost-model identity: on a zero-latency in-memory device the
//      speculation machinery is structurally inert — CCIDX_PREFETCH on
//      vs off produces identical counted I/Os, and WarmMany is a strict
//      no-op. This is the invariant every E1-E6 experiment relies on.
//   3. Bounded overshoot: when speculation *is* active (latency backend),
//      results are still identical and the extra device reads stay within
//      the documented budget-per-level bound.
//
// Plus the batch primitives' serial-equivalent counting: ReadBatch's
// approved-prefix fault semantics and PinMany's hit/miss/duplicate
// accounting; and the sparse mem backend: a page holds storage only from
// its first write, and reads as zeros before it.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <numeric>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"

namespace ccidx {
namespace {

constexpr uint32_t kPageSize = 256;  // fanout 10 for BtEntry

// Sets an environment variable for the lifetime of one test, restoring
// the previous value on destruction — Pager reads CCIDX_PREFETCH at
// construction, and tests in this binary must not leak configuration
// into each other.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    const char* old = std::getenv(name);
    had_old_ = old != nullptr;
    if (had_old_) old_ = old;
    setenv(name, value, 1);
  }
  ~ScopedEnv() {
    if (had_old_) {
      setenv(name_, old_.c_str(), 1);
    } else {
      unsetenv(name_);
    }
  }

 private:
  const char* name_;
  bool had_old_;
  std::string old_;
};

struct Replay {
  std::vector<std::vector<BtEntry>> results;
  IoStats device;  // device-level counters only (reads/writes/batches)
  int height = 0;
};

// One deterministic workload: bulk-load a 4-level B+-tree, then run a set
// of cold range scans (DropCache before each, so every query pays its full
// descent against the given backend).
Replay RunWorkload(const BlockDeviceOptions& opts, uint32_t pool_pages) {
  BlockDevice device(kPageSize, opts);
  Pager pager(&device, pool_pages);
  const int64_t n = 4096;
  std::vector<BtEntry> entries;
  entries.reserve(n);
  for (int64_t i = 0; i < n; ++i) {
    entries.push_back({i, static_cast<uint64_t>(i * 3 + 1), -i});
  }
  auto tree = BPlusTree::BulkLoad(&pager, entries);
  EXPECT_TRUE(tree.ok()) << tree.status().message();
  device.ResetStats();

  Replay r;
  r.height = static_cast<int>(tree->height());
  for (int64_t lo = 0; lo + 64 <= n; lo += 911) {
    EXPECT_TRUE(pager.DropCache().ok());
    std::vector<BtEntry> out;
    VectorSink<BtEntry> sink(&out);
    EXPECT_TRUE(tree->RangeScan(lo, lo + 63, &sink).ok());
    r.results.push_back(std::move(out));
  }
  r.device = device.stats();
  return r;
}

// --- Contract 1: replay equivalence across backends -----------------------

TEST(BackendEquivalenceTest, FileAndLatencyReplayBitIdenticalToMem) {
  // Speculation off: every backend must walk the exact same serial path,
  // so the device counters — not just the results — are comparable.
  ScopedEnv spec("CCIDX_PREFETCH", "0");
  Replay mem = RunWorkload({"mem", "", 0}, 256);
  Replay file = RunWorkload({"file", "", 0}, 256);
  Replay lat = RunWorkload({"mem", "", 25}, 256);

  ASSERT_EQ(mem.results.size(), file.results.size());
  ASSERT_EQ(mem.results.size(), lat.results.size());
  for (size_t i = 0; i < mem.results.size(); ++i) {
    EXPECT_EQ(mem.results[i], file.results[i]) << "query " << i;
    EXPECT_EQ(mem.results[i], lat.results[i]) << "query " << i;
  }
  EXPECT_EQ(mem.device.device_reads, file.device.device_reads);
  EXPECT_EQ(mem.device.device_writes, file.device.device_writes);
  EXPECT_EQ(mem.device.read_batches, file.device.read_batches);
  EXPECT_EQ(mem.device.device_reads, lat.device.device_reads);
  EXPECT_EQ(mem.device.device_writes, lat.device.device_writes);
  EXPECT_EQ(mem.device.read_batches, lat.device.read_batches);
}

TEST(BackendEquivalenceTest, FileBackendRoundTrip) {
  BlockDevice dev(kPageSize, {"file", "", 0});
  EXPECT_TRUE(dev.real_io());
  PageId id = dev.Allocate();
  std::vector<uint8_t> in(kPageSize), out(kPageSize);
  std::iota(in.begin(), in.end(), 1);
  ASSERT_TRUE(dev.Write(id, in).ok());
  ASSERT_TRUE(dev.Read(id, out).ok());
  EXPECT_EQ(in, out);
  // Freed-then-reused pages come back zeroed, same as the mem backend.
  ASSERT_TRUE(dev.Free(id).ok());
  PageId again = dev.Allocate();
  EXPECT_EQ(id, again);
  ASSERT_TRUE(dev.Read(again, out).ok());
  EXPECT_TRUE(std::all_of(out.begin(), out.end(),
                          [](uint8_t b) { return b == 0; }));
}

TEST(BackendEquivalenceTest, LatencyBackendDelaysReadsNotWrites) {
  BlockDevice dev(kPageSize, {"mem", "", 500});
  EXPECT_EQ(dev.read_latency_us(), 500u);
  PageId id = dev.Allocate();
  std::vector<uint8_t> buf(kPageSize);
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(dev.Read(id, buf).ok());
  auto elapsed = std::chrono::steady_clock::now() - t0;
  // Sleeps are lower bounds, so this cannot flake: 4 reads x 500 us.
  EXPECT_GE(elapsed, std::chrono::microseconds(4 * 500));
}

// --- Contract 2: cost-model identity --------------------------------------

TEST(CostModelTest, SpeculationFlagDoesNotChangeCountedIos) {
  // Zero-latency mem device: speculation_budget() must be 0 whether or
  // not CCIDX_PREFETCH is set, so the batched call-site paths are never
  // taken and the counted I/Os are bit-identical.
  Replay off, on;
  {
    ScopedEnv spec("CCIDX_PREFETCH", "0");
    off = RunWorkload({"mem", "", 0}, 256);
  }
  {
    ScopedEnv spec("CCIDX_PREFETCH", "1");
    on = RunWorkload({"mem", "", 0}, 256);
  }
  // The paper's metric — page transfers — is bit-identical, and so is
  // their grouping into device batches: no readahead runs here at all.
  EXPECT_EQ(off.device.device_reads, on.device.device_reads);
  EXPECT_EQ(off.device.device_writes, on.device.device_writes);
  EXPECT_EQ(off.device.read_batches, on.device.read_batches);
  ASSERT_EQ(off.results.size(), on.results.size());
  for (size_t i = 0; i < off.results.size(); ++i) {
    EXPECT_EQ(off.results[i], on.results[i]);
  }
}

TEST(CostModelTest, WarmManyIsStrictNoopOnZeroLatencyMem) {
  ScopedEnv spec("CCIDX_PREFETCH", "1");
  BlockDevice device(kPageSize, {"mem", "", 0});
  Pager pager(&device, 64);
  PageId a = pager.Allocate();
  PageId b = pager.Allocate();
  ASSERT_TRUE(pager.Flush().ok());
  ASSERT_TRUE(pager.DropCache().ok());
  device.ResetStats();

  EXPECT_EQ(pager.speculation_budget(), 0u);
  PageId ids[2] = {a, b};
  pager.WarmMany(ids);
  EXPECT_EQ(device.stats().device_reads, 0u);  // no speculative read, ever
}

TEST(CostModelTest, WarmManyLoadsResidentUnderLatencyBackend) {
  ScopedEnv spec("CCIDX_PREFETCH", "1");
  BlockDevice device(kPageSize, {"mem", "", 10});
  Pager pager(&device, 64);
  PageId a = pager.Allocate();
  PageId b = pager.Allocate();
  ASSERT_TRUE(pager.Flush().ok());
  ASSERT_TRUE(pager.DropCache().ok());
  device.ResetStats();

  EXPECT_GT(pager.speculation_budget(), 0u);
  PageId ids[2] = {a, b};
  pager.WarmMany(ids);
  IoStats after_warm = device.stats();
  EXPECT_EQ(after_warm.device_reads, 2u);
  EXPECT_EQ(after_warm.read_batches, 1u);  // one concurrent device round
  // The warmed pages are resident: pinning them costs no further reads.
  auto ra = pager.Pin(a);
  auto rb = pager.Pin(b);
  ASSERT_TRUE(ra.ok());
  ASSERT_TRUE(rb.ok());
  EXPECT_EQ(device.stats().device_reads, 2u);
}

// --- Contract 3: bounded overshoot under active speculation ---------------

TEST(SpeculationTest, LatencyReplayIdenticalResultsBoundedExtraReads) {
  Replay serial, spec;
  {
    ScopedEnv off("CCIDX_PREFETCH", "0");
    serial = RunWorkload({"mem", "", 10}, 256);
  }
  {
    ScopedEnv on("CCIDX_PREFETCH", "1");
    spec = RunWorkload({"mem", "", 10}, 256);
  }
  ASSERT_EQ(serial.results.size(), spec.results.size());
  for (size_t i = 0; i < serial.results.size(); ++i) {
    EXPECT_EQ(serial.results[i], spec.results[i]) << "query " << i;
  }
  // Overshoot bound (DESIGN.md §10): at most `budget` unused pages per
  // descent level, plus one boundary-crossing internal re-read per leaf
  // window in the batched range scan — comfortably under budget * height
  // * 2 extra reads per query.
  const uint64_t per_query_bound =
      4u * static_cast<uint64_t>(serial.height) * 2u;
  EXPECT_GE(spec.device.device_reads, serial.device.device_reads);
  EXPECT_LE(spec.device.device_reads,
            serial.device.device_reads +
                per_query_bound * serial.results.size());
}

// --- Batch primitives: serial-equivalent counting -------------------------

TEST(ReadBatchTest, FaultMidBatchCountsApprovedPrefixOnly) {
  BlockDevice dev(kPageSize, {"mem", "", 0});
  std::vector<PageId> ids;
  for (int i = 0; i < 4; ++i) ids.push_back(dev.Allocate());
  std::vector<std::vector<uint8_t>> bufs(4,
                                         std::vector<uint8_t>(kPageSize));
  std::vector<PageReadRequest> reqs;
  for (int i = 0; i < 4; ++i) reqs.push_back({ids[i], bufs[i].data()});

  dev.SetFailAfter(2);  // requests 0 and 1 approved, 2 fails
  Status s = dev.ReadBatch(reqs);
  EXPECT_FALSE(s.ok());
  IoStats st = dev.stats();
  EXPECT_EQ(st.device_reads, 2u);  // exactly the serial loop's prefix
  EXPECT_EQ(st.read_batches, 1u);
  dev.SetFailAfter(-1);

  // An invalid id fails validation the same way: approved prefix counted.
  dev.ResetStats();
  reqs[1].id = kInvalidPageId;
  s = dev.ReadBatch(reqs);
  EXPECT_FALSE(s.ok());
  EXPECT_EQ(dev.stats().device_reads, 1u);
}

TEST(PinManyTest, DuplicateIdsCountLikeSerialPins) {
  BlockDevice device(kPageSize, {"mem", "", 0});
  Pager pager(&device, 64);
  PageId a = pager.Allocate();
  PageId b = pager.Allocate();
  ASSERT_TRUE(pager.Flush().ok());
  ASSERT_TRUE(pager.DropCache().ok());
  device.ResetStats();
  pager.ResetStats();

  PageId ids[3] = {a, b, a};
  auto refs = pager.PinMany(ids);
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 3u);
  // Refs come back in input order.
  EXPECT_EQ((*refs)[0].id(), a);
  EXPECT_EQ((*refs)[1].id(), b);
  EXPECT_EQ((*refs)[2].id(), a);
  // Serial equivalence: the duplicate loads once and hits thereafter.
  IoStats st = pager.CombinedStats();
  EXPECT_EQ(st.device_reads, 2u);
  EXPECT_EQ(st.cache_misses, 2u);
  EXPECT_EQ(st.cache_hits, 1u);
}

TEST(PinManyTest, UncachedPoolReadsOneCopyPerRequest) {
  BlockDevice device(kPageSize, {"mem", "", 0});
  Pager pager(&device, 0);  // caching disabled: exact uncached cost model
  PageId a = pager.Allocate();
  auto page = pager.PinMut(a, Pager::MutMode::kOverwrite);  // zero-filled
  ASSERT_TRUE(page.ok());
  ASSERT_TRUE(page->Release().ok());
  device.ResetStats();

  PageId ids[3] = {a, a, a};
  auto refs = pager.PinMany(ids);
  ASSERT_TRUE(refs.ok());
  ASSERT_EQ(refs->size(), 3u);
  EXPECT_EQ(device.stats().device_reads, 3u);  // same as three Pin calls
}

// --- Sparse mem backend: storage from a page's first write ---------------

bool AllZero(const std::vector<uint8_t>& buf) {
  return std::all_of(buf.begin(), buf.end(),
                     [](uint8_t b) { return b == 0; });
}

std::vector<uint8_t> Pattern(uint32_t page_size, uint8_t seed) {
  std::vector<uint8_t> buf(page_size);
  std::iota(buf.begin(), buf.end(), seed);
  return buf;
}

TEST(SparseMemDeviceTest, NeverWrittenPageReadsZeros) {
  BlockDevice dev(kPageSize, {"mem", "", 0});
  PageId a = dev.Allocate();
  PageId b = dev.Allocate();
  PageId c = dev.Allocate();
  ASSERT_TRUE(dev.Write(b, Pattern(kPageSize, 1)).ok());

  std::vector<uint8_t> out(kPageSize, 0xAB);
  ASSERT_TRUE(dev.Read(a, out).ok());
  EXPECT_TRUE(AllZero(out));
  // A batch mixing written and never-written pages fills each buffer.
  std::vector<std::vector<uint8_t>> bufs(3,
                                         std::vector<uint8_t>(kPageSize, 0xAB));
  PageReadRequest reqs[3] = {
      {a, bufs[0].data()}, {b, bufs[1].data()}, {c, bufs[2].data()}};
  ASSERT_TRUE(dev.ReadBatch(reqs).ok());
  EXPECT_TRUE(AllZero(bufs[0]));
  EXPECT_EQ(bufs[1], Pattern(kPageSize, 1));
  EXPECT_TRUE(AllZero(bufs[2]));
  EXPECT_EQ(dev.stats().device_reads, 4u);
}

TEST(SparseMemDeviceTest, WrittenPageReadsBackItsBytes) {
  BlockDevice dev(kPageSize, {"mem", "", 0});
  PageId id = dev.Allocate();
  std::vector<uint8_t> out(kPageSize);
  ASSERT_TRUE(dev.Write(id, Pattern(kPageSize, 3)).ok());
  ASSERT_TRUE(dev.Read(id, out).ok());
  EXPECT_EQ(out, Pattern(kPageSize, 3));
  // A second write overwrites the storage the first one allocated.
  ASSERT_TRUE(dev.Write(id, Pattern(kPageSize, 9)).ok());
  ASSERT_TRUE(dev.Read(id, out).ok());
  EXPECT_EQ(out, Pattern(kPageSize, 9));
}

TEST(SparseMemDeviceTest, FreedPageReusedThroughAllocateReadsZeros) {
  BlockDevice dev(kPageSize, {"mem", "", 0});
  PageId id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, Pattern(kPageSize, 5)).ok());
  ASSERT_TRUE(dev.Free(id).ok());
  PageId again = dev.Allocate();
  ASSERT_EQ(again, id);
  std::vector<uint8_t> out(kPageSize, 0xAB);
  ASSERT_TRUE(dev.Read(again, out).ok());
  EXPECT_TRUE(AllZero(out));
  // The reused page takes new bytes like a fresh one.
  ASSERT_TRUE(dev.Write(again, Pattern(kPageSize, 7)).ok());
  ASSERT_TRUE(dev.Read(again, out).ok());
  EXPECT_EQ(out, Pattern(kPageSize, 7));
}

TEST(SparseMemDeviceTest, IdReCoveredAfterRestoreAllocationReadsZeros) {
  BlockDevice dev(kPageSize, {"mem", "", 0});
  (void)dev.Allocate();
  BlockDevice::AllocationSnapshot snap = dev.SnapshotAllocation();
  PageId b = dev.Allocate();
  ASSERT_TRUE(dev.Write(b, Pattern(kPageSize, 11)).ok());

  dev.RestoreAllocation(snap);  // shrinks the table past b
  PageId c = dev.Allocate();
  ASSERT_EQ(c, b);
  std::vector<uint8_t> out(kPageSize, 0xAB);
  ASSERT_TRUE(dev.Read(c, out).ok());
  EXPECT_TRUE(AllZero(out));
}

// Resident set size of this process, from /proc/self/statm.
size_t ResidentBytes() {
  std::FILE* f = std::fopen("/proc/self/statm", "r");
  if (f == nullptr) return 0;
  unsigned long size = 0, resident = 0;
  int n = std::fscanf(f, "%lu %lu", &size, &resident);
  std::fclose(f);
  if (n != 2) return 0;
  return resident * static_cast<size_t>(sysconf(_SC_PAGESIZE));
}

TEST(SparseMemDeviceTest, AllocatedUnwrittenPagesHoldNoStorage) {
  // The e2e tables' page size: a zero-filled store would keep
  // 20,000 x 1,552 B (about 31 MB) resident.
  constexpr uint32_t kTablePageSize = 1552;
  constexpr int kPages = 20000;
  BlockDevice dev(kTablePageSize, {"mem", "", 0});
  const size_t before = ResidentBytes();
  ASSERT_GT(before, 0u) << "cannot read /proc/self/statm";
  for (int i = 0; i < kPages; ++i) (void)dev.Allocate();
  const size_t after = ResidentBytes();
  EXPECT_EQ(dev.live_pages(), static_cast<uint64_t>(kPages));
  EXPECT_LT(after - std::min(after, before), size_t{4} << 20)
      << "resident set grew from " << before << " to " << after << " bytes";
  // The pages are still there: the last one reads as zeros.
  std::vector<uint8_t> out(kTablePageSize, 0xAB);
  ASSERT_TRUE(dev.Read(kPages - 1, out).ok());
  EXPECT_TRUE(AllZero(out));
}

}  // namespace
}  // namespace ccidx
