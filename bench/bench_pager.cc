// Microbenchmark: a page copy out of a pin vs zero-copy Pager::Pin on the
// buffer-pool hit path, raw and on a metablock-tree query workload.
//
// The paper's cost model counts device transfers only, but a real engine
// also pays CPU per logical access. The historical front end copied the
// full page on every access (B bytes per touch even on cache hits); the
// pin API hands out a span into the frame. These benchmarks quantify the
// difference with a fully warm pool (zero device I/O in steady state), the
// regime a production deployment with a healthy cache lives in.

#include "bench_util.h"

#include <cstring>
#include <random>
#include <vector>

#include "ccidx/core/metablock_tree.h"
#include "ccidx/io/page_builder.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr uint32_t kB = 64;          // points per page
constexpr uint32_t kPoolPages = 4096;  // ample: everything stays resident

// A pager whose pool holds the whole structure, so both variants measure
// pure in-core cost.
struct WarmDisk {
  WarmDisk() : device(PageSizeForBranching(kB)), pager(&device, kPoolPages) {}
  BlockDevice device;
  Pager pager;
};

// The copy baseline: the whole page copied out of a pin into `buf`.
Status CopyPage(Pager* pager, PageId id, std::vector<uint8_t>* buf) {
  auto page = pager->Pin(id);
  CCIDX_RETURN_IF_ERROR(page.status());
  std::memcpy(buf->data(), page->data().data(), buf->size());
  return Status::OK();
}

// --- Raw page access: read one warm page N times -------------------------

void BM_RawAccessCopy(benchmark::State& state) {
  WarmDisk disk;
  PageIo io(&disk.pager);
  std::vector<Point> pts(kB);
  for (uint32_t i = 0; i < kB; ++i) {
    pts[i] = {static_cast<Coord>(i), static_cast<Coord>(i + 1), i};
  }
  auto ids = io.WriteChain<Point>(pts);
  if (!ids.ok()) state.SkipWithError("setup failed");
  std::vector<uint8_t> buf(disk.pager.page_size());
  Coord sum = 0;
  for (auto _ : state) {
    // The historical front end: full page copy into a caller buffer, then
    // decode out of the copy.
    Status s = CopyPage(&disk.pager, ids->front(), &buf);
    if (!s.ok()) state.SkipWithError("read failed");
    PageReader r(buf);
    uint32_t count = r.Get<uint32_t>();
    r.Get<uint32_t>();
    r.Get<uint64_t>();
    for (uint32_t i = 0; i < count; ++i) sum += r.Get<Point>().y;
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          disk.pager.page_size());
}
BENCHMARK(BM_RawAccessCopy);

void BM_RawAccessPinned(benchmark::State& state) {
  WarmDisk disk;
  PageIo io(&disk.pager);
  std::vector<Point> pts(kB);
  for (uint32_t i = 0; i < kB; ++i) {
    pts[i] = {static_cast<Coord>(i), static_cast<Coord>(i + 1), i};
  }
  auto ids = io.WriteChain<Point>(pts);
  if (!ids.ok()) state.SkipWithError("setup failed");
  Coord sum = 0;
  for (auto _ : state) {
    auto view = io.ViewRecords<Point>(ids->front());
    if (!view.ok()) state.SkipWithError("pin failed");
    for (const Point& p : view->records) sum += p.y;
    benchmark::DoNotOptimize(sum);
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          disk.pager.page_size());
}
BENCHMARK(BM_RawAccessPinned);

// --- Metablock-tree diagonal queries, warm cache -------------------------
//
// The tree itself now runs on pins; the "copy" variant routes every page
// touch through the compatibility Read wrapper by replaying the same chain
// scans the query performs. To keep the two variants identical in I/O
// pattern, we measure the full MetablockTree::Query (pinned) against a
// copy-based page sweep of the same number of warm pages.

void BM_MetablockQueryPinned(benchmark::State& state) {
  static WarmDisk* disk = new WarmDisk();
  static MetablockTree* tree = [] {
    auto pts = RandomPointsAboveDiagonal(200000, 1000000, /*seed=*/7);
    auto t = MetablockTree::Build(&disk->pager, std::move(pts));
    CCIDX_CHECK(t.ok());
    return new MetablockTree(std::move(*t));
  }();
  std::mt19937_64 rng(11);
  std::uniform_int_distribution<Coord> dist(0, 1000000);
  std::vector<Point> out;
  for (auto _ : state) {
    out.clear();
    VectorSink<Point> sink(&out);
    Status s = tree->Query({dist(rng)}, &sink);
    if (!s.ok()) state.SkipWithError("query failed");
    benchmark::DoNotOptimize(out.data());
  }
  state.counters["results/query"] =
      benchmark::Counter(static_cast<double>(out.size()));
}
BENCHMARK(BM_MetablockQueryPinned);

// Copy-based baseline for the same workload shape: sweep the same number
// of warm pages per iteration through the full-page-copy wrapper. This is
// what every page touch cost before the pin migration.
void BM_WarmPageSweepCopy(benchmark::State& state) {
  WarmDisk disk;
  PageIo io(&disk.pager);
  const int kPages = 64;
  std::vector<Point> pts(kB);
  for (uint32_t i = 0; i < kB; ++i) {
    pts[i] = {static_cast<Coord>(i), static_cast<Coord>(i + 1), i};
  }
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageId id = disk.pager.Allocate();
    if (!io.WriteRecords<Point>(id, pts).ok()) {
      state.SkipWithError("setup failed");
    }
    ids.push_back(id);
  }
  std::vector<uint8_t> buf(disk.pager.page_size());
  Coord sum = 0;
  for (auto _ : state) {
    for (PageId id : ids) {
      Status s = CopyPage(&disk.pager, id, &buf);
      if (!s.ok()) state.SkipWithError("read failed");
      PageReader r(buf);
      uint32_t count = r.Get<uint32_t>();
      r.Get<uint32_t>();
      r.Get<uint64_t>();
      for (uint32_t i = 0; i < count; ++i) sum += r.Get<Point>().y;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kPages);
}
BENCHMARK(BM_WarmPageSweepCopy);

void BM_WarmPageSweepPinned(benchmark::State& state) {
  WarmDisk disk;
  PageIo io(&disk.pager);
  const int kPages = 64;
  std::vector<Point> pts(kB);
  for (uint32_t i = 0; i < kB; ++i) {
    pts[i] = {static_cast<Coord>(i), static_cast<Coord>(i + 1), i};
  }
  std::vector<PageId> ids;
  for (int i = 0; i < kPages; ++i) {
    PageId id = disk.pager.Allocate();
    if (!io.WriteRecords<Point>(id, pts).ok()) {
      state.SkipWithError("setup failed");
    }
    ids.push_back(id);
  }
  Coord sum = 0;
  for (auto _ : state) {
    for (PageId id : ids) {
      auto view = io.ViewRecords<Point>(id);
      if (!view.ok()) state.SkipWithError("pin failed");
      for (const Point& p : view->records) sum += p.y;
    }
    benchmark::DoNotOptimize(sum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * kPages);
}
BENCHMARK(BM_WarmPageSweepPinned);

}  // namespace
}  // namespace bench
}  // namespace ccidx

CCIDX_BENCH_MAIN();
