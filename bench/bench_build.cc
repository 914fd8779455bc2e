// Bulk-construction benchmark (DESIGN.md §6): cold-cache build I/Os and
// wall time vs n for the metablock tree, 3-sided tree, external PST,
// B+-tree, and interval index, driven entirely through RecordStream — the dataset is
// never resident as one vector. Each run reports measured device I/Os
// next to the external-sort bound (n/B) * max(1, log_{M/B}(n/B)) so the
// JSON series tracks how far construction sits from the sorting cost the
// paper's model prescribes.
//
// Space census: every build reports the pages its structure holds
// (live_pages) and their ratio to the n/B pages the data fills
// (pages_per_data_page; Theorem 3.2 promises O(1)). The metablock tree
// also splits that ratio by role through MetablockOptions ablations:
// blockings (vertical + horizontal, with the control pages and child
// lists), TS chains, and corner structures.

#include "bench_util.h"

#include "ccidx/bptree/bptree.h"
#include "ccidx/build/external_sorter.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

// The sort bound for n records of B per page under the default sorter
// budget (M = B^2 records, fan-in M/B - 1).
double SortBound(double n, double b) {
  double n_over_b = n / b;
  double levels = std::max(1.0, LogB(n_over_b, b));
  return n_over_b * levels;
}

// `pages`: live pages of one built structure (read before its Destroy).
void ReportBuild(benchmark::State& state, double n, double b, uint64_t ios,
                 uint64_t builds, uint64_t pages) {
  double per_build = static_cast<double>(ios) / static_cast<double>(builds);
  state.counters["build_ios"] = per_build;
  state.counters["sort_bound_ios"] = SortBound(n, b);
  state.counters["io_vs_sort_bound"] = per_build / SortBound(n, b);
  state.counters["live_pages"] = static_cast<double>(pages);
  state.counters["pages_per_data_page"] = static_cast<double>(pages) / (n / b);
}

// Live pages of one metablock tree over the benchmark's points, built with
// `options` and destroyed again.
uint64_t MetablockPages(Disk* disk, int64_t n,
                        const MetablockOptions& options) {
  PointStream stream(PointStream::Shape::kAboveDiagonal,
                     static_cast<size_t>(n), kDomain, 42);
  auto tree = MetablockTree::Build(&disk->pager, &stream, options);
  CCIDX_CHECK(tree.ok());
  uint64_t pages = disk->device.live_pages();
  CCIDX_CHECK(tree->Destroy().ok());
  return pages;
}

void BM_BuildMetablock(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  uint64_t ios = 0, builds = 0, pages = 0;
  for (auto _ : state) {
    IoStats before = disk.device.stats();
    PointStream stream(PointStream::Shape::kAboveDiagonal,
                       static_cast<size_t>(n), kDomain, 42);
    auto tree = MetablockTree::Build(&disk.pager, &stream);
    CCIDX_CHECK(tree.ok());
    ios += (disk.device.stats() - before).TotalIos();
    builds++;
    state.PauseTiming();
    pages = disk.device.live_pages();
    CCIDX_CHECK(tree->Destroy().ok());
    state.ResumeTiming();
  }
  ReportBuild(state, static_cast<double>(n), b, ios, builds, pages);
  // Role split: each ablation drops one side structure, so successive
  // differences are what that structure costs.
  MetablockOptions blockings_only{.use_corner_structures = false,
                                  .use_ts_structures = false};
  MetablockOptions with_ts{.use_corner_structures = false,
                           .use_ts_structures = true};
  const uint64_t base = MetablockPages(&disk, n, blockings_only);
  const uint64_t ts = MetablockPages(&disk, n, with_ts);
  const double data_pages = static_cast<double>(n) / b;
  state.counters["role_blockings_per_data_page"] = base / data_pages;
  state.counters["role_ts_per_data_page"] =
      static_cast<double>(ts - base) / data_pages;
  state.counters["role_corner_per_data_page"] =
      static_cast<double>(pages - ts) / data_pages;
}

void BM_BuildThreeSided(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  uint64_t ios = 0, builds = 0, pages = 0;
  for (auto _ : state) {
    IoStats before = disk.device.stats();
    PointStream stream(PointStream::Shape::kUniform,
                       static_cast<size_t>(n), kDomain, 46);
    auto tree = ThreeSidedTree::Build(&disk.pager, &stream);
    CCIDX_CHECK(tree.ok());
    ios += (disk.device.stats() - before).TotalIos();
    builds++;
    state.PauseTiming();
    pages = disk.device.live_pages();
    CCIDX_CHECK(tree->Destroy().ok());
    state.ResumeTiming();
  }
  ReportBuild(state, static_cast<double>(n), b, ios, builds, pages);
}

void BM_BuildExternalPst(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  uint64_t ios = 0, builds = 0, pages = 0;
  for (auto _ : state) {
    IoStats before = disk.device.stats();
    PointStream stream(PointStream::Shape::kUniform,
                       static_cast<size_t>(n), kDomain, 43);
    auto pst = ExternalPst::Build(&disk.pager, &stream);
    CCIDX_CHECK(pst.ok());
    ios += (disk.device.stats() - before).TotalIos();
    builds++;
    state.PauseTiming();
    pages = disk.device.live_pages();
    CCIDX_CHECK(pst->Free().ok());
    state.ResumeTiming();
  }
  ReportBuild(state, static_cast<double>(n), b, ios, builds, pages);
}

void BM_BuildBptree(benchmark::State& state) {
  int64_t n = state.range(0);
  BlockDevice dev(1552);
  Pager pager(&dev, 0);
  PageIo io(&pager);
  double b = io.CapacityFor(sizeof(BtEntry));
  uint64_t ios = 0, builds = 0, pages = 0;
  for (auto _ : state) {
    IoStats before = dev.stats();
    // Unsorted entries: the sorter is part of the measured cost.
    ExternalSorter<BtEntry> sorter(&pager);
    std::mt19937_64 rng(44);
    for (int64_t i = 0; i < n; ++i) {
      CCIDX_CHECK(sorter
                      .Add({static_cast<int64_t>(rng() % kDomain),
                            static_cast<uint64_t>(i), 0})
                      .ok());
    }
    auto merged = sorter.Finish();
    CCIDX_CHECK(merged.ok());
    auto tree = BPlusTree::BulkLoad(&pager, *merged);
    CCIDX_CHECK(tree.ok());
    ios += (dev.stats() - before).TotalIos();
    builds++;
    state.PauseTiming();
    pages = dev.live_pages();
    CCIDX_CHECK(tree->Destroy().ok());
    state.ResumeTiming();
  }
  ReportBuild(state, static_cast<double>(n), b, ios, builds, pages);
}

void BM_BuildIntervalIndex(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  uint64_t ios = 0, builds = 0, pages = 0;
  for (auto _ : state) {
    IoStats before = disk.device.stats();
    IntervalStream stream(IntervalWorkload::kUniform,
                          static_cast<size_t>(n), kDomain, 45);
    auto idx = IntervalIndex::Build(&disk.pager, &stream);
    CCIDX_CHECK(idx.ok());
    ios += (disk.device.stats() - before).TotalIos();
    builds++;
    state.PauseTiming();
    pages = disk.device.live_pages();
    CCIDX_CHECK(idx->Destroy().ok());
    state.ResumeTiming();
  }
  ReportBuild(state, static_cast<double>(n), b, ios, builds, pages);
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// Cold-cache build cost vs n at B = 64 (every build is device-bound: the
// pager runs uncached, so these I/O counts are exactly the model's).
BENCHMARK(ccidx::bench::BM_BuildMetablock)
    ->ArgsProduct({{1 << 14, 1 << 16, 1 << 18}, {64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildThreeSided)
    ->ArgsProduct({{1 << 14, 1 << 16, 1 << 18}, {64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildExternalPst)
    ->ArgsProduct({{1 << 14, 1 << 16, 1 << 18}, {64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildBptree)
    ->Arg(1 << 14)->Arg(1 << 16)->Arg(1 << 18)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildIntervalIndex)
    ->ArgsProduct({{1 << 14, 1 << 16}, {64}})
    ->Unit(benchmark::kMillisecond);

CCIDX_BENCH_MAIN();
