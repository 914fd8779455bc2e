// Bulk-construction benchmark (DESIGN.md §6): cold-cache build I/Os and
// wall time vs n for the metablock tree, 3-sided tree, external PST,
// B+-tree, and interval index, driven entirely through RecordStream — the dataset is
// never resident as one vector. Each run reports measured device I/Os
// next to the external-sort bound (n/B) * max(1, log_{M/B}(n/B)) so the
// JSON series tracks how far construction sits from the sorting cost the
// paper's model prescribes.
//
// Every row reports the build's device reads, writes and read rounds
// (build_reads, build_writes, build_read_rounds; a round is one single-page
// read or one batch). The cold leg (BM_Build*Cold) reruns the builds over a
// pool smaller than the input with 20 us reads and adds sort_read_rounds,
// the read rounds of a bare ExternalSorter pass over the same input: CI
// holds build_read_rounds to at most twice that.
//
// Space census: every build reports the pages its structure holds
// (live_pages) and their ratio to the n/B pages the data fills
// (pages_per_data_page; Theorem 3.2 promises O(1)). The metablock tree
// also splits that ratio by role through MetablockOptions ablations:
// blockings (vertical + horizontal, with the control pages and child
// lists), TS chains, and corner structures.

#include "bench_util.h"

#include <random>

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

// Counters of one family's build. `io` sums the transfers of `builds`
// builds; `pages`: live pages of one built structure (read before its
// Destroy).
void ReportBuild(benchmark::State& state, double n, double b,
                 const IoStats& io, uint64_t builds, uint64_t pages) {
  const double per = 1.0 / static_cast<double>(builds);
  const double per_build = static_cast<double>(io.TotalIos()) * per;
  state.counters["build_ios"] = per_build;
  state.counters["build_reads"] = static_cast<double>(io.device_reads) * per;
  state.counters["build_writes"] =
      static_cast<double>(io.device_writes) * per;
  state.counters["build_read_rounds"] =
      static_cast<double>(io.read_rounds) * per;
  state.counters["sort_bound_ios"] = SortBound(n, b);
  state.counters["io_vs_sort_bound"] = per_build / SortBound(n, b);
  state.counters["live_pages"] = static_cast<double>(pages);
  state.counters["pages_per_data_page"] = static_cast<double>(pages) / (n / b);
}

// The cold leg: a buffer pool smaller than the input (n >= 16384 records
// fill >= 256 pages) over a mem device with 20 us of injected read
// latency, both set here rather than from the environment.
constexpr uint32_t kColdPoolPages = 128;
constexpr uint32_t kColdReadLatencyUs = 20;

BlockDeviceOptions ColdDeviceOptions() {
  BlockDeviceOptions options;
  options.backend = "mem";
  options.read_latency_us = kColdReadLatencyUs;
  return options;
}

// The device + pager a build runs on. Warm rows: the environment's device,
// uncached, so the counts are exactly the model's. Cold rows: see above.
struct BuildDisk {
  BuildDisk(uint32_t page_size, bool cold)
      : device(page_size, cold ? ColdDeviceOptions() : DeviceOptionsFromEnv()),
        pager(&device, cold ? kColdPoolPages : 0) {}

  BlockDevice device;
  Pager pager;
};

Status Release(ExternalPst& pst) { return pst.Free(); }
template <typename Structure>
Status Release(Structure& structure) {
  return structure.Destroy();
}

// Times `build(pager)` (a fresh input stream and disk per call), flushing
// the pool so its write-back counts, and reports the family's counters.
// On the cold leg it also reports `sort_read_rounds`: the read rounds of
// `sort(pager)`, the bare ExternalSorter pass(es) over the same input on
// a fresh cold disk — the floor a one-pass build's read rounds are held
// to. Returns the live pages of one built structure.
template <typename BuildFn, typename SortFn>
uint64_t MeasureBuild(benchmark::State& state, uint32_t page_size, double n,
                      double b, bool cold, BuildFn build, SortFn sort) {
  IoStats io;
  uint64_t builds = 0, pages = 0;
  for (auto _ : state) {
    // A fresh disk per build, so every build's counts are the same.
    state.PauseTiming();
    auto disk = std::make_unique<BuildDisk>(page_size, cold);
    state.ResumeTiming();
    auto built = build(&disk->pager);
    CCIDX_CHECK(built.ok());
    CCIDX_CHECK(disk->pager.Flush().ok());
    io = io + disk->device.stats();
    builds++;
    state.PauseTiming();
    pages = disk->device.live_pages();
    CCIDX_CHECK(Release(*built).ok());
    state.ResumeTiming();
  }
  ReportBuild(state, n, b, io, builds, pages);
  if (cold) {
    BuildDisk bare(page_size, cold);
    sort(&bare.pager);
    state.counters["sort_read_rounds"] =
        static_cast<double>(bare.device.stats().read_rounds);
  }
  return pages;
}

// Sorts `in` with a bare ExternalSorter and drains the output.
template <typename T, typename Less>
void SortAndDrain(Pager* pager, RecordStream<T>* in, Less less) {
  ExternalSorter<T, Less> sorter(pager, less);
  CCIDX_CHECK(sorter.AddStream(in).ok());
  auto out = sorter.Finish();
  CCIDX_CHECK(out.ok());
  while (true) {
    auto block = (*out)->Next();
    CCIDX_CHECK(block.ok());
    if (block->empty()) break;
  }
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

void BuildMetablock(benchmark::State& state, bool cold) {
  const int64_t n = state.range(0);
  const uint32_t b = static_cast<uint32_t>(state.range(1));
  auto points = [n] {
    return PointStream(PointStream::Shape::kAboveDiagonal,
                       static_cast<size_t>(n), kDomain, 42);
  };
  const uint64_t pages = MeasureBuild(
      state, PageSizeForBranching(b), static_cast<double>(n), b, cold,
      [&](Pager* pager) {
        PointStream stream = points();
        return MetablockTree::Build(pager, &stream);
      },
      [&](Pager* pager) {
        PointStream stream = points();
        SortAndDrain(pager, &stream, PointXOrder());
      });
  if (cold) return;
  // Role split: each ablation drops one side structure, so successive
  // differences are what that structure costs.
  Disk disk(b);
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

void BuildThreeSided(benchmark::State& state, bool cold) {
  const int64_t n = state.range(0);
  const uint32_t b = static_cast<uint32_t>(state.range(1));
  auto points = [n] {
    return PointStream(PointStream::Shape::kUniform, static_cast<size_t>(n),
                       kDomain, 46);
  };
  MeasureBuild(
      state, PageSizeForBranching(b), static_cast<double>(n), b, cold,
      [&](Pager* pager) {
        PointStream stream = points();
        return ThreeSidedTree::Build(pager, &stream);
      },
      [&](Pager* pager) {
        PointStream stream = points();
        SortAndDrain(pager, &stream, PointXOrder());
      });
}

void BM_BuildExternalPst(benchmark::State& state) {
  const int64_t n = state.range(0);
  const uint32_t b = static_cast<uint32_t>(state.range(1));
  MeasureBuild(
      state, PageSizeForBranching(b), static_cast<double>(n), b,
      /*cold=*/false,
      [&](Pager* pager) {
        PointStream stream(PointStream::Shape::kUniform,
                           static_cast<size_t>(n), kDomain, 43);
        return ExternalPst::Build(pager, &stream);
      },
      [](Pager*) {});
}

// Unsorted entries: the sorter is part of the measured cost.
class EntryStream final : public RecordStream<BtEntry> {
 public:
  explicit EntryStream(int64_t n) : left_(n), rng_(44) {}

  Result<std::span<const BtEntry>> Next() override {
    buf_.clear();
    for (; left_ > 0 && buf_.size() < kDefaultStreamBlock; --left_) {
      buf_.push_back({static_cast<int64_t>(rng_() % kDomain), id_++, 0});
    }
    return std::span<const BtEntry>(buf_);
  }

 private:
  int64_t left_;
  uint64_t id_ = 0;
  std::mt19937_64 rng_;
  std::vector<BtEntry> buf_;
};

void BuildBptree(benchmark::State& state, bool cold) {
  const int64_t n = state.range(0);
  BlockDevice sizing_dev(1552);
  Pager sizing_pager(&sizing_dev, 0);
  const double b = PageIo(&sizing_pager).CapacityFor(sizeof(BtEntry));
  MeasureBuild(
      state, 1552, static_cast<double>(n), b, cold,
      [&](Pager* pager) {
        ExternalSorter<BtEntry> sorter(pager);
        EntryStream entries(n);
        CCIDX_CHECK(sorter.AddStream(&entries).ok());
        auto merged = sorter.Finish();
        CCIDX_CHECK(merged.ok());
        return BPlusTree::BulkLoad(pager, *merged);
      },
      [&](Pager* pager) {
        EntryStream entries(n);
        SortAndDrain(pager, &entries, std::less<BtEntry>());
      });
}

void BuildIntervalIndex(benchmark::State& state, bool cold) {
  const int64_t n = state.range(0);
  const uint32_t b = static_cast<uint32_t>(state.range(1));
  auto intervals = [n] {
    return IntervalStream(IntervalWorkload::kUniform, static_cast<size_t>(n),
                          kDomain, 45);
  };
  MeasureBuild(
      state, PageSizeForBranching(b), static_cast<double>(n), b, cold,
      [&](Pager* pager) {
        IntervalStream stream = intervals();
        return IntervalIndex::Build(pager, &stream);
      },
      [&](Pager* pager) {
        // The index's two sorters: endpoint entries, stabbing points.
        IntervalStream for_entries = intervals();
        auto to_entry = [](const Interval& iv) {
          return BtEntry{iv.lo, iv.id, iv.hi};
        };
        MapStream<Interval, BtEntry, decltype(to_entry)> entries(
            &for_entries, to_entry);
        SortAndDrain(pager, &entries, std::less<BtEntry>());
        IntervalStream for_points = intervals();
        auto to_point = [](const Interval& iv) {
          return Point{iv.lo, iv.hi, iv.id};
        };
        MapStream<Interval, Point, decltype(to_point)> points(&for_points,
                                                              to_point);
        SortAndDrain(pager, &points, PointXOrder());
      });
}

void BM_BuildMetablock(benchmark::State& s) { BuildMetablock(s, false); }
void BM_BuildMetablockCold(benchmark::State& s) { BuildMetablock(s, true); }
void BM_BuildThreeSided(benchmark::State& s) { BuildThreeSided(s, false); }
void BM_BuildThreeSidedCold(benchmark::State& s) {
  BuildThreeSided(s, true);
}
void BM_BuildBptree(benchmark::State& s) { BuildBptree(s, false); }
void BM_BuildBptreeCold(benchmark::State& s) { BuildBptree(s, true); }
void BM_BuildIntervalIndex(benchmark::State& s) {
  BuildIntervalIndex(s, false);
}
void BM_BuildIntervalIndexCold(benchmark::State& s) {
  BuildIntervalIndex(s, true);
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

// The cold leg: the same builds over a pool smaller than the input with
// 20 us reads (kColdPoolPages, kColdReadLatencyUs), reporting next to each
// family's counters the read rounds of a bare sort of the same input.
// The external PST is left out: its binary levels read spilled child runs
// back page by page (O(log2(n/B^2)) dependent scans), so it has no
// sort-only floor to hold.
BENCHMARK(ccidx::bench::BM_BuildMetablockCold)
    ->ArgsProduct({{1 << 14, 1 << 16}, {64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildThreeSidedCold)
    ->ArgsProduct({{1 << 14, 1 << 16}, {64}})
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildBptreeCold)
    ->Arg(1 << 14)->Arg(1 << 16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(ccidx::bench::BM_BuildIntervalIndexCold)
    ->ArgsProduct({{1 << 14, 1 << 16}, {64}})
    ->Unit(benchmark::kMillisecond);

CCIDX_BENCH_MAIN();
