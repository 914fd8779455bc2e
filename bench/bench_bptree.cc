// Experiment E1 (§1.1 baseline): external one-dimensional range searching
// with a B+-tree. Series: query I/O vs n (fixed t) and vs t (fixed n);
// per-row counters report measured I/Os and the O(log_B n + t/B) bound.

#include "bench_util.h"

#include "ccidx/bptree/bptree.h"

namespace ccidx {
namespace bench {
namespace {

struct Setup {
  explicit Setup(uint32_t b) : disk(b) {}
  Disk disk;
  std::unique_ptr<BPlusTree> tree;
};

Setup* GetTree(int64_t n, uint32_t b) {
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  return GetOrBuild(&cache, {n, b}, [&] {
    auto s = std::make_unique<Setup>(b);
    std::vector<BtEntry> entries;
    entries.reserve(n);
    for (int64_t i = 0; i < n; ++i) {
      entries.push_back({i, static_cast<uint64_t>(i), 0});
    }
    auto tree = BPlusTree::BulkLoad(&s->disk.pager, entries);
    CCIDX_CHECK(tree.ok());
    s->tree = std::make_unique<BPlusTree>(std::move(*tree));
    return s;
  });
}

// Range query of output size t on n keys.
void BM_BptreeRangeQuery(benchmark::State& state) {
  int64_t n = state.range(0);
  int64_t t = state.range(1);
  uint32_t b = static_cast<uint32_t>(state.range(2));
  Setup* s = GetTree(n, b);
  uint64_t ios = 0, queries = 0;
  int64_t lo = n / 3;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<BtEntry> out;
    VectorSink<BtEntry> sink(&out);
    CCIDX_CHECK(s->tree->RangeScan(lo, lo + t - 1, &sink).ok());
    CCIDX_CHECK(out.size() == static_cast<size_t>(t));
    ios += s->disk.device.stats().TotalIos();
    queries++;
  }
  state.counters["io_per_query"] =
      static_cast<double>(ios) / static_cast<double>(queries);
  state.counters["bound"] =
      LogB(static_cast<double>(n), s->tree->fanout()) +
      static_cast<double>(t) / s->tree->fanout();
  state.counters["n"] = static_cast<double>(n);
  state.counters["t"] = static_cast<double>(t);
  state.counters["space_pages"] =
      static_cast<double>(s->disk.device.live_pages());
}

void BM_BptreeInsert(benchmark::State& state) {
  uint32_t b = static_cast<uint32_t>(state.range(0));
  Disk disk(b);
  BPlusTree tree(&disk.pager);
  int64_t i = 0;
  for (auto _ : state) {
    CCIDX_CHECK(tree.Insert((i * 2654435761) % 1000000, i).ok());
    i++;
  }
  state.counters["io_per_insert"] =
      static_cast<double>(disk.device.stats().TotalIos()) /
      static_cast<double>(i);
  state.counters["bound"] = LogB(static_cast<double>(std::max<int64_t>(i, 2)),
                                 tree.fanout());
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// Query I/O vs n (t = 64 fixed), B = 32.
BENCHMARK(ccidx::bench::BM_BptreeRangeQuery)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20},
                   {64},
                   {32}});
// Query I/O vs t (n = 2^18 fixed), B = 32.
BENCHMARK(ccidx::bench::BM_BptreeRangeQuery)
    ->ArgsProduct({{1 << 18}, {1, 16, 256, 4096, 65536}, {32}});
// Query I/O vs B (n = 2^18, t = 1024).
BENCHMARK(ccidx::bench::BM_BptreeRangeQuery)
    ->ArgsProduct({{1 << 18}, {1024}, {8, 16, 32, 64, 128}});
// Insert I/O.
BENCHMARK(ccidx::bench::BM_BptreeInsert)->Arg(32)->Iterations(50000);

CCIDX_BENCH_MAIN();
