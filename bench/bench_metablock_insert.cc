// Experiment E3 (Theorem 3.7): amortized insert cost of the augmented
// metablock tree, and query I/O after heavy insertion. Series: amortized
// I/Os per insert vs n, against the O(log_B n + (log_B n)^2/B) bound.

#include "bench_util.h"

#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

void BM_AugmentedInsert(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  uint64_t total_ios = 0;
  uint64_t rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Disk disk(b);
    AugmentedMetablockTree tree(&disk.pager);
    auto points = RandomPointsAboveDiagonal(n, kDomain,
                                            static_cast<uint32_t>(rounds));
    disk.device.ResetStats();
    state.ResumeTiming();
    for (const Point& p : points) {
      CCIDX_CHECK(tree.Insert(p).ok());
    }
    total_ios += disk.device.stats().TotalIos();
    rounds++;
  }
  double per_insert = static_cast<double>(total_ios) /
                      (static_cast<double>(rounds) * static_cast<double>(n));
  double logb = LogB(static_cast<double>(n), b);
  state.counters["io_per_insert"] = per_insert;
  state.counters["bound"] = logb + logb * logb / b;
  state.counters["n"] = static_cast<double>(n);
  state.SetItemsProcessed(rounds * n);
}

// Query cost after building purely by insertion (compares with E2's
// statically built tree).
void BM_AugmentedQueryAfterInserts(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  struct Setup {
    explicit Setup(uint32_t bb) : disk(bb), tree(&disk.pager) {}
    Disk disk;
    AugmentedMetablockTree tree;
  };
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  Setup* s = GetOrBuild(&cache, {n, b}, [&] {
    auto st = std::make_unique<Setup>(b);
    for (const Point& p : RandomPointsAboveDiagonal(n, kDomain, 7)) {
      CCIDX_CHECK(st->tree.Insert(p).ok());
    }
    return st;
  });
  uint64_t ios = 0, total_t = 0, queries = 0;
  Coord a = kDomain / 5;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Point> out;
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->tree.Query({a}, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();
    queries++;
    a = (a + kDomain / 11) % kDomain;
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["avg_t"] = avg_t;
  state.counters["bound"] = LogB(static_cast<double>(n), b) + avg_t / b;
  state.counters["space_pages"] =
      static_cast<double>(s->disk.device.live_pages());
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

BENCHMARK(ccidx::bench::BM_AugmentedInsert)
    ->ArgsProduct({{1 << 10, 1 << 12, 1 << 14, 1 << 16}, {32}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// B sweep at n = 2^14; B = 32 is the n sweep's row above.
BENCHMARK(ccidx::bench::BM_AugmentedInsert)
    ->ArgsProduct({{1 << 14}, {8, 16, 64}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
BENCHMARK(ccidx::bench::BM_AugmentedQueryAfterInserts)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16, 1 << 18}, {32}})
    ->Iterations(16);

CCIDX_BENCH_MAIN();
