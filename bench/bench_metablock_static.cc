// Experiment E2 (Theorem 3.2) + E10 (Prop. 3.3): the static metablock tree.
// Series: diagonal-corner-query I/O vs n, vs t, vs B; space vs n; and the
// lower-bound staircase workload where every query isolates one point —
// measured I/O must track log_B n, far below log2 n.

#include "bench_util.h"

#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace bench {
namespace {

struct Setup {
  explicit Setup(uint32_t b) : disk(b) {}
  Disk disk;
  std::unique_ptr<MetablockTree> tree;
  std::unique_ptr<PointOracle> oracle;
};

constexpr Coord kDomain = 1 << 22;

Setup* GetTree(int64_t n, uint32_t b) {
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  return GetOrBuild(&cache, {n, b}, [&] {
    auto s = std::make_unique<Setup>(b);
    auto points = RandomPointsAboveDiagonal(n, kDomain, 42);
    s->oracle = std::make_unique<PointOracle>(points);
    auto tree = MetablockTree::Build(&s->disk.pager, std::move(points));
    CCIDX_CHECK(tree.ok());
    s->tree = std::make_unique<MetablockTree>(std::move(*tree));
    return s;
  });
}

// Diagonal corner queries at evenly spaced anchors.
void BM_MetablockDiagonalQuery(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Setup* s = GetTree(n, b);
  uint64_t ios = 0, total_t = 0, queries = 0;
  Coord a = kDomain / 7;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Point> out;
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->tree->Query({a}, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();
    queries++;
    a = (a + kDomain / 13) % kDomain;
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["avg_t"] = avg_t;
  state.counters["bound"] =
      LogB(static_cast<double>(n), b) + avg_t / b;
  state.counters["n"] = static_cast<double>(n);
  state.counters["space_pages"] =
      static_cast<double>(s->disk.device.live_pages());
  state.counters["space_bound_pages"] = static_cast<double>(n) / b;
}

// E10: staircase of Prop. 3.3 — every query returns exactly one point, so
// measured I/O is pure search cost; compare against log_B n and log2 n.
void BM_MetablockLowerBoundStaircase(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  Setup* s = GetOrBuild(&cache, {n, b}, [&] {
    auto st = std::make_unique<Setup>(b);
    auto tree =
        MetablockTree::Build(&st->disk.pager, LowerBoundStaircase(n));
    CCIDX_CHECK(tree.ok());
    st->tree = std::make_unique<MetablockTree>(std::move(*tree));
    return st;
  });
  uint64_t ios = 0, queries = 0;
  int64_t i = 0;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Point> out;
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->tree->Query({2 * (i % n) + 1}, &sink).ok());
    CCIDX_CHECK(out.size() == 1);
    ios += s->disk.device.stats().TotalIos();
    queries++;
    i += 7919;
  }
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["logB_n"] = LogB(static_cast<double>(n), b);
  state.counters["log2_n"] = std::log2(static_cast<double>(n));
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
// I/O vs n (B = 32).
BENCHMARK(ccidx::bench::BM_MetablockDiagonalQuery)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20}, {32}})
    ->Iterations(4);
// I/O vs B (n = 2^18; the B = 32 row is the n sweep's).
BENCHMARK(ccidx::bench::BM_MetablockDiagonalQuery)
    ->ArgsProduct({{1 << 18}, {8, 16, 64, 128}})
    ->Iterations(6);
// Lower-bound staircase (E10).
BENCHMARK(ccidx::bench::BM_MetablockLowerBoundStaircase)
    ->ArgsProduct({{1 << 12, 1 << 16, 1 << 20}, {32}})
    ->Iterations(4000);

CCIDX_BENCH_MAIN();
