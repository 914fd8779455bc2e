// Sink-type comparison on the metablock diagonal query (DESIGN.md §5):
// VectorSink (full materialization) vs CountSink (no heap traffic) vs
// LimitSink(k) / ExistsSink (early termination). The uncached I/O counters
// show the t/B term collapsing to k/B and to zero; wall time shows the
// in-core win of not copying records.

#include "bench_util.h"

#include "ccidx/query/sink.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

struct Setup {
  explicit Setup(uint32_t b) : disk(b) {}
  Disk disk;
  std::unique_ptr<MetablockTree> tree;
};

constexpr Coord kDomain = 1 << 22;

Setup* GetTree(int64_t n, uint32_t b) {
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  return GetOrBuild(&cache, {n, b}, [&] {
    auto s = std::make_unique<Setup>(b);
    auto tree = MetablockTree::Build(
        &s->disk.pager, RandomPointsAboveDiagonal(n, kDomain, 42));
    CCIDX_CHECK(tree.ok());
    s->tree = std::make_unique<MetablockTree>(std::move(*tree));
    return s;
  });
}

enum SinkKind { kVector = 0, kCount = 1, kLimit = 2, kExists = 3 };

void BM_MetablockDiagonalSinks(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  SinkKind kind = static_cast<SinkKind>(state.range(2));
  const size_t k = 16;  // LimitSink budget
  Setup* s = GetTree(n, b);
  uint64_t ios = 0, total_t = 0, queries = 0;
  Coord a = kDomain / 7;
  for (auto _ : state) {
    IoStats before = s->disk.device.stats();
    switch (kind) {
      case kVector: {
        std::vector<Point> out;
        VectorSink<Point> sink(&out);
        CCIDX_CHECK(s->tree->Query({a}, &sink).ok());
        total_t += out.size();
        break;
      }
      case kCount: {
        CountSink<Point> sink;
        CCIDX_CHECK(s->tree->Query({a}, &sink).ok());
        total_t += sink.count();
        break;
      }
      case kLimit: {
        LimitSink<Point> sink(k);
        CCIDX_CHECK(s->tree->Query({a}, &sink).ok());
        total_t += sink.results().size();
        break;
      }
      case kExists: {
        ExistsSink<Point> sink;
        CCIDX_CHECK(s->tree->Query({a}, &sink).ok());
        total_t += sink.exists() ? 1 : 0;
        break;
      }
    }
    ios += (s->disk.device.stats() - before).TotalIos();
    queries++;
    a = (a + kDomain / 13) % kDomain;
  }
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["avg_t"] = static_cast<double>(total_t) / queries;
  state.counters["logB_n"] = LogB(static_cast<double>(n), b);
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// n = 2^18, B = 64: one output-heavy configuration per sink kind.
BENCHMARK(ccidx::bench::BM_MetablockDiagonalSinks)
    ->ArgsProduct({{1 << 18}, {64}, {0, 1, 2, 3}});

CCIDX_BENCH_MAIN();
