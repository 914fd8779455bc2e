// Experiment E7 (Lemma 2.7 / Theorem 2.8): for every rectangular one-copy
// tessellation of a p x p grid, the worst of (row, column) query cost is at
// least sqrt(B) times optimal — measured exactly over the full aspect-ratio
// sweep. Contrast row: the metablock tree on the same grid (its diagonal
// query class) stays at t/B.

#include "bench_util.h"

#include "ccidx/tess/tessellation.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

void BM_TessellationLineQueries(benchmark::State& state) {
  Coord p = state.range(0);
  Coord w = state.range(1);
  Coord h = state.range(2);
  auto tess = Tessellation::Tiles(p, w, h);
  CCIDX_CHECK(tess.ok());
  CCIDX_CHECK(tess->Validate().ok());
  double row_k = 0, col_k = 0;
  for (auto _ : state) {
    row_k = tess->RowK();
    col_k = tess->ColumnK();
    benchmark::DoNotOptimize(row_k);
  }
  Coord b = w * h;
  state.counters["B"] = static_cast<double>(b);
  state.counters["row_k"] = row_k;
  state.counters["col_k"] = col_k;
  state.counters["max_k"] = std::max(row_k, col_k);
  state.counters["sqrtB_lower_bound"] =
      std::sqrt(static_cast<double>(b));
  state.counters["row_blocks"] = static_cast<double>(tess->RowQueryBlocks(0));
  state.counters["optimal_blocks"] =
      static_cast<double>(p) / static_cast<double>(b);
}

// The contrast: a metablock tree storing the staircase transform of one
// grid row's worth of output answers its query class at t/B, which no
// rectangular tessellation achieves for lines.
void BM_MetablockContrast(benchmark::State& state) {
  Coord p = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  struct Setup {
    explicit Setup(uint32_t bb) : disk(bb) {}
    Disk disk;
    std::unique_ptr<MetablockTree> tree;
  };
  static std::map<std::pair<Coord, uint32_t>, std::unique_ptr<Setup>> cache;
  Setup* s = GetOrBuild(&cache, {p, b}, [&] {
    auto st = std::make_unique<Setup>(b);
    // p^2-point workload whose diagonal queries produce p-point outputs.
    std::vector<Point> pts;
    uint64_t id = 0;
    for (Coord x = 0; x < p; ++x) {
      for (Coord k = 0; k < p; ++k) {
        pts.push_back({x, p + k, id++});  // all above y = x
      }
    }
    auto tree = MetablockTree::Build(&st->disk.pager, std::move(pts));
    CCIDX_CHECK(tree.ok());
    st->tree = std::make_unique<MetablockTree>(std::move(*tree));
    return st;
  });
  uint64_t ios = 0, total_t = 0, queries = 0;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Point> out;
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->tree->Query({2 * p - 1}, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();
    queries++;
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["t"] = avg_t;
  state.counters["t_over_B"] = avg_t / b;
  state.counters["t_over_sqrtB"] = avg_t / std::sqrt(static_cast<double>(b));
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// Aspect-ratio sweep at B = 64, p = 256: (w, h) with w*h = 64.
BENCHMARK(ccidx::bench::BM_TessellationLineQueries)
    ->Args({256, 1, 64})
    ->Args({256, 2, 32})
    ->Args({256, 4, 16})
    ->Args({256, 8, 8})
    ->Args({256, 16, 4})
    ->Args({256, 32, 2})
    ->Args({256, 64, 1});
// B sweep with square tiles (the 8 x 8 row is the aspect sweep's).
BENCHMARK(ccidx::bench::BM_TessellationLineQueries)
    ->Args({256, 2, 2})
    ->Args({256, 4, 4})
    ->Args({256, 16, 16});
// Metablock contrast (p = 128, B sweep).
BENCHMARK(ccidx::bench::BM_MetablockContrast)
    ->Args({128, 16})
    ->Args({128, 64});

CCIDX_BENCH_MAIN();
