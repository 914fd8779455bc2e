// In-page kernel microbenchmarks (DESIGN.md §9): ns/record for each
// dispatched kernel at every level the host supports, against the scalar
// reference — the acceptance bar is the 3-sided filter at >= 2x over
// scalar on AVX2 hosts — plus the end-to-end effect on the warm
// metablock diagonal query (the suite's canonical in-core hot path).

#include "bench_util.h"

#include <cstdlib>

#include "ccidx/query/sink.h"
#include "ccidx/simd/filter_emit.h"
#include "ccidx/simd/simd.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

// Level encoding for benchmark args: 0 = scalar, 1 = sse4.2, 2 = avx2,
// 3 = avx512, 9 = whatever the host dispatches to by default.
simd::Level LevelForArg(int64_t arg) {
  switch (arg) {
    case 0: return simd::Level::kScalar;
    case 1: return simd::Level::kSse42;
    case 2: return simd::Level::kAvx2;
    case 3: return simd::Level::kAvx512;
    default: return simd::ActiveLevel();
  }
}

bool PinLevel(benchmark::State& state, int64_t arg, simd::Level* restore) {
  *restore = simd::ActiveLevel();
  simd::Level want = LevelForArg(arg);
  if (!simd::SetLevel(want)) {
    state.SkipWithError("dispatch level unsupported on this host");
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Kernel microbenchmarks: one page-sized span per iteration.
// ---------------------------------------------------------------------------

void BM_Filter3Sided(benchmark::State& state) {
  simd::Level restore;
  if (!PinLevel(state, state.range(1), &restore)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Point> pts = RandomPoints(n, kDomain, 7);
  std::vector<uint32_t> idx(n);
  const simd::KernelTable& k = simd::Kernels();
  // ~half the span matches: the mixed-outcome case branchy code hates.
  Coord xlo = kDomain / 8, xhi = kDomain / 2, ylo = kDomain / 4;
  size_t total = 0;
  for (auto _ : state) {
    total += k.filter_3sided(pts.data(), n, xlo, xhi, ylo, idx.data());
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  state.counters["matched_frac"] =
      static_cast<double>(total) / (static_cast<double>(state.iterations()) * n);
  simd::SetLevel(restore);
}

void BM_FilterYAtLeast(benchmark::State& state) {
  simd::Level restore;
  if (!PinLevel(state, state.range(1), &restore)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Point> pts = RandomPoints(n, kDomain, 11);
  std::vector<uint32_t> idx(n);
  const simd::KernelTable& k = simd::Kernels();
  size_t total = 0;
  for (auto _ : state) {
    total += k.filter_y_at_least(pts.data(), n, kDomain / 2, idx.data());
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  benchmark::DoNotOptimize(total);
  simd::SetLevel(restore);
}

void BM_FirstGePartitionScan(benchmark::State& state) {
  simd::Level restore;
  if (!PinLevel(state, state.range(1), &restore)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Point> pts = RandomPoints(n, kDomain, 13);
  std::sort(pts.begin(), pts.end(), PointXOrder());
  const simd::KernelTable& k = simd::Kernels();
  const uint8_t* base = simd::FieldBase(pts.data(), offsetof(Point, x));
  Coord v = kDomain / 2;
  size_t total = 0;
  for (auto _ : state) {
    total += k.first_i64_ge(base, sizeof(Point), n, v);
  }
  state.SetItemsProcessed(state.iterations() * n);
  benchmark::DoNotOptimize(total);
  simd::SetLevel(restore);
}

void BM_TombstoneCandidates(benchmark::State& state) {
  simd::Level restore;
  if (!PinLevel(state, state.range(1), &restore)) return;
  const size_t n = static_cast<size_t>(state.range(0));
  std::vector<Point> pts = RandomPoints(n, kDomain, 17);
  // A mostly-empty filter, the steady-state shape after a purge.
  std::vector<uint32_t> counters(1024, 0);
  counters[3] = 1;
  counters[700] = 2;
  std::vector<uint32_t> idx(n);
  const simd::KernelTable& k = simd::Kernels();
  size_t total = 0;
  for (auto _ : state) {
    total += k.tombstone_candidates(pts.data(), n, counters.data(),
                                    counters.size() - 1, idx.data());
    benchmark::DoNotOptimize(idx.data());
  }
  state.SetItemsProcessed(state.iterations() * n);
  benchmark::DoNotOptimize(total);
  simd::SetLevel(restore);
}

// ---------------------------------------------------------------------------
// End-to-end: warm metablock diagonal query under each dispatch level.
// ---------------------------------------------------------------------------

struct Setup {
  explicit Setup(uint32_t b) : disk(b) {}
  Disk disk;
  std::unique_ptr<MetablockTree> tree;
};

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

void BM_MetablockDiagonalWarm(benchmark::State& state) {
  simd::Level restore;
  if (!PinLevel(state, state.range(2), &restore)) return;
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Setup* s = GetTree(n, b);
  uint64_t total_t = 0, queries = 0;
  Coord a = kDomain / 7;
  // Reused across iterations: a per-iteration 2 MB reallocation would
  // dominate the query and bury the in-page work being measured.
  std::vector<Point> out;
  for (auto _ : state) {
    out.clear();
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->tree->Query({a}, &sink).ok());
    total_t += out.size();
    queries++;
    a = (a + kDomain / 13) % kDomain;
  }
  state.counters["avg_t"] = static_cast<double>(total_t) / queries;
  simd::SetLevel(restore);
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// Page-sized spans (B = 64 and 256 points) at every dispatch level.
// Unsupported levels self-skip (PinLevel), so the full grid is safe to
// register on any host.
BENCHMARK(ccidx::bench::BM_Filter3Sided)
    ->ArgsProduct({{64, 256, 4096}, {0, 1, 2, 3}});
BENCHMARK(ccidx::bench::BM_FilterYAtLeast)
    ->ArgsProduct({{256, 4096}, {0, 2, 3}});
BENCHMARK(ccidx::bench::BM_FirstGePartitionScan)
    ->ArgsProduct({{256, 4096}, {0, 2}});
BENCHMARK(ccidx::bench::BM_TombstoneCandidates)
    ->ArgsProduct({{256, 4096}, {0, 2}});
// Warm diagonal query, scalar vs host dispatch (arg 9 = default level).
BENCHMARK(ccidx::bench::BM_MetablockDiagonalWarm)
    ->ArgsProduct({{1 << 18}, {64}, {0, 9}});

CCIDX_BENCH_MAIN();
