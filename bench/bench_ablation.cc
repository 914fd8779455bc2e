// Experiment EA (ablation study): what each metablock-tree side structure
// buys. Builds the same point set with (a) everything on, (b) corner
// structures off (Lemma 3.1 ablated), (c) TS structures off (Fig. 10/17
// ablated), and measures query I/O on workloads engineered to stress the
// ablated component.
//
//   * corner ablation — queries whose corner lands inside a metablock with
//     tiny output: the fallback scans every vertical block left of the
//     corner, so I/O inflates from O(1 + t/B) to O(B) per Type II node.
//   * TS ablation — high-anchor queries with tiny output but many left
//     siblings on the corner path: without TS the query pays per-sibling
//     visits it cannot charge to output.

#include "bench_util.h"

#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

struct Setup {
  explicit Setup(uint32_t b) : full_disk(b), nocorner_disk(b), nots_disk(b) {}
  Disk full_disk, nocorner_disk, nots_disk;
  std::unique_ptr<MetablockTree> full, nocorner, nots;
};

Setup* GetSetup(int64_t n, uint32_t b) {
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  return GetOrBuild(&cache, {n, b}, [&] {
    auto s = std::make_unique<Setup>(b);
    auto points = RandomPointsAboveDiagonal(n, kDomain, 71);
    MetablockOptions no_corner;
    no_corner.use_corner_structures = false;
    MetablockOptions no_ts;
    no_ts.use_ts_structures = false;
    auto t1 = MetablockTree::Build(&s->full_disk.pager, points);
    CCIDX_CHECK(t1.ok());
    s->full = std::make_unique<MetablockTree>(std::move(*t1));
    auto t2 = MetablockTree::Build(&s->nocorner_disk.pager, points,
                                   no_corner);
    CCIDX_CHECK(t2.ok());
    s->nocorner = std::make_unique<MetablockTree>(std::move(*t2));
    auto t3 = MetablockTree::Build(&s->nots_disk.pager, points, no_ts);
    CCIDX_CHECK(t3.ok());
    s->nots = std::make_unique<MetablockTree>(std::move(*t3));
    return s;
  });
}

// High anchors: tiny outputs, so search-term overheads dominate and the
// ablated structures cannot hide behind t/B.
void BM_AblationSmallOutput(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Setup* s = GetSetup(n, b);
  uint64_t io_full = 0, io_nc = 0, io_nt = 0, total_t = 0, queries = 0;
  Coord a = kDomain - kDomain / 64;
  for (auto _ : state) {
    auto run = [&](Disk& d, MetablockTree* t) {
      d.device.ResetStats();
      std::vector<Point> out;
      VectorSink<Point> sink(&out);
      CCIDX_CHECK(t->Query({a}, &sink).ok());
      return std::make_pair(d.device.stats().TotalIos(), out.size());
    };
    auto [i1, t1] = run(s->full_disk, s->full.get());
    auto [i2, t2] = run(s->nocorner_disk, s->nocorner.get());
    auto [i3, t3] = run(s->nots_disk, s->nots.get());
    CCIDX_CHECK(t1 == t2 && t2 == t3);
    io_full += i1;
    io_nc += i2;
    io_nt += i3;
    total_t += t1;
    queries++;
    a = kDomain - kDomain / 64 + (queries * 131) % (kDomain / 64);
  }
  double q = static_cast<double>(queries);
  state.counters["full_io"] = io_full / q;
  state.counters["no_corner_io"] = io_nc / q;
  state.counters["no_ts_io"] = io_nt / q;
  state.counters["avg_t"] = static_cast<double>(total_t) / q;
  state.counters["bound"] =
      LogB(static_cast<double>(n), b) +
      static_cast<double>(total_t) / q / b;
}

// Mid anchors: moderate output; shows the ablations' overhead relative to
// a t/B-dominated query.
void BM_AblationMidOutput(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Setup* s = GetSetup(n, b);
  uint64_t io_full = 0, io_nc = 0, io_nt = 0, total_t = 0, queries = 0;
  Coord a = kDomain / 2;
  for (auto _ : state) {
    auto run = [&](Disk& d, MetablockTree* t) {
      d.device.ResetStats();
      std::vector<Point> out;
      VectorSink<Point> sink(&out);
      CCIDX_CHECK(t->Query({a}, &sink).ok());
      return std::make_pair(d.device.stats().TotalIos(), out.size());
    };
    auto [i1, t1] = run(s->full_disk, s->full.get());
    auto [i2, t2] = run(s->nocorner_disk, s->nocorner.get());
    auto [i3, t3] = run(s->nots_disk, s->nots.get());
    CCIDX_CHECK(t1 == t2 && t2 == t3);
    io_full += i1;
    io_nc += i2;
    io_nt += i3;
    total_t += t1;
    queries++;
    a = kDomain / 2 + (queries * 4099) % (kDomain / 4);
  }
  double q = static_cast<double>(queries);
  state.counters["full_io"] = io_full / q;
  state.counters["no_corner_io"] = io_nc / q;
  state.counters["no_ts_io"] = io_nt / q;
  state.counters["avg_t"] = static_cast<double>(total_t) / q;
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

BENCHMARK(ccidx::bench::BM_AblationSmallOutput)
    ->ArgsProduct({{1 << 14, 1 << 17, 1 << 20}, {32}});
// B sweep (n = 2^17; the B = 32 row is the n sweep's).
BENCHMARK(ccidx::bench::BM_AblationSmallOutput)
    ->ArgsProduct({{1 << 17}, {8, 128}});
BENCHMARK(ccidx::bench::BM_AblationMidOutput)
    ->ArgsProduct({{1 << 17}, {32}});

CCIDX_BENCH_MAIN();
