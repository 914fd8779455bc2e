// Experiment E4 (Prop. 2.2 + §3): interval management. Compares, per
// stabbing query, the metablock-tree-based IntervalIndex against (a) the
// naive full scan and (b) the external PST of [17] (the best previous
// structure, with its log2 n search term). Sweeps workload shapes.

#include "bench_util.h"

#include "ccidx/interval/interval_index.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

struct Setup {
  explicit Setup(uint32_t b) : disk(b), pst_disk(b) {}
  Disk disk;
  Disk pst_disk;
  std::unique_ptr<IntervalIndex> index;
  std::unique_ptr<ExternalPst> pst;  // same point mapping, PST baseline
  size_t n = 0;
};

Setup* GetSetup(int64_t n, uint32_t b, IntervalWorkload w) {
  static std::map<std::tuple<int64_t, uint32_t, int>,
                  std::unique_ptr<Setup>>
      cache;
  return GetOrBuild(&cache, {n, b, static_cast<int>(w)}, [&] {
    auto s = std::make_unique<Setup>(b);
    auto intervals = RandomIntervals(n, kDomain, w, 11);
    std::vector<Point> points;
    for (const Interval& iv : intervals) points.push_back({iv.lo, iv.hi, iv.id});
    auto idx = IntervalIndex::Build(&s->disk.pager, std::move(intervals));
    CCIDX_CHECK(idx.ok());
    s->index = std::make_unique<IntervalIndex>(std::move(*idx));
    auto pst = ExternalPst::Build(&s->pst_disk.pager, std::move(points));
    CCIDX_CHECK(pst.ok());
    s->pst = std::make_unique<ExternalPst>(std::move(*pst));
    s->n = n;
    return s;
  });
}

void BM_IntervalStab(benchmark::State& state) {
  auto w = static_cast<IntervalWorkload>(state.range(2));
  Setup* s = GetSetup(state.range(0), static_cast<uint32_t>(state.range(1)),
                      w);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  uint64_t ios = 0, pst_ios = 0, total_t = 0, queries = 0;
  Coord q = kDomain / 3;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Interval> out;
    VectorSink<Interval> sink(&out);
    CCIDX_CHECK(s->index->Stab(q, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();

    // PST baseline: stabbing = 2-sided query (x <= q, y >= q).
    s->pst_disk.device.ResetStats();
    std::vector<Point> pst_out;
    VectorSink<Point> pst_sink(&pst_out);
    CCIDX_CHECK(s->pst->Query({kCoordMin, q, q}, &pst_sink).ok());
    CCIDX_CHECK(pst_out.size() == out.size());
    pst_ios += s->pst_disk.device.stats().TotalIos();

    queries++;
    q = (q + kDomain / 17) % kDomain;
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["metablock_io"] = static_cast<double>(ios) / queries;
  state.counters["pst_io"] = static_cast<double>(pst_ios) / queries;
  state.counters["scan_io"] =
      static_cast<double>(s->n) / b;  // naive: read all n/B key pages
  state.counters["avg_t"] = avg_t;
  state.counters["bound_logB"] =
      LogB(static_cast<double>(s->n), b) + avg_t / b;
  state.counters["bound_log2"] =
      std::log2(static_cast<double>(s->n)) + avg_t / b;
}

void BM_IntervalIntersect(benchmark::State& state) {
  Setup* s = GetSetup(state.range(0), static_cast<uint32_t>(state.range(1)),
                      IntervalWorkload::kUniform);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Coord width = state.range(2);
  uint64_t ios = 0, total_t = 0, queries = 0;
  Coord q = kDomain / 3;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Interval> out;
    VectorSink<Interval> sink(&out);
    CCIDX_CHECK(s->index->Intersect(q, q + width, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();
    queries++;
    q = (q + kDomain / 17) % (kDomain - width);
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["avg_t"] = avg_t;
  state.counters["bound"] = LogB(static_cast<double>(s->n), b) + avg_t / b;
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
// Stabbing: metablock vs PST vs scan, across workloads (B = 32, n sweep).
BENCHMARK(ccidx::bench::BM_IntervalStab)
    ->ArgsProduct({{1 << 12, 1 << 15, 1 << 18},
                   {32},
                   {static_cast<int>(ccidx::IntervalWorkload::kUniform),
                    static_cast<int>(ccidx::IntervalWorkload::kNested),
                    static_cast<int>(ccidx::IntervalWorkload::kClustered),
                    static_cast<int>(ccidx::IntervalWorkload::kUnit)}})
    ->Iterations(4);
// Intersection: selectivity sweep (query width).
BENCHMARK(ccidx::bench::BM_IntervalIntersect)
    ->ArgsProduct({{1 << 18}, {32}, {0, 1 << 8, 1 << 12, 1 << 16, 1 << 20}})
    ->Iterations(10);

CCIDX_BENCH_MAIN();
