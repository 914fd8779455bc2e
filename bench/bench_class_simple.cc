// Experiment E5 (Theorem 2.6 vs §2.2 baselines): class-indexing query I/O
// and space as functions of c (hierarchy size) and n. Shows the three-way
// trade-off the paper describes: the single-index filter cannot compact
// output, the full-extent scheme pays O(depth) space/update, and the
// Theorem 2.6 range tree pays only log2 c factors.

#include "bench_util.h"

#include <random>

#include "ccidx/classes/baselines.h"
#include "ccidx/classes/simple_class_index.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kAttrDomain = 1 << 20;

ClassHierarchy MakeHierarchy(uint32_t c, uint32_t seed) {
  std::mt19937 rng(seed);
  ClassHierarchy h;
  CCIDX_CHECK(h.AddClass("root").ok());
  for (uint32_t i = 1; i < c; ++i) {
    CCIDX_CHECK(h.AddClass("c" + std::to_string(i), rng() % i).ok());
  }
  CCIDX_CHECK(h.Freeze().ok());
  return h;
}

struct Setup {
  Setup(uint32_t b, uint32_t c)
      : hierarchy(MakeHierarchy(c, 5)),
        simple_disk(b),
        single_disk(b),
        full_disk(b),
        extent_disk(b),
        simple(&simple_disk.pager, &hierarchy),
        single(&single_disk.pager, &hierarchy),
        full(&full_disk.pager, &hierarchy),
        extent(&extent_disk.pager, &hierarchy) {}

  ClassHierarchy hierarchy;
  Disk simple_disk, single_disk, full_disk, extent_disk;
  SimpleClassIndex simple;
  SingleIndexBaseline single;
  FullExtentIndex full;
  ExtentOnlyIndex extent;
};

Setup* GetSetup(int64_t n, uint32_t c, uint32_t b) {
  static std::map<std::tuple<int64_t, uint32_t, uint32_t>,
                  std::unique_ptr<Setup>>
      cache;
  return GetOrBuild(&cache, {n, c, b}, [&] {
    auto s = std::make_unique<Setup>(b, c);
    std::mt19937 rng(17);
    for (int64_t i = 0; i < n; ++i) {
      Object o{static_cast<uint64_t>(i), static_cast<uint32_t>(rng() % c),
               static_cast<Coord>(rng() % kAttrDomain)};
      CCIDX_CHECK(s->simple.Insert(o).ok());
      CCIDX_CHECK(s->single.Insert(o).ok());
      CCIDX_CHECK(s->full.Insert(o).ok());
      CCIDX_CHECK(s->extent.Insert(o).ok());
    }
    return s;
  });
}

void BM_ClassQuery(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t c = static_cast<uint32_t>(state.range(1));
  uint32_t b = static_cast<uint32_t>(state.range(2));
  Setup* s = GetSetup(n, c, b);
  std::mt19937 rng(23);
  uint64_t io_simple = 0, io_single = 0, io_full = 0, io_extent = 0;
  uint64_t total_t = 0, queries = 0;
  for (auto _ : state) {
    uint32_t cls = rng() % c;
    Coord a1 = static_cast<Coord>(rng() % kAttrDomain);
    Coord a2 = a1 + kAttrDomain / 64;
    auto measure = [&](Disk& d, auto&& q) {
      d.device.ResetStats();
      std::vector<uint64_t> out;
      VectorSink<uint64_t> sink(&out);
      CCIDX_CHECK(q(&sink).ok());
      return std::make_pair(d.device.stats().TotalIos(), out.size());
    };
    auto [i1, t1] = measure(s->simple_disk, [&](ResultSink<uint64_t>* sink) {
      return s->simple.Query(cls, a1, a2, sink);
    });
    auto [i2, t2] = measure(s->single_disk, [&](ResultSink<uint64_t>* sink) {
      return s->single.Query(cls, a1, a2, sink);
    });
    auto [i3, t3] = measure(s->full_disk, [&](ResultSink<uint64_t>* sink) {
      return s->full.Query(cls, a1, a2, sink);
    });
    auto [i4, t4] = measure(s->extent_disk, [&](ResultSink<uint64_t>* sink) {
      return s->extent.Query(cls, a1, a2, sink);
    });
    CCIDX_CHECK(t1 == t2 && t2 == t3 && t3 == t4);
    io_simple += i1;
    io_single += i2;
    io_full += i3;
    io_extent += i4;
    total_t += t1;
    queries++;
  }
  double q = static_cast<double>(queries);
  double avg_t = static_cast<double>(total_t) / q;
  double logb_n = LogB(static_cast<double>(n), b);
  state.counters["thm26_io"] = io_simple / q;
  state.counters["single_io"] = io_single / q;
  state.counters["fullext_io"] = io_full / q;
  state.counters["extent_io"] = io_extent / q;
  state.counters["avg_t"] = avg_t;
  state.counters["thm26_bound"] =
      std::log2(static_cast<double>(c)) * logb_n + avg_t / b;
  state.counters["thm26_space"] =
      static_cast<double>(s->simple_disk.device.live_pages());
  state.counters["single_space"] =
      static_cast<double>(s->single_disk.device.live_pages());
  state.counters["fullext_space"] =
      static_cast<double>(s->full_disk.device.live_pages());
  state.counters["extent_space"] =
      static_cast<double>(s->extent_disk.device.live_pages());
}

void BM_ClassUpdate(benchmark::State& state) {
  uint32_t c = static_cast<uint32_t>(state.range(0));
  uint32_t b = 32;
  auto h = MakeHierarchy(c, 5);
  Disk d_simple(b), d_full(b);
  SimpleClassIndex simple(&d_simple.pager, &h);
  FullExtentIndex full(&d_full.pager, &h);
  std::mt19937 rng(29);
  uint64_t i = 0;
  for (auto _ : state) {
    Object o{i, static_cast<uint32_t>(rng() % c),
             static_cast<Coord>(rng() % kAttrDomain)};
    CCIDX_CHECK(simple.Insert(o).ok());
    CCIDX_CHECK(full.Insert(o).ok());
    i++;
  }
  state.counters["thm26_io_per_insert"] =
      static_cast<double>(d_simple.device.stats().TotalIos()) /
      static_cast<double>(i);
  state.counters["fullext_io_per_insert"] =
      static_cast<double>(d_full.device.stats().TotalIos()) /
      static_cast<double>(i);
  state.counters["log2c"] = std::log2(static_cast<double>(c));
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
// Query I/O + space vs c (n = 2^16, B = 32).
BENCHMARK(ccidx::bench::BM_ClassQuery)
    ->ArgsProduct({{1 << 16}, {4, 16, 64, 256, 1024}, {32}})
    ->Iterations(500);
// Query I/O vs n (c = 64; the n = 2^16 row is the c sweep's).
BENCHMARK(ccidx::bench::BM_ClassQuery)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 18}, {64}, {32}})
    ->Iterations(200);
// Update I/O vs c.
BENCHMARK(ccidx::bench::BM_ClassUpdate)
    ->Arg(16)
    ->Arg(256)
    ->Arg(1024)
    ->Iterations(20000);

CCIDX_BENCH_MAIN();
