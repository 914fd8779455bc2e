// Experiment E6 (Theorem 4.7 vs Theorem 2.6): the rake-and-contract index
// removes the log2 c factor from query I/O at the cost of an additive
// log2 B. Sweeps hierarchy shape: deep/degenerate (where Thm 2.6 pays the
// most), shallow/bushy, and random, plus c and n.

#include "bench_util.h"

#include <random>

#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kAttrDomain = 1 << 20;

enum Shape : int { kRandom = 0, kDegenerate = 1, kBushy = 2 };

ClassHierarchy MakeHierarchy(uint32_t c, Shape shape, uint32_t seed) {
  std::mt19937 rng(seed);
  ClassHierarchy h;
  CCIDX_CHECK(h.AddClass("root").ok());
  for (uint32_t i = 1; i < c; ++i) {
    uint32_t parent;
    switch (shape) {
      case kDegenerate:
        parent = i - 1;  // a path
        break;
      case kBushy:
        parent = (i - 1) / 8;  // 8-ary tree
        break;
      default:
        parent = rng() % i;
    }
    CCIDX_CHECK(h.AddClass("c" + std::to_string(i), parent).ok());
  }
  CCIDX_CHECK(h.Freeze().ok());
  return h;
}

struct Setup {
  Setup(uint32_t b, uint32_t c, Shape shape)
      : hierarchy(MakeHierarchy(c, shape, 3)),
        simple_disk(b),
        rake_disk(b),
        simple(&simple_disk.pager, &hierarchy) {}

  ClassHierarchy hierarchy;
  Disk simple_disk, rake_disk;
  SimpleClassIndex simple;
  std::unique_ptr<RakeContractIndex> rake;
};

Setup* GetSetup(int64_t n, uint32_t c, Shape shape, uint32_t b) {
  static std::map<std::tuple<int64_t, uint32_t, int, uint32_t>,
                  std::unique_ptr<Setup>>
      cache;
  return GetOrBuild(&cache, {n, c, static_cast<int>(shape), b}, [&] {
    auto s = std::make_unique<Setup>(b, c, shape);
    std::mt19937 rng(31);
    std::vector<Object> objects;
    for (int64_t i = 0; i < n; ++i) {
      objects.push_back({static_cast<uint64_t>(i),
                         static_cast<uint32_t>(rng() % c),
                         static_cast<Coord>(rng() % kAttrDomain)});
    }
    for (const Object& o : objects) CCIDX_CHECK(s->simple.Insert(o).ok());
    auto rc = RakeContractIndex::Build(&s->rake_disk.pager, &s->hierarchy,
                                       objects);
    CCIDX_CHECK(rc.ok());
    s->rake = std::make_unique<RakeContractIndex>(std::move(*rc));
    return s;
  });
}

void BM_RakeVsSimple(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t c = static_cast<uint32_t>(state.range(1));
  Shape shape = static_cast<Shape>(state.range(2));
  const uint32_t b = 32;
  Setup* s = GetSetup(n, c, shape, b);
  std::mt19937 rng(37);
  uint64_t io_simple = 0, io_rake = 0, total_t = 0, queries = 0;
  for (auto _ : state) {
    uint32_t cls = rng() % c;
    Coord a1 = static_cast<Coord>(rng() % kAttrDomain);
    Coord a2 = a1 + kAttrDomain / 64;

    s->simple_disk.device.ResetStats();
    std::vector<uint64_t> out1;
    VectorSink<uint64_t> out1_sink(&out1);
    CCIDX_CHECK(s->simple.Query(cls, a1, a2, &out1_sink).ok());
    io_simple += s->simple_disk.device.stats().TotalIos();

    s->rake_disk.device.ResetStats();
    std::vector<uint64_t> out2;
    VectorSink<uint64_t> out2_sink(&out2);
    CCIDX_CHECK(s->rake->Query(cls, a1, a2, &out2_sink).ok());
    io_rake += s->rake_disk.device.stats().TotalIos();

    CCIDX_CHECK(out1.size() == out2.size());
    total_t += out1.size();
    queries++;
  }
  double q = static_cast<double>(queries);
  double avg_t = static_cast<double>(total_t) / q;
  double logb_n = LogB(static_cast<double>(n), b);
  state.counters["thm26_io"] = io_simple / q;
  state.counters["thm47_io"] = io_rake / q;
  state.counters["avg_t"] = avg_t;
  state.counters["thm26_bound"] =
      std::log2(static_cast<double>(c)) * logb_n + avg_t / b;
  state.counters["thm47_bound"] =
      logb_n + std::log2(static_cast<double>(b)) + avg_t / b;
  state.counters["thm26_space"] =
      static_cast<double>(s->simple_disk.device.live_pages());
  state.counters["thm47_space"] =
      static_cast<double>(s->rake_disk.device.live_pages());
  state.counters["max_replication"] =
      static_cast<double>(s->rake->max_replication());
  state.counters["num_paths"] = static_cast<double>(s->rake->num_paths());
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
// Query I/O vs c, random hierarchy (n = 2^16).
BENCHMARK(ccidx::bench::BM_RakeVsSimple)
    ->ArgsProduct({{1 << 16}, {16, 64, 256, 1024}, {ccidx::bench::kRandom}})
    ->Iterations(2000);
// Hierarchy shape sweep (c = 256; the random row is the c sweep's).
BENCHMARK(ccidx::bench::BM_RakeVsSimple)
    ->ArgsProduct({{1 << 16},
                   {256},
                   {ccidx::bench::kDegenerate, ccidx::bench::kBushy}})
    ->Iterations(500);
// Query I/O vs n (c = 256, random).
BENCHMARK(ccidx::bench::BM_RakeVsSimple)
    ->ArgsProduct({{1 << 13, 1 << 15, 1 << 17},
                   {256},
                   {ccidx::bench::kRandom}})
    ->Iterations(2000);

CCIDX_BENCH_MAIN();
