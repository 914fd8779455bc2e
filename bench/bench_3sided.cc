// Experiment E9 (Lemma 4.3): the 3-sided metablock-tree variant vs the
// plain external PST on identical 3-sided workloads. The variant's search
// term is log_B n + log2 B; the PST's is log2 n — the gap grows with n.

#include "bench_util.h"

#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

struct Setup {
  explicit Setup(uint32_t b) : tree_disk(b), pst_disk(b) {}
  Disk tree_disk, pst_disk;
  std::unique_ptr<ThreeSidedTree> tree;
  std::unique_ptr<ExternalPst> pst;
};

Setup* GetSetup(int64_t n, uint32_t b) {
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  return GetOrBuild(&cache, {n, b}, [&] {
    auto s = std::make_unique<Setup>(b);
    auto points = RandomPoints(n, kDomain, 19);
    auto tree = ThreeSidedTree::Build(&s->tree_disk.pager, points);
    CCIDX_CHECK(tree.ok());
    s->tree = std::make_unique<ThreeSidedTree>(std::move(*tree));
    auto pst = ExternalPst::Build(&s->pst_disk.pager, std::move(points));
    CCIDX_CHECK(pst.ok());
    s->pst = std::make_unique<ExternalPst>(std::move(*pst));
    return s;
  });
}

void BM_ThreeSidedVsPst(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Coord width = state.range(2);
  Setup* s = GetSetup(n, b);
  uint64_t tree_ios = 0, pst_ios = 0, total_t = 0, queries = 0;
  Coord x = kDomain / 9;
  for (auto _ : state) {
    ThreeSidedQuery q{x, x + width, kDomain - kDomain / 6};
    s->tree_disk.device.ResetStats();
    std::vector<Point> out1;
    VectorSink<Point> out1_sink(&out1);
    CCIDX_CHECK(s->tree->Query(q, &out1_sink).ok());
    tree_ios += s->tree_disk.device.stats().TotalIos();

    s->pst_disk.device.ResetStats();
    std::vector<Point> out2;
    VectorSink<Point> out2_sink(&out2);
    CCIDX_CHECK(s->pst->Query(q, &out2_sink).ok());
    pst_ios += s->pst_disk.device.stats().TotalIos();

    CCIDX_CHECK(out1.size() == out2.size());
    total_t += out1.size();
    queries++;
    x = (x + kDomain / 23) % (kDomain - width);
  }
  double qd = static_cast<double>(queries);
  double avg_t = static_cast<double>(total_t) / qd;
  double logb_n = LogB(static_cast<double>(n), b);
  state.counters["lemma43_io"] = tree_ios / qd;
  state.counters["pst_io"] = pst_ios / qd;
  state.counters["avg_t"] = avg_t;
  state.counters["lemma43_bound"] =
      logb_n + std::log2(static_cast<double>(b)) + avg_t / b;
  state.counters["pst_bound"] = std::log2(static_cast<double>(n)) + avg_t / b;
  state.counters["lemma43_space"] =
      static_cast<double>(s->tree_disk.device.live_pages());
  state.counters["pst_space"] =
      static_cast<double>(s->pst_disk.device.live_pages());
}

// Lemma 4.4: the semi-dynamic variant — amortized insert cost and query
// I/O after a pure-insert build.
void BM_AugmentedThreeSidedInsert(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  uint64_t total_ios = 0, rounds = 0;
  for (auto _ : state) {
    state.PauseTiming();
    Disk disk(b);
    AugmentedThreeSidedTree tree(&disk.pager);
    auto points = RandomPoints(n, kDomain, static_cast<uint32_t>(rounds));
    disk.device.ResetStats();
    state.ResumeTiming();
    for (const Point& p : points) CCIDX_CHECK(tree.Insert(p).ok());
    total_ios += disk.device.stats().TotalIos();
    rounds++;
  }
  double per_insert = static_cast<double>(total_ios) /
                      (static_cast<double>(rounds) * static_cast<double>(n));
  double logb = LogB(static_cast<double>(n), b);
  state.counters["io_per_insert"] = per_insert;
  state.counters["bound"] = logb + logb * logb / b;
  state.SetItemsProcessed(rounds * n);
}

void BM_AugmentedThreeSidedQuery(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  struct DynSetup {
    explicit DynSetup(uint32_t bb) : disk(bb), tree(&disk.pager) {}
    Disk disk;
    AugmentedThreeSidedTree tree;
  };
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<DynSetup>>
      cache;
  DynSetup* s = GetOrBuild(&cache, {n, b}, [&] {
    auto st = std::make_unique<DynSetup>(b);
    for (const Point& p : RandomPoints(n, kDomain, 23)) {
      CCIDX_CHECK(st->tree.Insert(p).ok());
    }
    return st;
  });
  uint64_t ios = 0, total_t = 0, queries = 0;
  Coord x = kDomain / 9;
  for (auto _ : state) {
    ThreeSidedQuery q{x, x + (1 << 15), kDomain - kDomain / 6};
    s->disk.device.ResetStats();
    std::vector<Point> out;
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->tree.Query(q, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();
    queries++;
    x = (x + kDomain / 23) % (kDomain - (1 << 15));
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["avg_t"] = avg_t;
  state.counters["bound"] = LogB(static_cast<double>(n), b) +
                            std::log2(static_cast<double>(b)) + avg_t / b;
  state.counters["space_pages"] =
      static_cast<double>(s->disk.device.live_pages());
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// Lemma 4.4 insert cost vs n (B = 32).
BENCHMARK(ccidx::bench::BM_AugmentedThreeSidedInsert)
    ->ArgsProduct({{1 << 10, 1 << 12, 1 << 14}, {32}})
    ->Iterations(1)
    ->Unit(benchmark::kMillisecond);
// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
// Lemma 4.4 query cost after pure-insert build.
BENCHMARK(ccidx::bench::BM_AugmentedThreeSidedQuery)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16}, {32}})
    ->Iterations(1000);

// I/O vs n (B = 32, mid-width slab).
BENCHMARK(ccidx::bench::BM_ThreeSidedVsPst)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16, 1 << 18}, {32}, {1 << 15}})
    ->Iterations(500);
// I/O vs B (n = 2^16; the B = 32 row is the n sweep's).
BENCHMARK(ccidx::bench::BM_ThreeSidedVsPst)
    ->ArgsProduct({{1 << 16}, {8, 16, 64}, {1 << 15}})
    ->Iterations(500);
// I/O vs t (n = 2^16, width sweep).
BENCHMARK(ccidx::bench::BM_ThreeSidedVsPst)
    ->ArgsProduct({{1 << 16}, {32}, {1 << 8, 1 << 12, 1 << 16, 1 << 20}})
    ->Iterations(500);

CCIDX_BENCH_MAIN();
