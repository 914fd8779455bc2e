// Experiment E8 (Lemma 4.1 / ref [17]): the external priority search tree.
// Series: 3-sided query I/O vs n and t against the O(log2 n + t/B) bound —
// the log2 (not log_B) search term is the suboptimality the metablock tree
// removes for its query class.

#include "bench_util.h"

#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

constexpr Coord kDomain = 1 << 22;

struct Setup {
  explicit Setup(uint32_t b) : disk(b) {}
  Disk disk;
  std::unique_ptr<ExternalPst> pst;
};

Setup* GetPst(int64_t n, uint32_t b) {
  static std::map<std::pair<int64_t, uint32_t>, std::unique_ptr<Setup>> cache;
  return GetOrBuild(&cache, {n, b}, [&] {
    auto s = std::make_unique<Setup>(b);
    auto pst = ExternalPst::Build(&s->disk.pager,
                                  RandomPoints(n, kDomain, 13));
    CCIDX_CHECK(pst.ok());
    s->pst = std::make_unique<ExternalPst>(std::move(*pst));
    return s;
  });
}

void BM_PstThreeSided(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Coord width = state.range(2);
  Setup* s = GetPst(n, b);
  uint64_t ios = 0, total_t = 0, queries = 0;
  Coord x = kDomain / 5;
  for (auto _ : state) {
    s->disk.device.ResetStats();
    std::vector<Point> out;
    ThreeSidedQuery q{x, x + width, kDomain - kDomain / 8};
    VectorSink<Point> sink(&out);
    CCIDX_CHECK(s->pst->Query(q, &sink).ok());
    ios += s->disk.device.stats().TotalIos();
    total_t += out.size();
    queries++;
    x = (x + kDomain / 17) % (kDomain - width);
  }
  double avg_t = static_cast<double>(total_t) / queries;
  state.counters["io_per_query"] = static_cast<double>(ios) / queries;
  state.counters["avg_t"] = avg_t;
  state.counters["bound_log2"] =
      std::log2(static_cast<double>(n)) + avg_t / b;
  state.counters["logB_floor"] = LogB(static_cast<double>(n), b);
  state.counters["space_pages"] =
      static_cast<double>(s->disk.device.live_pages());
}

// §5 dynamization (experiment E11): ExternalPst update churn cost and
// query I/O under a mixed insert/delete load — the fully dynamic interval
// manager's engine, with its O(log2 n) search term.
void BM_ExternalPstChurn(benchmark::State& state) {
  int64_t n = state.range(0);
  uint32_t b = static_cast<uint32_t>(state.range(1));
  Disk disk(b);
  auto pst = ExternalPst::Build(&disk.pager, RandomPoints(n, kDomain, 29));
  CCIDX_CHECK(pst.ok());
  std::vector<Point> live = RandomPoints(n, kDomain, 29);
  std::mt19937 rng(31);
  disk.device.ResetStats();
  uint64_t updates = 0;
  uint64_t next_id = static_cast<uint64_t>(n);
  for (auto _ : state) {
    if (rng() % 2 == 0 || live.empty()) {
      Point p{static_cast<Coord>(rng() % kDomain),
              static_cast<Coord>(rng() % kDomain), next_id++};
      CCIDX_CHECK(pst->Insert(p).ok());
      live.push_back(p);
    } else {
      size_t idx = rng() % live.size();
      bool found = false;
      CCIDX_CHECK(pst->Delete(live[idx], &found).ok());
      CCIDX_CHECK(found);
      live[idx] = live.back();
      live.pop_back();
    }
    updates++;
  }
  double log2n = std::log2(static_cast<double>(n));
  state.counters["io_per_update"] =
      static_cast<double>(disk.device.stats().TotalIos()) /
      static_cast<double>(updates);
  state.counters["bound"] = log2n + log2n * log2n / b;

  // Query cost after the churn.
  disk.device.ResetStats();
  std::vector<Point> out;
  VectorSink<Point> sink(&out);
  CCIDX_CHECK(
      pst->Query({kDomain / 4, kDomain / 2, kDomain - kDomain / 8}, &sink)
          .ok());
  state.counters["query_io_after_churn"] =
      static_cast<double>(disk.device.stats().TotalIos());
  state.counters["query_t"] = static_cast<double>(out.size());
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

// E11: PST update churn (B = 32).
BENCHMARK(ccidx::bench::BM_ExternalPstChurn)
    ->ArgsProduct({{1 << 12, 1 << 15, 1 << 18}, {32}})
    ->Iterations(20000);

// The query rows run a fixed iteration count: the query moves every
// iteration, so a count chosen by elapsed time would make the averaged
// I/O counters depend on host speed.
// I/O vs n (B = 32, narrow slab).
BENCHMARK(ccidx::bench::BM_PstThreeSided)
    ->ArgsProduct({{1 << 12, 1 << 14, 1 << 16, 1 << 18, 1 << 20},
                   {32},
                   {1 << 16}})
    ->Iterations(400);
// I/O vs t (slab width sweep, n = 2^18).
BENCHMARK(ccidx::bench::BM_PstThreeSided)
    ->ArgsProduct({{1 << 18}, {32}, {1 << 10, 1 << 14, 1 << 18, 1 << 21}})
    ->Iterations(150);

CCIDX_BENCH_MAIN();
