// E7: cold dependent-descent latency under injected device latency
// (DESIGN.md §10).
//
// The cost-model experiments (E1-E6) count I/Os on a zero-latency
// simulator; this harness measures what the async-I/O layer buys when
// each device read actually costs something. A latency-injecting
// in-memory device (50 us per read round, the ballpark of a fast NVMe
// random read) serves a B+-tree of >= 4 internal levels; every measured
// query starts from a dropped cache, so the descent pays the full
// dependent-read chain the paper's log_B n term describes.
//
// Two configurations per shape, selected by the benchmark argument:
//   /0  speculation off (CCIDX_PREFETCH=0): the historical serial walk —
//       one device round per level, one per leaf.
//   /1  speculation on (budget Pager::kSpeculationBudget = 4): per-level
//       batched warm-ups of the routed child + right siblings, and
//       leaf windows pinned through Pager::PinMany.
// The acceptance bar for this layer is >= 1.5x on the cold range scan
// (/1 vs /0). Per-query p50/p99 land in the JSON series alongside the
// mean, tagged with the backend label ("mem+lat50").
//
// The device is constructed explicitly (not from CCIDX_DEVICE), so this
// binary measures the same thing no matter how the suite-level backend
// env is set; only CCIDX_PREFETCH is toggled, before each Pager is
// built, to select the configuration.

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <map>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "ccidx/bptree/bptree.h"

namespace ccidx {
namespace bench {
namespace {

// The devices here are constructed with explicit 50 us latency, not from
// CCIDX_DEVICE_LATENCY_US — default the env (without clobbering an
// explicit setting) so BackendLabel() tags this binary's JSON series
// accordingly.
const int kLabelEnv = setenv("CCIDX_DEVICE_LATENCY_US", "50", 0);

constexpr uint32_t kPageSize = 256;     // fanout 10 for BtEntry
constexpr uint32_t kLatencyUs = 50;     // per device read round
constexpr int64_t kN = 65536;           // => height 5 (4 internal levels)
constexpr int64_t kSpan = 160;          // range scan covering ~16 leaves
constexpr uint32_t kPoolFrames = 512;

struct DescentSetup {
  DescentSetup(bool speculative)
      : device(kPageSize,
               BlockDeviceOptions{"mem", "", kLatencyUs}),
        pager(&device,
              (setenv("CCIDX_PREFETCH", speculative ? "1" : "0", 1),
               kPoolFrames)),
        tree(&pager) {
    std::vector<BtEntry> entries;
    entries.reserve(kN);
    for (int64_t i = 0; i < kN; ++i) {
      entries.push_back({i, static_cast<uint64_t>(i), 0});
    }
    auto built = BPlusTree::BulkLoad(&pager, entries);
    CCIDX_CHECK(built.ok());
    tree = std::move(*built);
    CCIDX_CHECK(tree.height() >= 5);
  }

  BlockDevice device;
  Pager pager;
  BPlusTree tree;
};

DescentSetup* GetSetup(bool speculative) {
  static std::map<bool, std::unique_ptr<DescentSetup>> cache;
  return GetOrBuild(&cache, speculative, [&] {
    return std::make_unique<DescentSetup>(speculative);
  });
}

void ReportPercentiles(benchmark::State& state, std::vector<double>* us) {
  if (us->empty()) return;
  std::sort(us->begin(), us->end());
  auto pct = [&](double p) {
    size_t i = static_cast<size_t>(p * (us->size() - 1));
    return (*us)[i];
  };
  state.counters["p50_us"] = pct(0.50);
  state.counters["p99_us"] = pct(0.99);
}

// Cold range scan: root-to-leaf descent plus a ~16-leaf output walk.
// This is where batching pays: the serial walk is one 50 us round per
// level and per leaf; the batched path pays one round per level and one
// per leaf *window*.
void BM_ColdRangeScan(benchmark::State& state) {
  const bool spec = state.range(0) != 0;
  DescentSetup* s = GetSetup(spec);
  std::vector<double> us;
  std::vector<BtEntry> out;
  int64_t lo = 0;
  for (auto _ : state) {
    CCIDX_CHECK(s->pager.DropCache().ok());
    out.clear();
    auto t0 = std::chrono::steady_clock::now();
    VectorSink<BtEntry> sink(&out);
    CCIDX_CHECK(s->tree.RangeScan(lo, lo + kSpan - 1, &sink).ok());
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());
    us.push_back(dt.count() * 1e6);
    benchmark::DoNotOptimize(out.data());
    CCIDX_CHECK(out.size() == static_cast<size_t>(kSpan));
    lo = (lo + 7919) % (kN - kSpan);
  }
  ReportPercentiles(state, &us);
  state.counters["height"] = s->tree.height();
  state.counters["spec_budget"] = s->pager.speculation_budget();
}
BENCHMARK(BM_ColdRangeScan)->Arg(0)->Arg(1)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

// Cold point lookup: a pure dependent chain. Speculation cannot shorten
// it (each level's routing needs the previous page), so /0 vs /1 here
// documents that the speculative path does not regress the case it
// cannot help — the overshoot budget buys neighbors, not depth.
void BM_ColdPointLookup(benchmark::State& state) {
  const bool spec = state.range(0) != 0;
  DescentSetup* s = GetSetup(spec);
  std::vector<double> us;
  std::vector<BtEntry> out;
  int64_t key = 0;
  for (auto _ : state) {
    CCIDX_CHECK(s->pager.DropCache().ok());
    out.clear();
    auto t0 = std::chrono::steady_clock::now();
    VectorSink<BtEntry> sink(&out);
    CCIDX_CHECK(s->tree.RangeScan(key, key, &sink).ok());
    std::chrono::duration<double> dt =
        std::chrono::steady_clock::now() - t0;
    state.SetIterationTime(dt.count());
    us.push_back(dt.count() * 1e6);
    benchmark::DoNotOptimize(out.data());
    key = (key + 7919) % kN;
  }
  ReportPercentiles(state, &us);
  state.counters["height"] = s->tree.height();
}
BENCHMARK(BM_ColdPointLookup)->Arg(0)->Arg(1)->UseManualTime()
    ->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace ccidx

CCIDX_BENCH_MAIN();
