// Quickstart: index a set of intervals and run stabbing / intersection
// queries — the paper's core application (constraint indexing reduces to
// external dynamic interval management, §2.1).
//
// Build & run:   ./build/examples/quickstart

#include <cstdio>

#include "ccidx/core/metablock_tree.h"   // PageSizeForBranching
#include "ccidx/interval/interval_index.h"
#include "ccidx/query/sink.h"

using namespace ccidx;

int main() {
  // 1. Create a simulated disk. B (points per page) is derived from the
  //    page size; B = 32 here.
  const uint32_t kB = 32;
  BlockDevice device(PageSizeForBranching(kB));
  Pager pager(&device, /*capacity_pages=*/0);  // 0 = count every I/O

  // 2. Build an interval index. Intervals are (lo, hi, id).
  IntervalIndex index(&pager);
  std::printf("inserting 10000 intervals...\n");
  for (uint64_t i = 0; i < 10000; ++i) {
    Coord lo = static_cast<Coord>((i * 37) % 100000);
    Coord hi = lo + static_cast<Coord>((i * 13) % 500);
    if (!index.Insert({lo, hi, i}).ok()) {
      std::fprintf(stderr, "insert failed\n");
      return 1;
    }
  }

  // 3. Stabbing query: which intervals contain the point 50000?
  device.ResetStats();
  std::vector<Interval> hits;
  VectorSink<Interval> sink(&hits);
  if (!index.Stab(50000, &sink).ok()) return 1;
  std::printf("stab(50000): %zu intervals, %llu I/Os\n", hits.size(),
              static_cast<unsigned long long>(device.stats().TotalIos()));

  // 4. Intersection query: which intervals overlap [42000, 42420]?
  device.ResetStats();
  hits.clear();
  if (!index.Intersect(42000, 42420, &sink).ok()) return 1;
  std::printf("intersect([42000,42420]): %zu intervals, %llu I/Os\n",
              hits.size(),
              static_cast<unsigned long long>(device.stats().TotalIos()));
  for (size_t i = 0; i < hits.size() && i < 3; ++i) {
    std::printf("  e.g. interval %llu = [%lld, %lld]\n",
                static_cast<unsigned long long>(hits[i].id),
                static_cast<long long>(hits[i].lo),
                static_cast<long long>(hits[i].hi));
  }

  // 5. Count and exists queries: sinks consume results without
  //    materializing them (DESIGN.md §5). CountSink skips the per-record
  //    copies; ExistsSink stops at the first hit, so the t/B term of the
  //    query bound vanishes — compare the I/O counts.
  device.ResetStats();
  CountSink<Interval> count;
  if (!index.Stab(50000, &count).ok()) return 1;
  std::printf("count stab(50000): %llu intervals, %llu I/Os\n",
              static_cast<unsigned long long>(count.count()),
              static_cast<unsigned long long>(device.stats().TotalIos()));

  device.ResetStats();
  ExistsSink<Interval> exists;
  if (!index.Stab(50000, &exists).ok()) return 1;
  std::printf("exists stab(50000): %s, %llu I/Os (early termination)\n",
              exists.exists() ? "yes" : "no",
              static_cast<unsigned long long>(device.stats().TotalIos()));

  // 6. Space: O(n/B) pages.
  std::printf("footprint: %llu pages of %u bytes for %llu intervals\n",
              static_cast<unsigned long long>(device.live_pages()),
              device.page_size(),
              static_cast<unsigned long long>(index.size()));
  return 0;
}
