// Fully dynamic workload (§5 conclusions): a reservation calendar where
// bookings are both created AND cancelled. The optimal metablock-tree
// interval index deletes only weakly (tombstones and purge rebuilds;
// deletion is the paper's open problem); the §5 dynamization —
// DynamicIntervalIndex over the external priority search tree, updated
// in place — handles the full churn at O(log2 n + t/B) per query and
// amortized O(log_B n + log2 n) per update.
//
// Build & run:   ./build/examples/dynamic_reservations

#include <cstdio>
#include <random>
#include <vector>

#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/interval/dynamic_interval_index.h"

using namespace ccidx;

int main() {
  const uint32_t kB = 32;
  BlockDevice device(PageSizeForBranching(kB));
  Pager pager(&device, 0);
  DynamicIntervalIndex calendar(&pager);

  std::mt19937 rng(7);
  std::vector<Interval> active;
  uint64_t next_id = 0;
  uint64_t created = 0, cancelled = 0;

  device.ResetStats();
  const int kOps = 60000;
  for (int op = 0; op < kOps; ++op) {
    if (rng() % 3 != 0 || active.empty()) {
      // New booking: start in a 30-day horizon (minutes), 30min..8h long.
      Coord start = static_cast<Coord>(rng() % (30 * 24 * 60));
      Coord len = 30 + static_cast<Coord>(rng() % 450);
      Interval b{start, start + len, next_id++};
      if (!calendar.Insert(b).ok()) return 1;
      active.push_back(b);
      created++;
    } else {
      // Cancellation of a random active booking.
      size_t idx = rng() % active.size();
      bool found = false;
      if (!calendar.Delete(active[idx], &found).ok() || !found) return 1;
      active[idx] = active.back();
      active.pop_back();
      cancelled++;
    }
  }
  double per_update =
      static_cast<double>(device.stats().TotalIos()) / kOps;
  std::printf("%llu bookings created, %llu cancelled, %zu active\n",
              static_cast<unsigned long long>(created),
              static_cast<unsigned long long>(cancelled), active.size());
  std::printf("update cost: %.2f I/Os amortized (incl. rebuilds)\n",
              per_update);

  // "What overlaps the maintenance window on day 12, 09:00-11:00?"
  Coord w_lo = (12 * 24 + 9) * 60, w_hi = (12 * 24 + 11) * 60;
  device.ResetStats();
  std::vector<Interval> clashes;
  VectorSink<Interval> sink(&clashes);
  if (!calendar.Intersect(w_lo, w_hi, &sink).ok()) return 1;
  std::printf("maintenance window clashes: %zu bookings, %llu I/Os\n",
              clashes.size(),
              static_cast<unsigned long long>(device.stats().TotalIos()));

  // Verify against a scan.
  size_t expect = 0;
  for (const Interval& b : active) {
    if (b.Intersects(w_lo, w_hi)) expect++;
  }
  std::printf("linear scan agrees: %zu (over %llu pages it would read)\n",
              expect,
              static_cast<unsigned long long>(device.live_pages()));
  return clashes.size() == expect ? 0 : 1;
}
