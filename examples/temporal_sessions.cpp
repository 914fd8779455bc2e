// Temporal / spatial workload the paper's introduction motivates: indexing
// one attribute of a constraint database. Here: user sessions as time
// intervals — "who was online at instant T?" (stabbing) and "who overlapped
// the incident window?" (intersection) — with the semi-dynamic metablock
// tree absorbing a live insert stream.
//
// Build & run:   ./build/examples/temporal_sessions

#include <cstdio>
#include <random>

#include "ccidx/core/metablock_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/query/sink.h"

using namespace ccidx;

int main() {
  const uint32_t kB = 64;
  BlockDevice device(PageSizeForBranching(kB));
  Pager pager(&device, 0);
  IntervalIndex sessions(&pager);

  // Simulated day: sessions start throughout [0, 86400) seconds and last
  // from seconds to hours, arriving in start order (a realistic insert
  // pattern for a log-structured feed).
  std::mt19937 rng(99);
  const size_t kSessions = 50000;
  std::printf("ingesting %zu sessions...\n", kSessions);
  device.ResetStats();
  for (uint64_t i = 0; i < kSessions; ++i) {
    Coord start = static_cast<Coord>((86400.0 * i) / kSessions);
    Coord len = 30 + static_cast<Coord>(rng() % 7200);
    if (!sessions.Insert({start, start + len, i}).ok()) return 1;
  }
  double per_insert =
      static_cast<double>(device.stats().TotalIos()) / kSessions;
  std::printf("ingest cost: %.2f I/Os per session (amortized, Thm. 3.7)\n",
              per_insert);

  // Point-in-time audit: who was online at 12:00:00?
  device.ResetStats();
  std::vector<Interval> online;
  VectorSink<Interval> online_sink(&online);
  if (!sessions.Stab(43200, &online_sink).ok()) return 1;
  std::printf("online at 12:00: %zu sessions, %llu I/Os (%.1f sessions/IO)\n",
              online.size(),
              static_cast<unsigned long long>(device.stats().TotalIos()),
              online.size() /
                  std::max(1.0, static_cast<double>(
                                    device.stats().TotalIos())));

  // Incident window: sessions overlapping 13:00-13:05.
  device.ResetStats();
  std::vector<Interval> affected;
  VectorSink<Interval> affected_sink(&affected);
  if (!sessions.Intersect(46800, 47100, &affected_sink).ok()) return 1;
  std::printf("overlapping incident window: %zu sessions, %llu I/Os\n",
              affected.size(),
              static_cast<unsigned long long>(device.stats().TotalIos()));

  // Compare with the naive plan: scan all n/B pages.
  uint64_t scan_pages = device.live_pages();
  std::printf("naive scan would read ~%llu pages; the index read %llu\n",
              static_cast<unsigned long long>(scan_pages),
              static_cast<unsigned long long>(device.stats().TotalIos()));

  // Dashboards rarely need the sessions themselves. A concurrency gauge
  // counts without materializing; an alert check stops at the first hit
  // (DESIGN.md §5) — watch the I/O column.
  device.ResetStats();
  CountSink<Interval> concurrency;
  if (!sessions.Stab(64800, &concurrency).ok()) return 1;
  std::printf("concurrency gauge at 18:00: %llu sessions, %llu I/Os\n",
              static_cast<unsigned long long>(concurrency.count()),
              static_cast<unsigned long long>(device.stats().TotalIos()));

  device.ResetStats();
  ExistsSink<Interval> any_overnight;
  if (!sessions.Stab(86399, &any_overnight).ok()) return 1;
  std::printf("anyone online at 23:59:59? %s — %llu I/Os (early stop)\n",
              any_overnight.exists() ? "yes" : "no",
              static_cast<unsigned long long>(device.stats().TotalIos()));
  return 0;
}
