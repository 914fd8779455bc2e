// The serving catalog, the server's tuning options and the fixed serving
// constants shared by the server and the dispatcher (DESIGN.md §12).

#ifndef CCIDX_SERVE_CATALOG_H_
#define CCIDX_SERVE_CATALOG_H_

#include <chrono>
#include <cstddef>
#include <cstdint>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/pager.h"

namespace ccidx {
namespace serve {

/// The structures a server instance serves. Any pointer may be null —
/// requests against an absent family answer kBadRequest. Queries run
/// through the families' const, reads-concurrent paths; updates target
/// the B+-tree's in-epoch N-writer Insert/Delete (§11). The caller keeps
/// the structures and pager alive for the server's lifetime, and must
/// not mutate them outside the server's epoch gate while it is running.
struct ServeTables {
  Pager* pager = nullptr;
  const MetablockTree* metablock = nullptr;
  BPlusTree* btree = nullptr;
  const IntervalIndex* interval = nullptr;
  const ThreeSidedTree* three_sided = nullptr;
};

/// Server tuning: the knobs a deployment sets.
struct ServerOptions {
  /// Bound on queued submissions (caps the high watermark). Reserves no
  /// memory: the queue's ring grows with the backlog.
  size_t queue_capacity = 1024;
  /// Shed threshold: at/above this depth new requests answer kOverloaded.
  size_t high_watermark = 512;
  /// Reader workers in the QueryExecutor (0 = hardware concurrency).
  unsigned query_threads = 4;
  /// Writer workers in the UpdateExecutor.
  unsigned update_threads = 2;
  /// Nonzero pins batch formation to exactly this size (no adaptation) —
  /// the load driver's batch-size-1 comparison leg.
  size_t fixed_batch = 0;
};

/// Adaptive batch-formation cap: the dispatcher never forms a larger
/// batch than this, whatever the backlog.
inline constexpr size_t kMaxBatch = 256;

/// How long PopBatch blocks for the *first* submission. Batch growth past
/// the first never waits: at low load a request dispatches alone
/// immediately (latency), at high load the backlog fills the batch
/// (throughput) — waiting is the one thing adaptive formation must never
/// add at low load.
inline constexpr std::chrono::nanoseconds kBatchWait{2'000'000};  // 2 ms

/// Flow-control window per session (concurrent requests).
inline constexpr uint32_t kSessionCredits = 1u << 16;

}  // namespace serve
}  // namespace ccidx

#endif  // CCIDX_SERVE_CATALOG_H_
