// I/O accounting: the ground-truth metric of this reproduction.
//
// Every bound in the paper is stated in number of disk-block transfers
// ("IO's"). The simulated BlockDevice increments these counters on each
// page transfer; the Pager additionally tracks buffer-pool hits/misses.
// Benchmarks report device reads+writes with a cold cache, which is exactly
// the quantity the theorems bound.
//
// IoStats itself is a plain value snapshot. The live counters behind it
// (BlockDevice internals, per-shard Pager counters) are updated without
// cross-thread contention and *merged* into one IoStats when read
// (DESIGN.md §7), so concurrent query serving never serializes on stats.

#ifndef CCIDX_IO_IO_STATS_H_
#define CCIDX_IO_IO_STATS_H_

#include <cstdint>

namespace ccidx {

/// Counters for page transfers between "secondary storage" and memory.
struct IoStats {
  uint64_t device_reads = 0;   ///< pages read from the device
  uint64_t device_writes = 0;  ///< pages written to the device
  uint64_t read_batches = 0;   ///< ReadBatch calls (>= 1 approved request)
  /// Device read round trips: one per single-page read, one per batch —
  /// each is charged the injected read latency once.
  uint64_t read_rounds = 0;
  uint64_t cache_hits = 0;     ///< pager requests served from the pool
  uint64_t cache_misses = 0;   ///< pager requests that went to the device
  uint64_t pin_requests = 0;   ///< Pin/PinMut/PinNew calls (logical accesses)
  uint64_t pages_allocated = 0;
  uint64_t pages_freed = 0;

  /// Total device transfers — the paper's "number of IO's".
  uint64_t TotalIos() const { return device_reads + device_writes; }

  /// Lvalue-qualified so `dev.stats().Reset()` fails to compile now that
  /// stats() returns a snapshot by value — resetting the temporary would
  /// silently do nothing. Use BlockDevice::ResetStats() / Pager::ResetStats()
  /// to clear the live counters.
  void Reset() & { *this = IoStats{}; }
};

/// Snapshot/diff helper: `after - before` yields the per-operation cost.
/// Tests and benches snapshot the counters, run the operation, and
/// subtract, instead of hand-computing one delta per field.
inline IoStats operator-(const IoStats& a, const IoStats& b) {
  IoStats d;
  d.device_reads = a.device_reads - b.device_reads;
  d.device_writes = a.device_writes - b.device_writes;
  d.read_batches = a.read_batches - b.read_batches;
  d.read_rounds = a.read_rounds - b.read_rounds;
  d.cache_hits = a.cache_hits - b.cache_hits;
  d.cache_misses = a.cache_misses - b.cache_misses;
  d.pin_requests = a.pin_requests - b.pin_requests;
  d.pages_allocated = a.pages_allocated - b.pages_allocated;
  d.pages_freed = a.pages_freed - b.pages_freed;
  return d;
}

/// Merge helper for per-shard / per-thread counter aggregation.
inline IoStats operator+(const IoStats& a, const IoStats& b) {
  IoStats s;
  s.device_reads = a.device_reads + b.device_reads;
  s.device_writes = a.device_writes + b.device_writes;
  s.read_batches = a.read_batches + b.read_batches;
  s.read_rounds = a.read_rounds + b.read_rounds;
  s.cache_hits = a.cache_hits + b.cache_hits;
  s.cache_misses = a.cache_misses + b.cache_misses;
  s.pin_requests = a.pin_requests + b.pin_requests;
  s.pages_allocated = a.pages_allocated + b.pages_allocated;
  s.pages_freed = a.pages_freed + b.pages_freed;
  return s;
}

}  // namespace ccidx

#endif  // CCIDX_IO_IO_STATS_H_
