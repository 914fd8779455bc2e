// BlockDevice: a disk of fixed-size pages over a pluggable StorageBackend.
//
// Substitution note (see DESIGN.md §2, §10): the paper measures algorithms
// by page transfers to/from secondary storage. This device reproduces that
// cost model exactly and deterministically — each Read/Write of a page
// increments IoStats, and every cost-model concern (transfer counters,
// fault injection, the allocation table, latency injection) lives in this
// front end, so IoStats are bit-identical no matter which backend moves
// the bytes:
//
//   * mem  (default)             — the historical in-memory simulator
//   * file (CCIDX_DEVICE=file)   — a real unlinked temp file, pread/pwrite
//                                  (+ O_DIRECT where available)
//
// CCIDX_DEVICE_LATENCY_US=N injects a deterministic N-microsecond delay
// per device read — and *one* delay per ReadBatch, which models a real
// device accepting a queue of concurrent requests. That is what makes
// I/O overlap benchmarkable in CI without real hardware: a serial descent
// pays one delay per level while a batched fan-out pays one per batch.
// Writes are not delayed (builds stay fast; every overlap optimization in
// this codebase targets the read path).
//
// Thread safety (DESIGN.md §7): concurrent Read/Write of *distinct* pages
// is safe (page transfers take a shared lock on the allocation table; the
// I/O counters are relaxed atomics, so readers never serialize on stats).
// Allocate/Free mutate the table under the exclusive lock and are safe
// against concurrent transfers. Concurrent Write (or Write + Read) of the
// *same* page is the caller's race, exactly as on real hardware — the
// Pager's pin protocol prevents it for all library structures.

#ifndef CCIDX_IO_BLOCK_DEVICE_H_
#define CCIDX_IO_BLOCK_DEVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <span>
#include <string>
#include <vector>

#include "ccidx/common/status.h"
#include "ccidx/io/io_stats.h"
#include "ccidx/io/storage_backend.h"

namespace ccidx {

/// Backend selection + latency injection for a BlockDevice. The default-
/// constructed device resolves these from the environment (see
/// DeviceOptionsFromEnv); tests and benches pass them explicitly.
struct BlockDeviceOptions {
  std::string backend = "mem";   ///< "mem" or "file"
  std::string dir;               ///< file backend directory ("" = $TMPDIR)
  uint32_t read_latency_us = 0;  ///< injected delay per read / per batch
};

/// Reads CCIDX_DEVICE ("mem" | "file"), CCIDX_DEVICE_DIR and
/// CCIDX_DEVICE_LATENCY_US. This is how CI replays the entire unmodified
/// test suite against the file backend or the latency simulator.
BlockDeviceOptions DeviceOptionsFromEnv();

/// A disk: an append-allocated array of `page_size()`-byte pages with a
/// free list, delegating byte storage to a StorageBackend.
class BlockDevice {
 public:
  /// Creates a device whose pages hold `page_size` bytes, with the backend
  /// chosen by the environment (mem unless CCIDX_DEVICE says otherwise).
  /// The paper's B is expressed by each data structure as "records per
  /// page"; page_size bounds that via the record width.
  explicit BlockDevice(uint32_t page_size);

  /// Creates a device with an explicit backend/latency configuration.
  /// A misconfigured file backend (unwritable dir) is a checked error.
  BlockDevice(uint32_t page_size, const BlockDeviceOptions& options);

  uint32_t page_size() const { return page_size_; }

  /// Short label of the storage backend ("mem", "file").
  const char* backend_name() const { return backend_->name(); }

  /// True when transfers leave the process (file backend) — overlap pays
  /// even without injected latency.
  bool real_io() const { return backend_->real_io(); }

  /// The injected per-read delay (0 = cost-model mode).
  uint32_t read_latency_us() const { return latency_us_; }

  /// Allocates a zeroed page and returns its id (reuses freed pages).
  PageId Allocate();

  /// Returns a page to the free list. Double-free is a checked error.
  Status Free(PageId id);

  /// Copies the page contents into `out` (out.size() == page_size()).
  /// Counts one device read.
  Status Read(PageId id, std::span<uint8_t> out);

  /// Reads a batch of pages as one device round (the backend moves the
  /// pages in turn; a real device would take them as one queue). Counting
  /// semantics are serial-equivalent: each request is validated and
  /// consumes fault-injection budget in array order, the approved prefix
  /// is issued (and counted) as a batch, and the first failure's Status is
  /// returned — exactly the reads a serial loop stopping at that failure
  /// would have performed. Latency injection sleeps once for the whole
  /// batch: concurrent requests on a real device overlap.
  Status ReadBatch(std::span<const PageReadRequest> reqs);

  /// Overwrites the page from `in` (in.size() == page_size()).
  /// Counts one device write.
  Status Write(PageId id, std::span<const uint8_t> in);

  /// Number of live (allocated, not freed) pages — the structure's footprint
  /// in disk blocks, compared against the paper's space bounds.
  uint64_t live_pages() const;

  /// Total pages ever allocated (high-water mark of the address space).
  uint64_t total_pages() const;

  /// Snapshot of the transfer counters (relaxed-atomic internally, so
  /// concurrent readers never contend). Returned by value: diff snapshots
  /// with `operator-`; clear the live counters with ResetStats().
  IoStats stats() const;

  /// Zeroes the live transfer counters.
  void ResetStats();

  /// Fault injection for tests: after `ops` further successful transfers,
  /// every Read/Write fails with IoError until cleared (ops < 0 clears).
  /// Lets tests verify that every structure surfaces device failures as
  /// Status instead of crashing or corrupting in-memory state.
  void SetFailAfter(int64_t ops) {
    fail_after_.store(ops, std::memory_order_relaxed);
  }

  // --- durability / crash-recovery surface (DESIGN.md §13) ---------------

  /// Durability barrier over previously written pages (fdatasync on the
  /// file backend, no-op on mem). The WAL commit protocol calls this after
  /// forcing a transaction's data pages and before its commit record.
  Status SyncData();

  /// Simulated power loss: while crashed, every Read/ReadBatch/Write fails
  /// with IoError ("the machine is off"). Allocation bookkeeping remains
  /// available so in-flight scopes can unwind. Wal::SetCrashAfterRecords
  /// flips this on; Wal::Recover clears it.
  void SetCrashed(bool crashed) {
    crashed_.store(crashed, std::memory_order_relaxed);
  }
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  /// Torn-write injection: after `writes` further successful page writes,
  /// the next Write transfers only the first half of the buffer (the old
  /// second half survives) and fails with IoError — the classic torn page
  /// a before-image WAL must repair. One-shot; writes < 0 disarms.
  void SetTornWriteAfter(int64_t writes) {
    torn_write_after_.store(writes, std::memory_order_relaxed);
  }

  /// Point-in-time copy of the allocation table, embedded in WAL
  /// checkpoint records and rebuilt by recovery.
  struct AllocationSnapshot {
    uint64_t total_pages = 0;
    std::vector<bool> freed;  // indexed by id, true = on the free list
  };
  AllocationSnapshot SnapshotAllocation() const;

  /// Restores the allocation table (free list + high-water mark) to
  /// `snap`. Recovery-only: the pager's cache must have been discarded.
  /// Backing bytes of re-grown or re-freed pages are NOT touched — freed
  /// pages are zeroed on reallocation, and recovery overwrites live pages
  /// from before-images as needed.
  void RestoreAllocation(const AllocationSnapshot& snap);

  /// True when `id` is allocated and not freed. Recovery uses this to skip
  /// before-image restores of pages that are dead in the restored state.
  bool is_live(PageId id) const;

 private:
  // Returns true if this transfer should fail (and consumes budget).
  bool ShouldFail();

  // Requires mu_ (shared or exclusive).
  bool IsLive(PageId id) const;

  // Latency injection: called after a successful read outside mu_.
  void InjectReadLatency() const;

  uint32_t page_size_;
  uint32_t latency_us_ = 0;
  std::unique_ptr<StorageBackend> backend_;
  // Guards the allocation-table *structure* (freed_/free_list_) and the
  // backend's capacity. Transfers take it shared — backends give stable
  // per-page storage, so concurrent transfers of distinct pages proceed in
  // parallel; Allocate/Free take it exclusive.
  mutable std::shared_mutex mu_;
  std::vector<PageId> free_list_;
  std::vector<bool> freed_;  // indexed by id: true if on free list
  // Backend pages ever made addressable (the backend never shrinks, even
  // when RestoreAllocation shrinks freed_). A fresh high-water-mark
  // allocation below this re-covers stale bytes and must be zeroed;
  // at or above it the backend guarantees zeros. Guarded by mu_.
  uint64_t backend_hwm_ = 0;
  // Contention-free counters: relaxed atomics, merged into an IoStats
  // snapshot by stats().
  std::atomic<uint64_t> device_reads_{0};
  std::atomic<uint64_t> device_writes_{0};
  std::atomic<uint64_t> read_batches_{0};
  std::atomic<uint64_t> read_rounds_{0};
  std::atomic<uint64_t> pages_allocated_{0};
  std::atomic<uint64_t> pages_freed_{0};
  std::atomic<int64_t> fail_after_{-1};  // < 0: fault injection disabled
  std::mutex fail_mu_;  // serializes budget consumption (test-only path)
  std::atomic<bool> crashed_{false};         // simulated power loss
  std::atomic<int64_t> torn_write_after_{-1};  // < 0: disarmed
};

}  // namespace ccidx

#endif  // CCIDX_IO_BLOCK_DEVICE_H_
