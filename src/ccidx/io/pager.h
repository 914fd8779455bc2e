// Pager: sharded write-back buffer pool over a BlockDevice, with zero-copy
// pinned-page access (DESIGN.md §3) and thread-safe read serving
// (DESIGN.md §7).
//
// The paper assumes at least O(B^2) units of main memory (§1.1); with pages
// of B units that is on the order of B resident pages. The pool capacity is
// configurable; benchmarks call DropCache() before each measured operation
// so device I/O counts reflect the worst case the theorems bound.
//
// Access model: callers pin pages and operate on spans into the buffer-pool
// frame itself (PostgreSQL-style page accessors), never on private copies.
//   * Pin(id)        -> PageRef     shared, read-only view
//   * PinMut(id)     -> MutPageRef  exclusive-intent, dirties the frame
//   * PinNew()       -> MutPageRef  allocate + pin a zeroed page
// A pinned frame is ineligible for eviction. When the whole pool is
// pinned, pinning anything else is ResourceExhausted (the historical
// contract); when only the page's home shard is pin-saturated, a read
// pin degrades to a private transient copy (one device read) instead of
// failing, so a pin set smaller than the pool can never be starved by
// hash skew. Write pins report ResourceExhausted per shard.
//
// Concurrency (DESIGN.md §7): the pool is partitioned into S shards by a
// hash of the page id, S = the smallest power of two >= 4x hardware
// threads (capped so every shard keeps a useful number of frames; tiny
// pools collapse to one shard and behave exactly like the historical
// single pool). Each shard owns its own mutex, page table, clock hand,
// and stats counters, so read pins on pages of distinct shards never
// serialize. Pin counts are atomics: releasing a pin takes no lock at
// all. Replacement is clock / second-chance: a warm hit sets one flag —
// no list splice, no allocation — and the sweep resumes from the hand
// position left by the previous eviction. Frame storage is one
// contiguous page-aligned arena sized at construction; frames never
// allocate per page.
//
//   Thread-safe against each other: Pin, PageRef::Release, and the
//     evictions / device reads they trigger — the read-serving hot path.
//   Thread-safe for DISTINCT pages (DESIGN.md §11): PinMut, PinNew,
//     Allocate, Free, Write, and TxnScope (scope stacks are per
//     thread). N writer threads may build and mutate concurrently as
//     long as no two touch the same page at the same time — which is
//     what the families' internal write latches guarantee, and why
//     updates parallelize inside one exclusive epoch.
//   Externally synchronized (no concurrent pager calls at all): Flush,
//     DropCache — whole-pool maintenance entry points.
//
// When capacity_pages == 0 the pool is disabled and every pin is a private
// transient copy: Pin costs one device read, MutPageRef::Release() costs
// one device write. That reproduces the historical uncached Read/Write
// cost model exactly, which the fault-injection and I/O-count tests rely
// on. Transient copies are carved from a small recycled arena (heap
// fallback when it runs dry), so steady-state uncached pins do not
// allocate either. The copy-based Read/Write survive as thin wrappers
// over pins.
//
// Readahead (DESIGN.md §10) is synchronous and batched, with no
// background threads: PinMany pins a batch and WarmMany loads one
// resident-unpinned, each issuing its pool misses as one concurrent
// device round. Callers gate both on speculation_budget(), which is zero
// on cost-model devices, so counted I/Os never change there.

#ifndef CCIDX_IO_PAGER_H_
#define CCIDX_IO_PAGER_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <thread>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "ccidx/common/status.h"
#include "ccidx/io/block_device.h"

namespace ccidx {

class Pager;
class Wal;

namespace internal {

/// One resident page of the buffer pool. `data` points at this frame's
/// fixed slot in the pager's arena. Frames with pins > 0 are
/// eviction-ineligible; mut_pins tracks the subset of pins that may write
/// (Flush must not clear the dirty bit under an active writer).
///
/// Locking: id / dirty / referenced are guarded by the owning shard's
/// lock. Pin counts are atomic — increments happen under the shard lock
/// (so the eviction sweep, which also holds it, can never race a new pin),
/// but decrements are lock-free releases.
struct PageFrame {
  PageId id = kInvalidPageId;  // kInvalidPageId => slot unoccupied
  bool dirty = false;
  bool referenced = false;  // clock second-chance bit
  std::atomic<uint32_t> pins{0};
  std::atomic<uint32_t> mut_pins{0};
  uint8_t* data = nullptr;
};

/// One buffer-pool shard: its own lock, page table, frames, clock hand,
/// and stats. The page table is open-addressed linear probing over frame
/// slots (table[i] is a frame index or -1), sized >= 2x capacity: a warm
/// hit costs one mixed-hash probe into a contiguous int32 array instead
/// of an unordered_map bucket chase. alignas keeps shards on distinct
/// cache lines so per-shard state never false-shares.
struct alignas(64) PagerShard {
  // Guards everything below. Shard critical sections are tens of ns (an
  // open-addressed probe plus flag writes; at worst one device transfer
  // on a miss), and shards outnumber hardware threads 4x, so this is
  // uncontended in the common case — and a futex mutex sleeps instead of
  // burning cores when it is not.
  std::mutex mu;
  std::unique_ptr<PageFrame[]> frames;
  std::vector<int32_t> table;  // open addressing; -1 = empty
  uint32_t table_mask = 0;
  std::vector<uint32_t> free_slots;
  uint32_t capacity = 0;
  uint32_t hand = 0;  // clock sweep position; persists across evictions
  // Per-shard stats, merged by Pager::CombinedStats() (guarded by mu).
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t pin_requests = 0;
};

/// One thread's open transaction: its TxnScopes' allocations plus its WAL
/// state. `levels` holds the pages allocated at each nesting depth
/// (innermost last; depths past its end allocated nothing). The sets are
/// guarded by Pager::txns_mu_ — a Free on another thread may erase from
/// them; only the owning thread resizes `levels` or touches the rest. The
/// entry is made by the first allocation (at once under a Wal) and erased
/// by the outermost scope; map nodes are address-stable, so the owner
/// keeps a pointer.
struct TxnState {
  std::vector<std::unordered_set<PageId>> levels;
  Wal* wal = nullptr;  // wal at outermost entry; nullptr = nothing logged
  uint64_t id = 0;     // WAL txn id
  std::unordered_set<PageId> captured;  // before-image logged
  std::vector<PageId> touched;          // to force at commit, in order
  std::vector<PageId> deferred_frees;   // device frees applied at exit

  /// Allocated by this transaction at any depth and still live — such a
  /// page needs no before-image. Requires Pager::txns_mu_.
  bool Allocated(PageId page) const {
    for (const auto& level : levels) {
      if (level.contains(page)) return true;
    }
    return false;
  }
};

}  // namespace internal

/// RAII shared read pin. While alive, the page's frame stays resident and
/// `data()` is a stable view into the buffer pool (no copy). Releasing a
/// read pin never performs I/O and never takes a lock.
class PageRef {
 public:
  PageRef() = default;
  PageRef(PageRef&& o) noexcept { MoveFrom(o); }
  PageRef& operator=(PageRef&& o) noexcept {
    if (this != &o) {
      Release();
      MoveFrom(o);
    }
    return *this;
  }
  PageRef(const PageRef&) = delete;
  PageRef& operator=(const PageRef&) = delete;
  ~PageRef() { Release(); }

  bool valid() const { return pager_ != nullptr; }
  PageId id() const { return id_; }

  /// Read-only view of the whole page. Valid until Release()/destruction.
  std::span<const uint8_t> data() const {
    CCIDX_CHECK(valid());
    return {data_, size_};
  }

  /// Unpins early (idempotent). Never performs I/O.
  void Release();

 private:
  friend class Pager;

  void MoveFrom(PageRef& o) {
    pager_ = o.pager_;
    frame_ = o.frame_;
    transient_heap_ = std::move(o.transient_heap_);
    transient_slot_ = o.transient_slot_;
    id_ = o.id_;
    data_ = o.data_;
    size_ = o.size_;
    o.pager_ = nullptr;
    o.frame_ = nullptr;
    o.transient_slot_ = -1;
    o.data_ = nullptr;
  }

  Pager* pager_ = nullptr;
  internal::PageFrame* frame_ = nullptr;  // null => transient (uncached)
  std::unique_ptr<uint8_t[]> transient_heap_;  // arena-overflow fallback
  int32_t transient_slot_ = -1;  // >= 0: slot in the transient arena
  PageId id_ = kInvalidPageId;
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// RAII mutable pin. Obtaining one marks the frame dirty; the write-back
/// happens on eviction or Flush (cached) or at Release() (uncached), always
/// on a Status-returning path. Prefer `return ref.Release();` over relying
/// on the destructor: a destructor write-back failure cannot be returned
/// and is parked as the pager's deferred error instead.
class MutPageRef {
 public:
  MutPageRef() = default;
  MutPageRef(MutPageRef&& o) noexcept { MoveFrom(o); }
  MutPageRef& operator=(MutPageRef&& o) noexcept;
  MutPageRef(const MutPageRef&) = delete;
  MutPageRef& operator=(const MutPageRef&) = delete;
  ~MutPageRef();

  bool valid() const { return pager_ != nullptr; }
  PageId id() const { return id_; }

  /// Writable view of the whole page. Valid until Release()/destruction.
  std::span<uint8_t> data() {
    CCIDX_CHECK(valid());
    return {data_, size_};
  }

  /// Unpins (idempotent). Uncached pins write the page back to the device
  /// here and surface the device Status; cached pins return OK (the dirty
  /// frame is flushed later by eviction or Flush).
  Status Release();

 private:
  friend class Pager;

  // Destructor/assignment path: releases, parking any write-back failure
  // as the pager's deferred error (a destructor cannot return Status).
  void ReleaseToDeferred();

  void MoveFrom(MutPageRef& o) {
    pager_ = o.pager_;
    frame_ = o.frame_;
    transient_heap_ = std::move(o.transient_heap_);
    transient_slot_ = o.transient_slot_;
    id_ = o.id_;
    data_ = o.data_;
    size_ = o.size_;
    o.pager_ = nullptr;
    o.frame_ = nullptr;
    o.transient_slot_ = -1;
    o.data_ = nullptr;
  }

  Pager* pager_ = nullptr;
  internal::PageFrame* frame_ = nullptr;  // null => transient (uncached)
  std::unique_ptr<uint8_t[]> transient_heap_;
  int32_t transient_slot_ = -1;
  PageId id_ = kInvalidPageId;
  uint8_t* data_ = nullptr;
  size_t size_ = 0;
};

/// RAII transaction scope for every multi-page change (DESIGN.md §6, §13):
/// a build, a split, a merge, a rebuild. One scope gives both guarantees.
///
/// In-process rollback: while a scope is active on the current thread,
/// every page allocated through the pager is recorded at the scope's
/// nesting depth. Unless Commit() is called, the destructor frees
/// whichever recorded pages are still live. Rollback never reads the
/// device (the ids are known), so it reclaims everything even while fault
/// injection is rejecting transfers — chain-walking cleanup cannot.
///
/// Crash durability, when a Wal is attached: the outermost scope is one
/// WAL transaction. The first mutable touch of a pre-existing page logs
/// its before-image, and every Allocate/Free logs an allocation record.
/// The outermost Commit() keeps the allocations, then forces the touched
/// pages to the device, data-syncs it, and appends + group-syncs a commit
/// record — after which the transaction is crash-durable. A failed WAL
/// commit still keeps the allocations. An uncommitted outermost scope
/// frees its recorded pages, then runs the abort protocol (~TxnScope in
/// pager.cc); crash recovery undoes whatever was left unresolved.
///
/// Scopes nest per thread: an inner Commit() folds the inner pages into
/// the enclosing level, so a sub-build participates in its caller's
/// atomicity, and writes nothing to the log. Scope stacks are per thread
/// (DESIGN.md §11): N writer threads each run their own transactions
/// concurrently without interleaving their recorded allocations; scopes
/// are destroyed on the creating thread in reverse order of creation. A
/// scope that allocates nothing, with no Wal attached, takes no lock.
///
/// Frees of pre-existing pages under a WAL are logged with a before-image
/// and the device-level free is DEFERRED to the end of the outermost
/// scope: an uncommitted transaction's freed page must not be reallocated
/// (and overwritten) by a transaction that commits before it, or recovery
/// could not restore it. Deferred frees are applied on scope exit whether
/// or not the commit succeeded — families free pre-existing pages only
/// past their point of no return (the fault-atomicity contract the fault
/// sweeps enforce), so an aborted scope has no deferred frees to misapply.
class TxnScope {
 public:
  explicit TxnScope(Pager* pager);
  ~TxnScope();
  TxnScope(const TxnScope&) = delete;
  TxnScope& operator=(const TxnScope&) = delete;

  /// Keeps the recorded pages. Outermost scope with a Wal attached: then
  /// runs the force + commit-record protocol and returns its Status.
  /// Inner scope, or no Wal: OK.
  Status Commit();

  /// Snapshot of the pages recorded at this scope's depth so far
  /// (allocated under it and still live). The dynamization layer retains
  /// this as the page set of a structure built inside the scope, so the
  /// structure can later be freed without any device reads — the same
  /// property rollback relies on.
  std::vector<PageId> pages() const;

 private:
  friend class Pager;

  // This thread's registry entry, or nullptr while nothing is recorded.
  internal::TxnState* txn() const { return outermost_->txn_; }

  Pager* pager_;
  TxnScope* prev_;              // thread's previous innermost scope, any pager
  TxnScope* outermost_ = this;  // depth-0 scope of this pager on this thread
  internal::TxnState* txn_ = nullptr;  // outermost only; see txn()
  size_t depth_ = 0;                   // 0 = outermost
  bool committed_ = false;             // allocations kept
  bool wal_committed_ = false;  // commit record written (outermost only)
};

/// Buffer-pool front end for a BlockDevice. Pin-based access is the primary
/// interface; dirty pages are written back on eviction or Flush. See the
/// file comment for the shard layout and the thread-safety contract.
class Pager {
 public:
  /// Contents policy for PinMut on a page that may not be resident.
  enum class MutMode {
    /// Load current page contents (read-modify-write). Costs a device read
    /// on a pool miss / uncached pin.
    kLoad,
    /// Caller rewrites the whole page: the view starts zero-filled and no
    /// device read is ever issued.
    kOverwrite,
  };

  /// `capacity_pages == 0` disables caching (every access hits the device).
  /// The frame arena (capacity_pages pages, page-aligned) is allocated
  /// here, up front — no per-frame allocation ever happens afterwards.
  Pager(BlockDevice* device, uint32_t capacity_pages);

  ~Pager();

  uint32_t page_size() const { return device_->page_size(); }
  BlockDevice* device() { return device_; }

  /// Number of shards the pool is split into (1 for small/uncached pools).
  uint32_t shard_count() const { return num_shards_; }

  /// Allocates a fresh zeroed page (cached as dirty; no device I/O yet when
  /// caching is enabled).
  PageId Allocate();

  /// Frees a page, discarding any cached copy. Freeing a pinned page is a
  /// checked error.
  Status Free(PageId id);

  /// Drops `id` from the open TxnScopes' records, so a rollback leaks it:
  /// for a fresh page a stored page already links to while the change can
  /// still fail, where a free would leave the link dangling (DESIGN §13).
  void KeepAllocation(PageId id) { ForgetAllocation(id); }

  /// Pins a page for reading. Zero-copy on cache hits; one device read on a
  /// miss (or always, when caching is disabled). Safe to call from any
  /// number of threads concurrently.
  Result<PageRef> Pin(PageId id);

  /// Pins a batch of pages for reading, issuing every pool miss as one
  /// concurrent device operation (BlockDevice::ReadBatch) instead of a
  /// serial miss-per-miss walk — under a latency-injecting or file-backed
  /// device the misses overlap and the batch costs one device round-trip.
  /// Counting semantics are serial-equivalent in every mode: the same
  /// hits, misses and device reads a loop of Pin(ids[i]) would produce
  /// (duplicate ids load once and hit thereafter; uncached pools read one
  /// copy per request, as uncached Pin does). Returned refs are in input
  /// order. On error (fault injection, pool exhaustion) nothing is pinned.
  Result<std::vector<PageRef>> PinMany(std::span<const PageId> ids);

  /// Speculative batch warm-up: loads `ids` resident-but-unpinned as one
  /// concurrent device batch, so an imminent Pin hits. Synchronous — when
  /// it returns, the pages are resident (or were dropped because their
  /// shard is pin-saturated; a warm is a hint and never fails). Frames
  /// land with the clock reference bit set and no pin, so a warmed page
  /// never blocks Free/DropCache and an unwanted one is simply evicted.
  /// Strict no-op unless overlap pays (see speculation_budget()), which is
  /// what keeps counted I/Os in cost-model mode bit-identical: a
  /// zero-latency in-memory device never sees a speculative read.
  void WarmMany(std::span<const PageId> ids);

  /// True if `id` is resident; its clock reference bit is then refreshed.
  /// A cheap residency probe for callers deciding whether a warm round is
  /// needed. Best-effort: false when the shard lock is contended (a warm
  /// of a resident page is a hit, never a device read) and always false
  /// on an uncached pager.
  bool TouchIfResident(PageId id);

  /// Pages a dependent descent may speculatively fetch alongside the
  /// routed child when overlap pays; the documented overshoot bound is
  /// <= this many unused pages per descent level.
  static constexpr uint32_t kSpeculationBudget = 4;

  /// The speculation budget, fixed at construction: kSpeculationBudget
  /// when overlap pays (a cached pool over a device with injected latency
  /// or real kernel I/O, and CCIDX_PREFETCH not 0), else zero. Call sites
  /// gate their speculative/batched paths on this being nonzero, so
  /// cost-model I/O counts never change.
  uint32_t speculation_budget() const { return spec_budget_; }

  /// Pages WarmMany has read from the device since construction
  /// (diagnostics).
  uint64_t prefetches_issued() const {
    return prefetches_issued_.load(std::memory_order_relaxed);
  }

  /// Pins a page for writing; the frame is marked dirty immediately.
  /// kOverwrite hands out a zero-filled view with no device read; asking to
  /// overwrite a page that currently has pins is a checked error (the zero
  /// fill would mutate the page under live views).
  Result<MutPageRef> PinMut(PageId id, MutMode mode = MutMode::kLoad);

  /// Allocates a fresh page and pins it for writing (zeroed, dirty).
  Result<MutPageRef> PinNew();

  /// Number of frames with at least one outstanding pin.
  uint64_t pinned_frames() const;

  /// Total outstanding pin handles (pool + transient).
  uint64_t outstanding_pins() const;

  /// Writes back all dirty pages (keeps them cached clean). Frames with an
  /// active mutable pin are written but stay dirty (the writer may still
  /// modify them).
  Status Flush();

  /// Writes back dirty pages and empties the pool. Establishes a cold cache
  /// for worst-case I/O measurement. Calling with outstanding pins is a
  /// checked error (FailedPrecondition): handles would dangle.
  Status DropCache();

  // --- durability (DESIGN.md §13) ----------------------------------------

  /// Attaches a write-ahead log: from here on, every outermost TxnScope is
  /// a logged transaction — a bulk build run after the attach included —
  /// and no data page reaches the device before the log records covering
  /// it are synced. If the log is empty, an initial checkpoint of the
  /// device's current allocation state is written (the recovery baseline
  /// — the log always starts with one). The wal must outlive the pager;
  /// `wal->device()` must be this pager's device. Not thread-safe against
  /// concurrent pager use: attach before going multi-threaded.
  void AttachWal(Wal* wal);

  /// The attached wal, or nullptr (the common, zero-overhead case).
  Wal* wal() const { return wal_; }

  /// Writes back the listed pages if resident and dirty (unknown / clean /
  /// absent ids are skipped). Unlike Flush this takes only the owning
  /// shards' locks per page, so a committing writer can force its own
  /// touched pages while other writers run — the families' latching
  /// contract guarantees nobody else is mutating *these* pages.
  Status FlushPages(std::span<const PageId> ids);

  /// Drops every frame WITHOUT writing anything back, discarding dirty
  /// state — crash recovery's "the pool was volatile" step. Outstanding
  /// pins are a checked error. Also clears any parked deferred error
  /// (pre-crash history).
  Status DiscardCache();

  /// Device-level counters (the paper's I/O metric) plus pin/hit/miss
  /// counters, merged across shards (DESIGN.md §7 stats merge rule).
  IoStats CombinedStats() const;

  /// Resets both pager-local (every shard) and device counters.
  void ResetStats();

 private:
  friend class PageRef;
  friend class MutPageRef;
  friend class TxnScope;

  using Frame = internal::PageFrame;
  using Shard = internal::PagerShard;

  // Frames a transient (uncached) arena holds for recycling pin buffers.
  static constexpr uint32_t kTransientArenaFrames = 16;

  // Smallest power of two >= 4x hardware threads, capped so every shard
  // keeps >= kMinFramesPerShard frames (1 shard for tiny pools).
  static uint32_t PickShardCount(uint32_t capacity_pages);

  // TxnScope bookkeeping: Allocate/PinNew record the page at the calling
  // thread's innermost depth (and, under a WAL, log kAlloc and mark it
  // touched); Free forgets the id wherever it is recorded, on any thread.
  void RecordAllocation(PageId id);
  void ForgetAllocation(PageId id);

  // Returns the resident frame for `id` within `shard` (whose lock the
  // caller holds), loading it from the device unless `mode == kOverwrite`
  // (then the frame is zero-filled). `hash` is the mixed page-id hash (the
  // same value that selected the shard); the open-addressed probe serves
  // both the hit check and the miss insert — one table walk per pin.
  Result<Frame*> GetFrameLocked(Shard& shard, PageId id, uint64_t hash,
                                MutMode mode);

  // Clock / second-chance sweep: returns a reclaimed frame slot, resuming
  // from the hand position of the previous sweep. ResourceExhausted when
  // every frame of the shard is pinned. Requires shard.mu.
  Result<uint32_t> EvictSlotLocked(Shard& shard);

  // True if any shard other than `except` has a free or unpinned frame.
  // Distinguishes "one shard is pin-saturated" (read pins degrade to a
  // transient copy) from "the whole pool is pinned" (ResourceExhausted,
  // the historical contract). Takes each shard's lock briefly; callers
  // hold no shard lock.
  bool AnyOtherShardHasCapacity(uint32_t except) const;

  // Open-addressed page-table helpers; all require shard.mu.
  // Probe for `id`: returns the table position holding it, or the first
  // empty position (insertion point) if absent.
  uint32_t ProbeLocked(const Shard& shard, PageId id, uint64_t hash) const;
  // Removes the table entry at position `pos` (backshift deletion keeps
  // probe chains tombstone-free).
  void TableEraseLocked(Shard& shard, uint32_t pos);

  Status WriteBack(Frame& frame);

  // Transient (uncached-mode) buffers: recycled arena slots with a heap
  // fallback. `heap` is set only when slot == -1.
  uint8_t* AcquireTransient(int32_t* slot,
                            std::unique_ptr<uint8_t[]>* heap);
  void ReleaseTransient(int32_t slot);

  // Builds a mutable handle over a private transient copy (uncached mode).
  Result<MutPageRef> TransientMutRef(PageId id, MutMode mode);
  // Builds a mutable handle over a resident frame, taking the pins.
  // Requires the shard lock.
  MutPageRef PoolMutRefLocked(PageId id, Frame* frame);

  // Destructor fallback for an unreleased transient MutPageRef: best-effort
  // write-back whose failure is parked here and surfaced by the next
  // Flush()/DropCache().
  void RecordDeferredError(Status s);
  Status TakeDeferredError();

  BlockDevice* device_;
  uint32_t capacity_;
  uint32_t num_shards_ = 1;
  uint32_t shard_mask_ = 0;
  // One contiguous page-aligned arena backing every frame (and, in
  // uncached mode, the transient buffer pool). Sized at construction.
  size_t frame_stride_ = 0;
  uint8_t* arena_ = nullptr;
  size_t arena_bytes_ = 0;
  std::unique_ptr<Shard[]> shards_;

  // Uncached-mode transient buffer recycling.
  std::mutex transient_mu_;
  std::vector<uint32_t> transient_free_;
  std::atomic<uint64_t> transient_outstanding_{0};
  std::atomic<uint64_t> transient_pin_requests_{0};

  // One pool miss in flight through BatchLoadResident: the page id, its
  // home shard, and the scratch buffer the device batch fills (no shard
  // lock is held across the device operation).
  struct MissEntry {
    PageId id;
    uint32_t shard_idx;
    uint64_t hash;
    std::unique_ptr<uint8_t[]> buf;
  };

  // Shared engine of PinMany / WarmMany. Three phases: (A) probe + pin
  // hits under shard locks, collecting distinct misses; (B) one
  // BlockDevice::ReadBatch into scratch buffers with no locks held, so
  // foreground pins never wait behind device latency; (C) install under
  // shard locks — re-probing first, because another thread may have
  // loaded the page meanwhile. `out == nullptr` is warm mode: nothing is
  // pinned, install failures are dropped (a warm is a hint); otherwise
  // refs land in input order and any failure unwinds every pin taken so
  // far.
  Status BatchLoadResident(std::span<const PageId> ids,
                           std::vector<PageRef>* out);

  // Ref constructors for BatchLoadResident (pins/counters already taken).
  PageRef PoolRef(PageId id, Frame* frame);
  PageRef TransientRefFromHeap(PageId id, std::unique_ptr<uint8_t[]> buf);

  // Empties every shard: frames unoccupied, tables cleared, hands reset.
  // Dirty state is dropped; DropCache flushes first, DiscardCache does not.
  void ClearShards();

  // Pages WarmMany has read from the device (prefetches_issued()).
  std::atomic<uint64_t> prefetches_issued_{0};
  // Speculation gate (DESIGN.md §10): batched warm-ups and speculative
  // descent fetches are enabled only when overlap pays — injected latency
  // or real kernel I/O — on a cached pool with CCIDX_PREFETCH not 0. The
  // budget is kSpeculationBudget then, else 0; set once by the
  // constructor and never changed.
  uint32_t spec_budget_ = 0;

  std::mutex deferred_mu_;
  Status deferred_error_;

  // --- transactions (DESIGN.md §6, §11, §13) -----------------------------

  // One entry per thread whose open TxnScope has recorded something (an
  // allocation, or a Wal txn), keyed by the creating thread so concurrent
  // writers' transactions never interleave their recorded allocations.
  std::mutex txns_mu_;
  std::unordered_map<std::thread::id, internal::TxnState> txns_;
  // The calling thread's innermost open TxnScope on this pager, or
  // nullptr. Lock-free: walks the thread-local scope chain.
  TxnScope* InnermostScope() const;
  // The entry of `scope`'s transaction, created on first use. Requires
  // txns_mu_; called on the scope's thread.
  internal::TxnState* TxnLocked(TxnScope* scope);
  // First-touch hook from PinMut (before any shard lock — kOverwrite
  // zero-fills the frame, which would destroy the image): logs the page's
  // before-image once per txn. No-op outside a logged txn or for pages the
  // txn allocated itself.
  Status WalCaptureBeforeImage(PageId id);

  Wal* wal_ = nullptr;
};

/// Meta-only durability point (DESIGN.md §13): opens and immediately
/// commits a WAL txn, so the registered meta providers' blobs reflect an
/// acked resident-state change (buffer append, tombstone add) that wrote
/// no pages. Inert when no WAL is attached; folds into an enclosing scope
/// already open on this thread.
inline Status WalMetaCommit(Pager* pager) {
  TxnScope txn(pager);
  return txn.Commit();
}

}  // namespace ccidx

#endif  // CCIDX_IO_PAGER_H_
