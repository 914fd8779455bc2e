#include "ccidx/io/pager.h"

#include <algorithm>
#include <bit>
#include <cstdlib>
#include <cstring>
#include <new>
#include <thread>

#include "ccidx/io/wal.h"

namespace ccidx {

namespace {

// Minimum frames a shard must keep for sharding to be worth it: below
// this, splitting the pool would concentrate pin pressure (a pin set far
// smaller than the pool could exhaust one shard), so small pools collapse
// to one shard and behave exactly like the historical single pool
// (pager_pin_test semantics). 64 also covers the external sorter's merge
// fan-in (~B simultaneous run pins) for the default O(B^2) budget: at
// capacity >= 2 shards x 64 frames the fan-in can no longer fill a shard.
constexpr uint32_t kMinFramesPerShard = 64;

// splitmix64 finalizer: page ids are sequential, so the bits must be well
// mixed before use. The low bits select the shard; the high bits are the
// open-addressed table home (the two must be independent — every id in a
// shard shares the low bits).
inline uint64_t MixPageId(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

}  // namespace

// ---------------------------------------------------------------------------
// PageRef / MutPageRef
// ---------------------------------------------------------------------------

void PageRef::Release() {
  if (!valid()) return;
  if (frame_ != nullptr) {
    // Lock-free unpin: a read pin releases with a single atomic decrement,
    // no shard lock. The release order pairs with the eviction sweep's
    // acquire load, so a frame observed unpinned is safe to reuse.
    Pager* pager = pager_;
    uint32_t prev = frame_->pins.fetch_sub(1, std::memory_order_release);
    CCIDX_CHECK(prev > 0);
    // A frame just went evictable: re-stage any warm hints that were
    // parked while the pool was pin-saturated (one relaxed load when
    // nothing is parked — the hot path stays lock-free).
    if (prev == 1) pager->ReviveDeferredPrefetches();
  } else {
    // Transient read pin: recycle the arena slot (or drop the heap
    // fallback). No I/O.
    pager_->ReleaseTransient(transient_slot_);
    transient_heap_.reset();
    pager_->transient_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  }
  pager_ = nullptr;
  frame_ = nullptr;
  transient_slot_ = -1;
  data_ = nullptr;
}

MutPageRef& MutPageRef::operator=(MutPageRef&& o) noexcept {
  if (this != &o) {
    ReleaseToDeferred();
    MoveFrom(o);
  }
  return *this;
}

MutPageRef::~MutPageRef() { ReleaseToDeferred(); }

void MutPageRef::ReleaseToDeferred() {
  if (!valid()) return;
  // Destructor-path release: a transient write-back failure here cannot be
  // returned, so it is parked as the pager's deferred error and surfaced
  // by the next Flush()/DropCache().
  Pager* pager = pager_;
  Status s = Release();
  if (!s.ok()) pager->RecordDeferredError(std::move(s));
}

Status MutPageRef::Release() {
  if (!valid()) return Status::OK();
  Pager* pager = pager_;
  uint8_t* buf = data_;
  pager_ = nullptr;
  data_ = nullptr;
  if (frame_ != nullptr) {
    // Lock-free unpin, mut count first so an observer that sees pins == 0
    // also sees mut_pins == 0.
    uint32_t prev_mut =
        frame_->mut_pins.fetch_sub(1, std::memory_order_release);
    CCIDX_CHECK(prev_mut > 0);
    uint32_t prev = frame_->pins.fetch_sub(1, std::memory_order_release);
    CCIDX_CHECK(prev > 0);
    frame_ = nullptr;
    if (prev == 1) pager->ReviveDeferredPrefetches();
    return Status::OK();
  }
  // Uncached: the page lives only in this handle; write it back now so the
  // caller sees the device Status (the historical Write() behavior).
  // WAL-before-data: the log records covering this page must be durable
  // before its data write can reach the device (DESIGN.md §13).
  Status s = pager->wal_ != nullptr ? pager->wal_->SyncBeforeData()
                                    : Status::OK();
  if (s.ok()) s = pager->device_->Write(id_, {buf, size_});
  pager->ReleaseTransient(transient_slot_);
  transient_slot_ = -1;
  transient_heap_.reset();
  pager->transient_outstanding_.fetch_sub(1, std::memory_order_relaxed);
  return s;
}

// ---------------------------------------------------------------------------
// Pager: construction and shard layout
// ---------------------------------------------------------------------------

uint32_t Pager::PickShardCount(uint32_t capacity_pages) {
  if (capacity_pages < 2 * kMinFramesPerShard) return 1;
  // CCIDX_PAGER_SHARDS pins the shard count (rounded to a power of two,
  // capped by capacity) for experiments that must produce identical
  // cached eviction patterns across machines with different core counts.
  uint32_t target = 0;
  if (const char* env = std::getenv("CCIDX_PAGER_SHARDS")) {
    long v = std::strtol(env, nullptr, 10);
    if (v > 0) target = std::bit_ceil(static_cast<uint32_t>(v));
  }
  if (target == 0) {
    unsigned hw = std::thread::hardware_concurrency();
    if (hw == 0) hw = 1;
    target = std::bit_ceil(4 * hw);
  }
  uint32_t by_capacity = 1;
  while (by_capacity * 2 * kMinFramesPerShard <= capacity_pages) {
    by_capacity <<= 1;
  }
  return std::min(target, by_capacity);
}

Pager::Pager(BlockDevice* device, uint32_t capacity_pages)
    : device_(device), capacity_(capacity_pages) {
  CCIDX_CHECK(device_ != nullptr);
  num_shards_ = PickShardCount(capacity_);
  shard_mask_ = num_shards_ - 1;
  // Readahead is only meaningful with a pool to land frames in; uncached
  // pagers must keep the exact historical cost model (every test that
  // counts I/Os relies on it). CCIDX_PREFETCH=0 disables the hint
  // globally for differential prefetch-on/off replays.
  const char* prefetch_env = std::getenv("CCIDX_PREFETCH");
  prefetch_enabled_ =
      capacity_ > 0 &&
      !(prefetch_env != nullptr && std::strcmp(prefetch_env, "0") == 0);
  // Speculation (WarmMany, speculative descent fetches) turns on only when
  // overlapping device requests actually buys latency: injected per-read
  // delay or real kernel I/O. A zero-latency in-memory device stays in
  // cost-model mode, where a speculative read would *add* counted I/Os —
  // so there it is structurally impossible, not just disabled.
  overlap_enabled_ = prefetch_enabled_ &&
                     (device_->read_latency_us() > 0 || device_->real_io());
  if (overlap_enabled_) {
    base_spec_budget_ = 4;
    if (const char* env = std::getenv("CCIDX_SPEC_BUDGET")) {
      long v = std::strtol(env, nullptr, 10);
      if (v >= 0) base_spec_budget_ = static_cast<uint32_t>(v);
    }
    spec_budget_.store(base_spec_budget_, std::memory_order_relaxed);
  }

  // One contiguous page-aligned arena for every frame. Strides are
  // cache-line rounded so adjacent frames never false-share.
  frame_stride_ =
      (static_cast<size_t>(device_->page_size()) + 63) & ~size_t{63};
  uint32_t arena_frames = capacity_ > 0 ? capacity_ : kTransientArenaFrames;
  arena_bytes_ = frame_stride_ * arena_frames;
  arena_ = static_cast<uint8_t*>(
      ::operator new(arena_bytes_, std::align_val_t{4096}));

  shards_ = std::make_unique<Shard[]>(num_shards_);
  if (capacity_ > 0) {
    uint32_t base = capacity_ / num_shards_;
    uint32_t rem = capacity_ % num_shards_;
    uint32_t next_arena_slot = 0;
    for (uint32_t i = 0; i < num_shards_; ++i) {
      Shard& shard = shards_[i];
      shard.capacity = base + (i < rem ? 1 : 0);
      shard.frames = std::make_unique<Frame[]>(shard.capacity);
      // >= 2x capacity keeps open-addressing load factor <= 1/2.
      uint32_t table_size = std::bit_ceil(std::max(4u, 2 * shard.capacity));
      shard.table.assign(table_size, -1);
      shard.table_mask = table_size - 1;
      shard.free_slots.reserve(shard.capacity);
      for (uint32_t s = 0; s < shard.capacity; ++s) {
        shard.frames[s].data = arena_ + frame_stride_ * next_arena_slot++;
        // Reverse so slot 0 is handed out first (matches fill order).
        shard.free_slots.push_back(shard.capacity - 1 - s);
      }
    }
  } else {
    // Uncached mode: the arena backs recycled transient buffers instead.
    transient_free_.reserve(kTransientArenaFrames);
    for (uint32_t s = 0; s < kTransientArenaFrames; ++s) {
      transient_free_.push_back(kTransientArenaFrames - 1 - s);
    }
  }
}

Pager::~Pager() {
  // Stop the readahead pool first: workers touch shard state and the
  // arena, so they must be joined before anything is torn down.
  {
    std::lock_guard lock(prefetch_mu_);
    prefetch_stop_ = true;
  }
  prefetch_cv_.notify_all();
  for (std::thread& t : prefetch_threads_) t.join();
  // All pins must be released before the pool is torn down: a live handle
  // would point into freed frames.
  CCIDX_CHECK(outstanding_pins() == 0);
  // Best-effort flush. A destructor cannot surface a Status, so both a
  // flush failure and a still-parked deferred error die here — callers
  // that care about durability must Flush() (and check it) before
  // destroying the pager.
  Flush().ok();
  ::operator delete(arena_, std::align_val_t{4096});
}

// ---------------------------------------------------------------------------
// Open-addressed page table (per shard, under the shard lock)
// ---------------------------------------------------------------------------

uint32_t Pager::ProbeLocked(const Shard& shard, PageId id,
                            uint64_t hash) const {
  const uint32_t mask = shard.table_mask;
  uint32_t pos = static_cast<uint32_t>(hash >> 32) & mask;
  for (;;) {
    int32_t slot = shard.table[pos];
    if (slot < 0 || shard.frames[slot].id == id) return pos;
    pos = (pos + 1) & mask;
  }
}

void Pager::TableEraseLocked(Shard& shard, uint32_t pos) {
  // Backshift deletion (linear probing without tombstones): walk the
  // cluster after the hole and move back every entry whose home position
  // does not lie cyclically inside (hole, current].
  const uint32_t mask = shard.table_mask;
  shard.table[pos] = -1;
  uint32_t hole = pos;
  uint32_t j = pos;
  for (;;) {
    j = (j + 1) & mask;
    int32_t slot = shard.table[j];
    if (slot < 0) return;
    uint32_t home =
        static_cast<uint32_t>(MixPageId(shard.frames[slot].id) >> 32) & mask;
    if (((j - home) & mask) >= ((j - hole) & mask)) {
      shard.table[hole] = slot;
      shard.table[j] = -1;
      hole = j;
    }
  }
}

// ---------------------------------------------------------------------------
// TxnScope
// ---------------------------------------------------------------------------

namespace {
// The calling thread's innermost open TxnScope on any pager; `prev_`
// links the rest of the thread's scope stack.
thread_local TxnScope* tls_innermost_scope = nullptr;
}  // namespace

TxnScope* Pager::InnermostScope() const {
  for (TxnScope* s = tls_innermost_scope; s != nullptr; s = s->prev_) {
    if (s->pager_ == this) return s;
  }
  return nullptr;
}

internal::TxnState* Pager::TxnLocked(TxnScope* scope) {
  TxnScope* root = scope->outermost_;
  if (root->txn_ == nullptr) {
    auto [it, inserted] = txns_.try_emplace(std::this_thread::get_id());
    CCIDX_CHECK(inserted);  // one outermost scope per thread and pager
    root->txn_ = &it->second;
  }
  return root->txn_;
}

void Pager::RecordAllocation(PageId id) {
  TxnScope* scope = InnermostScope();
  if (scope == nullptr) return;
  internal::TxnState* txn;
  {
    std::lock_guard lock(txns_mu_);
    // Allocations land in the calling thread's innermost level only:
    // concurrent writers' transactions stay disjoint by construction.
    txn = TxnLocked(scope);
    txn->levels.resize(std::max(txn->levels.size(), scope->depth_ + 1));
    txn->levels[scope->depth_].insert(id);
  }
  if (txn->wal == nullptr) return;
  // A failed append (simulated crash or a real EIO/ENOSPC, which latches
  // the wal's sticky failed state) guarantees the commit record can never
  // be written either, so the lost record is harmless: the txn is
  // uncommitted by construction and recovery leaves the page free.
  (void)txn->wal->LogAlloc(txn->id, id);
  txn->touched.push_back(id);  // forced at commit
}

void Pager::ForgetAllocation(PageId id) {
  std::lock_guard lock(txns_mu_);
  // A page is recorded at most once; erase wherever it lives (frees may
  // run on a different thread than the allocating scope).
  for (auto& [tid, txn] : txns_) {
    for (auto& level : txn.levels) {
      if (level.erase(id) > 0) return;
    }
  }
}

TxnScope::TxnScope(Pager* pager)
    : pager_(pager), prev_(tls_innermost_scope) {
  if (TxnScope* enclosing = pager_->InnermostScope()) {
    outermost_ = enclosing->outermost_;
    depth_ = enclosing->depth_ + 1;
  } else if (pager_->wal_ != nullptr) {
    std::lock_guard lock(pager_->txns_mu_);
    internal::TxnState* txn = pager_->TxnLocked(this);
    txn->wal = pager_->wal_;  // attach is pre-threading: fixed per txn
    txn->id = txn->wal->BeginTxn();
  }
  tls_innermost_scope = this;
}

std::vector<PageId> TxnScope::pages() const {
  internal::TxnState* txn = this->txn();
  if (txn == nullptr) return {};
  std::lock_guard lock(pager_->txns_mu_);
  if (txn->levels.size() <= depth_) return {};
  const std::unordered_set<PageId>& level = txn->levels[depth_];
  return std::vector<PageId>(level.begin(), level.end());
}

Status TxnScope::Commit() {
  committed_ = true;
  internal::TxnState* txn = this->txn();
  if (depth_ > 0 || txn == nullptr || txn->wal == nullptr ||
      wal_committed_) {
    return Status::OK();
  }
  // Force phase: the txn's touched pages go to the device (each write-back
  // syncs the log first — WAL-before-data), then a data barrier, then the
  // commit record makes the txn durable. Meta-only updates (no touched
  // pages) still commit: the record carries the registered metas. On
  // failure the destructor runs the abort protocol instead; the
  // allocations stay kept either way.
  CCIDX_RETURN_IF_ERROR(pager_->FlushPages(txn->touched));
  CCIDX_RETURN_IF_ERROR(pager_->device_->SyncData());
  CCIDX_RETURN_IF_ERROR(txn->wal->CommitTxn(txn->id));
  wal_committed_ = true;
  return Status::OK();
}

TxnScope::~TxnScope() {
  // Scopes unwind in reverse creation order on their creating thread.
  CCIDX_CHECK(tls_innermost_scope == this);
  internal::TxnState* txn = this->txn();
  if (!committed_) {
    // Rollback: free every page still recorded at this depth. Free() needs
    // no device transfer, so this succeeds under active fault injection.
    // The level stays on the stack meanwhile, so under a WAL each page is
    // still txn-allocated: an imageless free record, an immediate free.
    for (PageId id : pages()) (void)pager_->Free(id);
  }
  if (txn != nullptr && txn->levels.size() > depth_) {
    std::lock_guard lock(pager_->txns_mu_);
    std::unordered_set<PageId> level = std::move(txn->levels.back());
    txn->levels.pop_back();
    // Fold into the enclosing level so an outer rollback still covers
    // these pages.
    if (committed_ && depth_ > 0) txn->levels.back().merge(level);
  }
  tls_innermost_scope = prev_;
  if (depth_ > 0 || txn == nullptr) return;
  if (txn->wal != nullptr && !wal_committed_ &&
      (!txn->touched.empty() || !txn->deferred_frees.empty())) {
    // In-process abort (a device error unwound the op). Zero-record
    // scopes (a shared-mode restart, a not-found delete) skip this:
    // nothing was logged, so there is nothing to resolve. The family left
    // its documented pre-or-post-op coherent state, and execution
    // CONTINUES from that state — later committed txns may build on it.
    // So the abort must resolve like a meta-less commit: force the
    // surviving pages, then mark the txn resolved so recovery keeps them.
    // Best-effort — if the force fails (the device is the thing that is
    // broken), the abort record is skipped and recovery undoes the txn
    // from its already-durable before-images instead: the coherent pre-op
    // state.
    Status fs = pager_->FlushPages(txn->touched);
    if (fs.ok()) fs = pager_->device_->SyncData();
    if (fs.ok()) (void)txn->wal->AbortTxn(txn->id);
  }
  // Deferred frees apply on exit whether or not the commit record made it
  // out: in-process, families free pre-existing pages only past their
  // point of no return, and across a crash the allocation state is rebuilt
  // from the log, not from this in-memory application.
  std::vector<PageId> frees = std::move(txn->deferred_frees);
  {
    std::lock_guard lock(pager_->txns_mu_);
    pager_->txns_.erase(std::this_thread::get_id());
  }
  for (PageId id : frees) {
    Status s = pager_->device_->Free(id);
    if (s.ok()) {
      pager_->ForgetAllocation(id);
      if (pager_->capacity_ > 0) pager_->RequestReviveAsync();
    }
  }
}

// ---------------------------------------------------------------------------
// Frame acquisition: hits, misses, clock eviction
// ---------------------------------------------------------------------------

Result<uint32_t> Pager::EvictSlotLocked(Shard& shard) {
  // Clock / second-chance sweep, resuming from the hand position left by
  // the previous eviction (never an O(capacity) restart). Two full
  // rotations suffice: the first pass clears reference bits, so the
  // second pass must take the first unpinned frame — if none was found,
  // every frame is pinned.
  const uint32_t n = shard.capacity;
  for (uint32_t step = 0; step < 2 * n; ++step) {
    uint32_t slot = shard.hand;
    shard.hand = (shard.hand + 1 == n) ? 0 : shard.hand + 1;
    Frame& frame = shard.frames[slot];
    if (frame.id == kInvalidPageId) continue;  // unoccupied slot
    // Pairs with the lock-free release decrement; pin *increments* only
    // happen under this shard's lock, so an unpinned frame stays
    // unpinned for the rest of the sweep.
    if (frame.pins.load(std::memory_order_acquire) > 0) continue;
    if (frame.referenced) {
      frame.referenced = false;  // second chance
      continue;
    }
    CCIDX_RETURN_IF_ERROR(WriteBack(frame));
    TableEraseLocked(shard,
                     ProbeLocked(shard, frame.id, MixPageId(frame.id)));
    frame.id = kInvalidPageId;
    frame.dirty = false;
    return slot;
  }
  return Status::ResourceExhausted(
      "all buffer-pool frames are pinned (shard capacity " +
      std::to_string(n) + " of " + std::to_string(capacity_) + ")");
}

Status Pager::WriteBack(Frame& frame) {
  if (!frame.dirty) return Status::OK();
  // WAL-before-data (DESIGN.md §13): every log record appended so far must
  // be durable before a data page can reach the device. One relaxed check
  // when nothing is pending.
  if (wal_ != nullptr) CCIDX_RETURN_IF_ERROR(wal_->SyncBeforeData());
  CCIDX_RETURN_IF_ERROR(
      device_->Write(frame.id, {frame.data, device_->page_size()}));
  // Under an active writer the frame must stay dirty: the pin holder may
  // modify the span after this write-back.
  if (frame.mut_pins.load(std::memory_order_acquire) == 0) {
    frame.dirty = false;
  }
  return Status::OK();
}

Result<Pager::Frame*> Pager::GetFrameLocked(Shard& shard, PageId id,
                                            uint64_t hash, MutMode mode) {
  uint32_t pos = ProbeLocked(shard, id, hash);
  int32_t hit_slot = shard.table[pos];
  if (hit_slot >= 0) {
    Frame& frame = shard.frames[hit_slot];
    if (mode == MutMode::kOverwrite &&
        frame.pins.load(std::memory_order_acquire) > 0) {
      // Zero-filling the frame would mutate the page under live views.
      return Status::FailedPrecondition("overwrite of pinned page " +
                                        std::to_string(id));
    }
    shard.hits++;
    frame.referenced = true;  // clock: a warm hit touches one flag, no list
    if (mode == MutMode::kOverwrite) {
      // Caller rewrites the page; start from deterministic zeros exactly as
      // the historical copy-based Write did.
      std::memset(frame.data, 0, device_->page_size());
    }
    return &frame;
  }
  shard.misses++;
  uint32_t slot;
  if (!shard.free_slots.empty()) {
    slot = shard.free_slots.back();
    shard.free_slots.pop_back();
  } else {
    auto victim = EvictSlotLocked(shard);
    CCIDX_RETURN_IF_ERROR(victim.status());
    slot = *victim;
    // The eviction's backshift may have moved table entries; re-probe for
    // the (still absent) id's insertion point.
    pos = ProbeLocked(shard, id, hash);
  }
  Frame& frame = shard.frames[slot];
  frame.id = id;
  frame.dirty = (mode == MutMode::kOverwrite);
  frame.referenced = true;
  if (mode == MutMode::kLoad) {
    Status s = device_->Read(id, {frame.data, device_->page_size()});
    if (!s.ok()) {
      // Nothing was inserted into the table yet; just return the slot.
      frame.id = kInvalidPageId;
      frame.dirty = false;
      frame.referenced = false;
      shard.free_slots.push_back(slot);
      return s;
    }
  } else {
    std::memset(frame.data, 0, device_->page_size());
  }
  shard.table[pos] = static_cast<int32_t>(slot);
  return &frame;
}

// ---------------------------------------------------------------------------
// Public pin / allocate / free surface
// ---------------------------------------------------------------------------

PageId Pager::Allocate() {
  PageId id = device_->Allocate();
  RecordAllocation(id);
  if (capacity_ == 0) return id;
  // Freshly allocated pages are zeroed on the device; cache a zero copy so
  // the first write does not need a device read. Best-effort: if no frame
  // can be claimed right now (e.g. every frame is pinned), the page simply
  // starts uncached — it already exists zeroed on the device.
  uint64_t hash = MixPageId(id);
  Shard& shard = shards_[static_cast<uint32_t>(hash) & shard_mask_];
  std::lock_guard lock(shard.mu);
  auto result = GetFrameLocked(shard, id, hash, MutMode::kOverwrite);
  if (result.ok()) (*result)->dirty = true;
  return id;
}

Status Pager::Free(PageId id) {
  internal::TxnState* txn = nullptr;
  bool txn_allocated = false;
  if (wal_ != nullptr) {
    TxnScope* scope = InnermostScope();
    if (scope != nullptr) txn = scope->txn();
    if (txn != nullptr && txn->wal == nullptr) txn = nullptr;
    if (txn != nullptr) {
      std::lock_guard lock(txns_mu_);
      txn_allocated = txn->Allocated(id);
    }
  }
  std::vector<uint8_t> before_image;
  if (txn != nullptr) {
    if (!txn_allocated) {
      // Pre-existing page: snapshot its current (possibly dirty-in-pool)
      // content now, before the cached frame is dropped below. The free
      // record is logged only after the pinned-page precondition passes.
      auto ref = Pin(id);
      if (!ref.ok()) return ref.status();
      std::span<const uint8_t> data = ref->data();
      before_image.assign(data.begin(), data.end());
    }
  }
  if (capacity_ > 0) {
    uint64_t hash = MixPageId(id);
    Shard& shard = shards_[static_cast<uint32_t>(hash) & shard_mask_];
    std::lock_guard lock(shard.mu);
    uint32_t pos = ProbeLocked(shard, id, hash);  // the only lookup
    int32_t slot = shard.table[pos];
    if (slot >= 0) {
      Frame& frame = shard.frames[slot];
      if (frame.pins.load(std::memory_order_acquire) > 0) {
        return Status::FailedPrecondition("free of pinned page " +
                                          std::to_string(id));
      }
      frame.id = kInvalidPageId;
      frame.dirty = false;
      frame.referenced = false;
      shard.free_slots.push_back(static_cast<uint32_t>(slot));
      TableEraseLocked(shard, pos);
    }
  }
  if (txn != nullptr) {
    if (txn_allocated) {
      // Allocated by this very transaction: an imageless free record
      // suffices (committed replay marks it freed; uncommitted undo leaves
      // it unallocated) and the device free can happen now — nobody
      // outside this txn can have observed the page.
      txn->captured.erase(id);
      CCIDX_RETURN_IF_ERROR(txn->wal->LogFree(txn->id, id, {}));
    } else {
      // Pre-existing page: log its before-image (recovery must restore it
      // if this txn does not commit) and DEFER the device-level free to
      // scope exit — a committing transaction must not reallocate and
      // overwrite a page whose free is not yet durable (class comment on
      // TxnScope). The cached copy was dropped above; reads of a freed
      // page are a caller bug either way.
      CCIDX_RETURN_IF_ERROR(txn->wal->LogFree(txn->id, id, before_image));
      txn->deferred_frees.push_back(id);
      return Status::OK();
    }
  }
  Status s = device_->Free(id);
  if (s.ok()) ForgetAllocation(id);
  // A freed slot is new capacity: ask a prefetch worker to re-stage the
  // parked warm hints. Signal-only — Free's callers hold structure
  // latches (ExternalPst commits free under root_mu, Dynamized installs
  // free under levels_mu + buffer_mu), so the staging pass (dedupe,
  // residency probes, shard locks) must not run inline here.
  if (s.ok() && capacity_ > 0) RequestReviveAsync();
  return s;
}

Result<PageRef> Pager::Pin(PageId id) {
  PageRef ref;
  ref.id_ = id;
  ref.size_ = device_->page_size();
  if (capacity_ == 0) {
    transient_pin_requests_.fetch_add(1, std::memory_order_relaxed);
    int32_t slot = -1;
    std::unique_ptr<uint8_t[]> heap;
    uint8_t* buf = AcquireTransient(&slot, &heap);
    Status s = device_->Read(id, {buf, ref.size_});
    if (!s.ok()) {
      ReleaseTransient(slot);
      return s;
    }
    ref.data_ = buf;
    ref.transient_heap_ = std::move(heap);
    ref.transient_slot_ = slot;
    ref.pager_ = this;
    transient_outstanding_.fetch_add(1, std::memory_order_relaxed);
    return ref;
  }
  // If a prefetch of this very page is queued or in flight, wait for it to
  // land instead of issuing a second device read: the prefetch workers
  // read outside the shard lock, so without this the pin would race the
  // in-flight load and double-count the transfer.
  if (prefetch_pending_count_.load(std::memory_order_relaxed) > 0) {
    WaitPrefetchDone(id);
  }
  uint64_t hash = MixPageId(id);
  uint32_t shard_idx = static_cast<uint32_t>(hash) & shard_mask_;
  Shard& shard = shards_[shard_idx];
  {
    std::lock_guard lock(shard.mu);
    shard.pin_requests++;
    auto frame = GetFrameLocked(shard, id, hash, MutMode::kLoad);
    if (frame.ok()) {
      (*frame)->pins.fetch_add(1, std::memory_order_relaxed);
      ref.frame_ = *frame;
      ref.data_ = (*frame)->data;
      ref.pager_ = this;
      return ref;
    }
    if (frame.status().code() != StatusCode::kResourceExhausted) {
      return frame.status();
    }
  }
  // The home shard is fully pinned. If the *pool* is fully pinned, that
  // is the caller's error (the historical contract); but while other
  // shards still have capacity, a read pin degrades gracefully to a
  // private transient copy instead of failing — the page missed, so the
  // device copy is current (any dirtier version would be resident), and
  // the handle releases through the transient path like an uncached pin.
  if (!AnyOtherShardHasCapacity(shard_idx)) {
    return Status::ResourceExhausted(
        "all buffer-pool frames are pinned (capacity " +
        std::to_string(capacity_) + ")");
  }
  int32_t slot = -1;
  std::unique_ptr<uint8_t[]> heap;
  uint8_t* buf = AcquireTransient(&slot, &heap);
  Status s = device_->Read(id, {buf, ref.size_});
  if (!s.ok()) {
    ReleaseTransient(slot);
    return s;
  }
  ref.data_ = buf;
  ref.transient_heap_ = std::move(heap);
  ref.transient_slot_ = slot;
  ref.pager_ = this;
  transient_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return ref;
}

// ---------------------------------------------------------------------------
// Batched loading: PinMany / WarmMany (DESIGN.md §10)
// ---------------------------------------------------------------------------

PageRef Pager::PoolRef(PageId id, Frame* frame) {
  PageRef ref;
  ref.id_ = id;
  ref.size_ = device_->page_size();
  ref.frame_ = frame;
  ref.data_ = frame->data;
  ref.pager_ = this;
  return ref;
}

PageRef Pager::TransientRefFromHeap(PageId id,
                                    std::unique_ptr<uint8_t[]> buf) {
  PageRef ref;
  ref.id_ = id;
  ref.size_ = device_->page_size();
  ref.data_ = buf.get();
  ref.transient_heap_ = std::move(buf);
  ref.transient_slot_ = -1;
  ref.pager_ = this;
  transient_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return ref;
}

Status Pager::BatchLoadResident(std::span<const PageId> ids,
                                std::vector<PageRef>* out) {
  const bool pin = out != nullptr;
  const uint32_t page_size = device_->page_size();
  if (pin) {
    out->clear();
    out->resize(ids.size());
  }
  std::vector<MissEntry> misses;
  // Output index -> index into `misses` filling it; -1 = phase-A hit.
  std::vector<int32_t> miss_of;
  if (pin) miss_of.assign(ids.size(), -1);

  // Phase A: pin hits under shard locks; collect distinct misses.
  for (size_t i = 0; i < ids.size(); ++i) {
    PageId id = ids[i];
    if (id == kInvalidPageId) {
      if (pin) return Status::InvalidArgument("pin of invalid page id");
      continue;
    }
    int32_t dup = -1;
    for (size_t m = 0; m < misses.size(); ++m) {
      if (misses[m].id == id) {
        dup = static_cast<int32_t>(m);
        break;
      }
    }
    uint64_t hash = MixPageId(id);
    uint32_t shard_idx = static_cast<uint32_t>(hash) & shard_mask_;
    Shard& shard = shards_[shard_idx];
    std::lock_guard lock(shard.mu);
    if (pin) shard.pin_requests++;
    uint32_t pos = ProbeLocked(shard, id, hash);
    int32_t slot = shard.table[pos];
    if (slot >= 0) {
      Frame& frame = shard.frames[slot];
      shard.hits++;
      frame.referenced = true;
      if (pin) {
        frame.pins.fetch_add(1, std::memory_order_relaxed);
        (*out)[i] = PoolRef(id, &frame);
      }
      continue;
    }
    if (dup >= 0) {
      // Serial equivalence: the second pin of a page this batch already
      // fetches would hit the frame the first pin loaded.
      shard.hits++;
      if (pin) miss_of[i] = dup;
      continue;
    }
    shard.misses++;
    misses.push_back(
        {id, shard_idx, hash, std::make_unique<uint8_t[]>(page_size)});
    if (pin) miss_of[i] = static_cast<int32_t>(misses.size()) - 1;
  }
  if (misses.empty()) return Status::OK();

  // Phase B: one concurrent device round-trip into scratch buffers, with
  // no lock held — device latency here never blocks a foreground pin.
  std::vector<PageReadRequest> reqs;
  reqs.reserve(misses.size());
  for (const MissEntry& m : misses) reqs.push_back({m.id, m.buf.get()});
  Status read_status = device_->ReadBatch(reqs);
  if (!read_status.ok()) {
    if (pin) out->clear();  // unwinds every phase-A pin
    return read_status;
  }

  // Pin mode: how many output slots each miss fills (duplicate ids).
  std::vector<uint32_t> uses;
  if (pin) {
    uses.assign(misses.size(), 0);
    for (int32_t m : miss_of) {
      if (m >= 0) uses[m]++;
    }
  }

  // Phase C: install each loaded page under its shard lock, re-probing
  // first — another thread may have loaded it since phase A, in which
  // case the scratch copy is discarded. Pins are taken under the same
  // lock acquisition that installs the frame, so the eviction sweep can
  // never reclaim it in between.
  std::vector<Frame*> installed(misses.size(), nullptr);
  for (size_t m = 0; m < misses.size(); ++m) {
    MissEntry& e = misses[m];
    Shard& shard = shards_[e.shard_idx];
    {
      std::lock_guard lock(shard.mu);
      uint32_t pos = ProbeLocked(shard, e.id, e.hash);
      int32_t slot = shard.table[pos];
      Frame* frame = nullptr;
      if (slot >= 0) {
        frame = &shard.frames[slot];
        frame->referenced = true;
      } else {
        uint32_t claimed = 0;
        bool have = false;
        if (!shard.free_slots.empty()) {
          claimed = shard.free_slots.back();
          shard.free_slots.pop_back();
          have = true;
        } else {
          auto victim = EvictSlotLocked(shard);
          if (victim.ok()) {
            claimed = *victim;
            // The eviction's backshift may have moved table entries.
            pos = ProbeLocked(shard, e.id, e.hash);
            have = true;
          } else if (victim.status().code() !=
                     StatusCode::kResourceExhausted) {
            // A dirty victim's write-back failed: a real device error.
            if (pin) out->clear();
            return victim.status();
          }
          // ResourceExhausted: fall through to the transient/drop path.
        }
        if (have) {
          frame = &shard.frames[claimed];
          frame->id = e.id;
          frame->dirty = false;
          frame->referenced = true;
          std::memcpy(frame->data, e.buf.get(), page_size);
          shard.table[pos] = static_cast<int32_t>(claimed);
        }
      }
      if (frame != nullptr) {
        if (pin && uses[m] > 0) {
          frame->pins.fetch_add(uses[m], std::memory_order_relaxed);
        }
        installed[m] = frame;
      }
    }
    if (installed[m] == nullptr && !pin) {
      // Warm hint with a pin-saturated home shard: park it for the
      // clock-hand feed — the next pin release or Free re-stages it —
      // instead of dropping the already-paid read's locality hint.
      DeferPrefetch(e.id);
      continue;
    }
    if (installed[m] != nullptr || !pin) continue;
    // Home shard pin-saturated: degrade to transient handles over the
    // already-read scratch bytes (Pin's contract, at the same device
    // cost), unless the whole pool is pinned.
    if (!AnyOtherShardHasCapacity(e.shard_idx)) {
      out->clear();
      return Status::ResourceExhausted(
          "all buffer-pool frames are pinned (capacity " +
          std::to_string(capacity_) + ")");
    }
  }
  if (!pin) return Status::OK();

  // Fill the outputs that waited on a miss.
  std::vector<const uint8_t*> transient_src(misses.size(), nullptr);
  for (size_t i = 0; i < ids.size(); ++i) {
    int32_t m = miss_of[i];
    if (m < 0) continue;
    Frame* frame = installed[m];
    if (frame != nullptr) {
      (*out)[i] = PoolRef(ids[i], frame);  // pins pre-counted via uses[m]
      continue;
    }
    std::unique_ptr<uint8_t[]> buf;
    if (misses[m].buf != nullptr) {
      buf = std::move(misses[m].buf);
    } else {
      // A duplicate landed transient: every handle owns its buffer.
      buf = std::make_unique<uint8_t[]>(page_size);
      std::memcpy(buf.get(), transient_src[m], page_size);
    }
    transient_src[m] = buf.get();
    (*out)[i] = TransientRefFromHeap(ids[i], std::move(buf));
  }
  return Status::OK();
}

Result<std::vector<PageRef>> Pager::PinMany(std::span<const PageId> ids) {
  std::vector<PageRef> out;
  if (ids.empty()) return out;
  if (capacity_ == 0) {
    // Uncached: one transient read per request — exactly the cost of a
    // loop of Pin — issued as a single concurrent device batch.
    const uint32_t page_size = device_->page_size();
    out.resize(ids.size());
    std::vector<int32_t> slots(ids.size(), -1);
    std::vector<std::unique_ptr<uint8_t[]>> heaps(ids.size());
    std::vector<PageReadRequest> reqs(ids.size());
    for (size_t i = 0; i < ids.size(); ++i) {
      transient_pin_requests_.fetch_add(1, std::memory_order_relaxed);
      reqs[i] = {ids[i], AcquireTransient(&slots[i], &heaps[i])};
    }
    Status s = device_->ReadBatch(reqs);
    if (!s.ok()) {
      for (size_t i = 0; i < ids.size(); ++i) ReleaseTransient(slots[i]);
      return s;
    }
    for (size_t i = 0; i < ids.size(); ++i) {
      PageRef& ref = out[i];
      ref.id_ = ids[i];
      ref.size_ = page_size;
      ref.data_ = reqs[i].out;
      ref.transient_heap_ = std::move(heaps[i]);
      ref.transient_slot_ = slots[i];
      ref.pager_ = this;
      transient_outstanding_.fetch_add(1, std::memory_order_relaxed);
    }
    return out;
  }
  if (prefetch_pending_count_.load(std::memory_order_relaxed) > 0) {
    for (PageId id : ids) WaitPrefetchDone(id);
  }
  CCIDX_RETURN_IF_ERROR(BatchLoadResident(ids, &out));
  return out;
}

void Pager::WarmMany(std::span<const PageId> ids) {
  if (!overlap_enabled_ || ids.empty()) return;
  (void)BatchLoadResident(ids, nullptr);
}

// ---------------------------------------------------------------------------
// Readahead (DESIGN.md §9, §10)
// ---------------------------------------------------------------------------

bool Pager::TouchIfResident(PageId id) {
  uint64_t hash = MixPageId(id);
  Shard& shard = shards_[static_cast<uint32_t>(hash) & shard_mask_];
  std::unique_lock lock(shard.mu, std::try_to_lock);
  if (!lock.owns_lock()) return false;  // contended: let a worker decide
  uint32_t pos = ProbeLocked(shard, id, hash);
  int32_t slot = shard.table[pos];
  if (slot < 0) return false;
  shard.frames[slot].referenced = true;
  return true;
}

void Pager::WaitPrefetchDone(PageId id) {
  std::unique_lock lock(prefetch_mu_);
  prefetch_done_cv_.wait(lock, [&] {
    return prefetch_stop_ || prefetch_pending_.count(id) == 0;
  });
}

void Pager::PrefetchWorker() {
  std::unique_lock lock(prefetch_mu_);
  std::vector<PageId> batch;
  for (;;) {
    prefetch_cv_.wait(lock, [this] {
      return prefetch_stop_ || revive_requested_ || !prefetch_queue_.empty();
    });
    if (prefetch_stop_) return;
    if (revive_requested_) {
      // A Free signalled new capacity from inside a latch-held critical
      // section; run the staging pass here on the worker instead.
      revive_requested_ = false;
      lock.unlock();
      ReviveDeferredPrefetches();
      lock.lock();
      if (prefetch_queue_.empty() && prefetch_inflight_ == 0) {
        prefetch_idle_cv_.notify_all();
      }
      continue;
    }
    batch.clear();
    while (!prefetch_queue_.empty() && batch.size() < kPrefetchBatchMax) {
      batch.push_back(prefetch_queue_.front());
      prefetch_queue_.pop_front();
    }
    prefetch_inflight_ += batch.size();
    lock.unlock();
    // The device reads happen here with neither the queue lock nor any
    // shard lock held: a staged batch overlaps into one device
    // round-trip, and a foreground pin of an unrelated page never waits
    // behind its latency. Errors are dropped — a prefetch is a hint; the
    // real Pin re-reads and surfaces them.
    (void)BatchLoadResident(batch, nullptr);
    lock.lock();
    prefetch_inflight_ -= batch.size();
    for (PageId id : batch) prefetch_pending_.erase(id);
    prefetch_pending_count_.store(prefetch_pending_.size(),
                                  std::memory_order_relaxed);
    prefetch_done_cv_.notify_all();
    if (prefetch_queue_.empty() && prefetch_inflight_ == 0) {
      prefetch_idle_cv_.notify_all();
    }
  }
}

void Pager::Prefetch(std::span<const PageId> ids) {
  if (!prefetch_enabled_ || ids.empty()) return;
  bool enqueued = false;
  {
    std::lock_guard lock(prefetch_mu_);
    if (prefetch_stop_) return;
    for (PageId id : ids) {
      if (id == kInvalidPageId) continue;
      if (prefetch_queue_.size() >= kPrefetchQueueCap) break;  // best-effort
      // Dedupe before enqueue: an id already staged (or in flight) and an
      // id already resident would both make the round trip through the
      // queue and a worker's shard-lock acquisition just to find a warm
      // frame — the chained single-id hints from leaf-run walks hit this
      // constantly on warm pools.
      if (prefetch_pending_.count(id) > 0) continue;
      if (TouchIfResident(id)) continue;
      if (prefetch_threads_.empty()) {
        // Lazy start: pagers that never prefetch never spawn threads.
        prefetch_threads_.reserve(kPrefetchThreads);
        for (size_t i = 0; i < kPrefetchThreads; ++i) {
          prefetch_threads_.emplace_back([this] { PrefetchWorker(); });
        }
      }
      prefetch_queue_.push_back(id);
      prefetch_pending_.insert(id);
      prefetch_pending_count_.store(prefetch_pending_.size(),
                                    std::memory_order_relaxed);
      prefetches_issued_.fetch_add(1, std::memory_order_relaxed);
      enqueued = true;
    }
  }
  if (enqueued) prefetch_cv_.notify_all();
}

void Pager::DrainPrefetch() {
  std::unique_lock lock(prefetch_mu_);
  prefetch_idle_cv_.wait(lock, [this] {
    return !revive_requested_ && prefetch_queue_.empty() &&
           prefetch_inflight_ == 0;
  });
}

void Pager::DeferPrefetch(PageId id) {
  if (!prefetch_enabled_) return;
  std::lock_guard lock(deferred_prefetch_mu_);
  for (PageId parked : deferred_prefetch_) {
    if (parked == id) return;
  }
  if (deferred_prefetch_.size() >= kDeferredPrefetchCap) {
    // Drop the oldest: later hints track the scan's frontier.
    deferred_prefetch_.erase(deferred_prefetch_.begin());
  }
  deferred_prefetch_.push_back(id);
  deferred_prefetch_count_.store(deferred_prefetch_.size(),
                                 std::memory_order_relaxed);
  prefetches_deferred_.fetch_add(1, std::memory_order_relaxed);
}

void Pager::ReviveDeferredPrefetches() {
  // Relaxed fast path: pin releases are the lock-free hot path and parked
  // hints are rare, so the common case must stay one load.
  if (deferred_prefetch_count_.load(std::memory_order_relaxed) == 0) return;
  std::vector<PageId> ids;
  {
    std::lock_guard lock(deferred_prefetch_mu_);
    ids.swap(deferred_prefetch_);
    deferred_prefetch_count_.store(0, std::memory_order_relaxed);
  }
  if (ids.empty()) return;
  prefetches_revived_.fetch_add(ids.size(), std::memory_order_relaxed);
  Prefetch(ids);
}

void Pager::RequestReviveAsync() {
  // Same relaxed fast path as ReviveDeferredPrefetches: nothing parked,
  // nothing to signal.
  if (deferred_prefetch_count_.load(std::memory_order_relaxed) == 0) return;
  {
    std::lock_guard lock(prefetch_mu_);
    // No worker running (nothing has been prefetched yet, or we are
    // shutting down): leave the hints parked — the next pin-release
    // revive or Prefetch call picks them up.
    if (prefetch_stop_ || prefetch_threads_.empty()) return;
    revive_requested_ = true;
  }
  prefetch_cv_.notify_all();
}

bool Pager::AnyOtherShardHasCapacity(uint32_t except) const {
  for (uint32_t i = 0; i < num_shards_; ++i) {
    if (i == except) continue;
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    if (!shard.free_slots.empty()) return true;
    for (uint32_t s = 0; s < shard.capacity; ++s) {
      if (shard.frames[s].pins.load(std::memory_order_acquire) == 0) {
        return true;
      }
    }
  }
  return false;
}

Result<MutPageRef> Pager::TransientMutRef(PageId id, MutMode mode) {
  MutPageRef ref;
  ref.id_ = id;
  ref.size_ = device_->page_size();
  int32_t slot = -1;
  std::unique_ptr<uint8_t[]> heap;
  uint8_t* buf = AcquireTransient(&slot, &heap);
  if (mode == MutMode::kLoad) {
    Status s = device_->Read(id, {buf, ref.size_});
    if (!s.ok()) {
      ReleaseTransient(slot);
      return s;
    }
  } else {
    std::memset(buf, 0, ref.size_);
  }
  ref.data_ = buf;
  ref.transient_heap_ = std::move(heap);
  ref.transient_slot_ = slot;
  ref.pager_ = this;
  transient_outstanding_.fetch_add(1, std::memory_order_relaxed);
  return ref;
}

MutPageRef Pager::PoolMutRefLocked(PageId id, Frame* frame) {
  frame->pins.fetch_add(1, std::memory_order_relaxed);
  frame->mut_pins.fetch_add(1, std::memory_order_relaxed);
  frame->dirty = true;
  MutPageRef ref;
  ref.id_ = id;
  ref.size_ = device_->page_size();
  ref.frame_ = frame;
  ref.data_ = frame->data;
  ref.pager_ = this;
  return ref;
}

Result<MutPageRef> Pager::PinMut(PageId id, MutMode mode) {
  // First mutable touch inside a WAL transaction logs the page's
  // before-image. Must happen before any shard lock: a kOverwrite hit
  // zero-fills the frame, destroying the content the image needs (and the
  // capture pins the page shared, which takes the lock itself).
  if (wal_ != nullptr) CCIDX_RETURN_IF_ERROR(WalCaptureBeforeImage(id));
  if (capacity_ == 0) {
    transient_pin_requests_.fetch_add(1, std::memory_order_relaxed);
    return TransientMutRef(id, mode);
  }
  if (prefetch_pending_count_.load(std::memory_order_relaxed) > 0) {
    WaitPrefetchDone(id);
  }
  uint64_t hash = MixPageId(id);
  Shard& shard = shards_[static_cast<uint32_t>(hash) & shard_mask_];
  std::lock_guard lock(shard.mu);
  shard.pin_requests++;
  auto frame = GetFrameLocked(shard, id, hash, mode);
  CCIDX_RETURN_IF_ERROR(frame.status());
  return PoolMutRefLocked(id, *frame);
}

Result<MutPageRef> Pager::PinNew() {
  // One step: the freshly allocated id has no stale frame (Free() uncaches
  // before returning ids to the device), so this claims and pins the frame
  // in a single miss with no redundant lookup or re-zeroing.
  PageId id = device_->Allocate();
  RecordAllocation(id);
  if (capacity_ == 0) {
    transient_pin_requests_.fetch_add(1, std::memory_order_relaxed);
    return TransientMutRef(id, MutMode::kOverwrite);
  }
  uint64_t hash = MixPageId(id);
  Shard& shard = shards_[static_cast<uint32_t>(hash) & shard_mask_];
  std::lock_guard lock(shard.mu);
  shard.pin_requests++;
  auto frame = GetFrameLocked(shard, id, hash, MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(frame.status());
  return PoolMutRefLocked(id, *frame);
}

// ---------------------------------------------------------------------------
// Transient (uncached) buffer recycling
// ---------------------------------------------------------------------------

uint8_t* Pager::AcquireTransient(int32_t* slot,
                                 std::unique_ptr<uint8_t[]>* heap) {
  {
    std::lock_guard lock(transient_mu_);
    if (!transient_free_.empty()) {
      *slot = static_cast<int32_t>(transient_free_.back());
      transient_free_.pop_back();
      return arena_ + frame_stride_ * static_cast<size_t>(*slot);
    }
  }
  // Arena exhausted (more than kTransientArenaFrames simultaneous
  // transient pins): fall back to the heap for this one.
  *slot = -1;
  *heap = std::make_unique<uint8_t[]>(device_->page_size());
  return heap->get();
}

void Pager::ReleaseTransient(int32_t slot) {
  if (slot < 0) return;
  std::lock_guard lock(transient_mu_);
  transient_free_.push_back(static_cast<uint32_t>(slot));
}

// ---------------------------------------------------------------------------
// Introspection, flush, stats
// ---------------------------------------------------------------------------

uint64_t Pager::pinned_frames() const {
  uint64_t n = 0;
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    for (uint32_t s = 0; s < shard.capacity; ++s) {
      if (shard.frames[s].id != kInvalidPageId &&
          shard.frames[s].pins.load(std::memory_order_acquire) > 0) {
        n++;
      }
    }
  }
  return n;
}

uint64_t Pager::outstanding_pins() const {
  // Derived instead of counted: frame pin counts are the ground truth for
  // pool handles (keeps the per-pin hot path to one atomic each way);
  // transient handles keep their own counter (no frames to consult).
  uint64_t n = transient_outstanding_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    for (uint32_t s = 0; s < shard.capacity; ++s) {
      n += shard.frames[s].pins.load(std::memory_order_acquire);
    }
  }
  return n;
}

void Pager::RecordDeferredError(Status s) {
  std::lock_guard lock(deferred_mu_);
  if (deferred_error_.ok()) deferred_error_ = std::move(s);
}

Status Pager::TakeDeferredError() {
  std::lock_guard lock(deferred_mu_);
  Status s = std::move(deferred_error_);
  deferred_error_ = Status::OK();
  return s;
}

Status Pager::Read(PageId id, std::span<uint8_t> out) {
  if (out.size() != device_->page_size()) {
    return Status::InvalidArgument("pager read buffer size mismatch");
  }
  auto ref = Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  std::memcpy(out.data(), ref->data().data(), out.size());
  return Status::OK();
}

Status Pager::Write(PageId id, std::span<const uint8_t> in) {
  if (in.size() != device_->page_size()) {
    return Status::InvalidArgument("pager write buffer size mismatch");
  }
  auto ref = PinMut(id, MutMode::kOverwrite);
  CCIDX_RETURN_IF_ERROR(ref.status());
  std::memcpy(ref->data().data(), in.data(), in.size());
  return ref->Release();
}

Status Pager::Flush() {
  CCIDX_RETURN_IF_ERROR(TakeDeferredError());
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    for (uint32_t s = 0; s < shard.capacity; ++s) {
      Frame& frame = shard.frames[s];
      if (frame.id == kInvalidPageId) continue;
      CCIDX_RETURN_IF_ERROR(WriteBack(frame));
    }
  }
  return Status::OK();
}

Status Pager::DropCache() {
  // Quiesce readahead first: a straggler landing after the clear would
  // leave the "cold" cache warm for exactly the page about to be pinned.
  DrainPrefetch();
  {
    // Parked warm hints die with the cache: reviving one after the clear
    // would silently re-warm a page the caller just made cold.
    std::lock_guard lock(deferred_prefetch_mu_);
    deferred_prefetch_.clear();
    deferred_prefetch_count_.store(0, std::memory_order_relaxed);
  }
  CCIDX_RETURN_IF_ERROR(TakeDeferredError());
  uint64_t pins = outstanding_pins();
  if (pins > 0) {
    return Status::FailedPrecondition(
        "DropCache with " + std::to_string(pins) + " outstanding pin(s)");
  }
  CCIDX_RETURN_IF_ERROR(Flush());
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    std::fill(shard.table.begin(), shard.table.end(), -1);
    shard.free_slots.clear();
    for (uint32_t s = 0; s < shard.capacity; ++s) {
      Frame& frame = shard.frames[s];
      frame.id = kInvalidPageId;
      frame.dirty = false;
      frame.referenced = false;
      shard.free_slots.push_back(shard.capacity - 1 - s);
    }
    shard.hand = 0;
  }
  return Status::OK();
}

IoStats Pager::CombinedStats() const {
  IoStats s = device_->stats();
  s.pin_requests = transient_pin_requests_.load(std::memory_order_relaxed);
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    s.cache_hits += shard.hits;
    s.cache_misses += shard.misses;
    s.pin_requests += shard.pin_requests;
  }
  return s;
}

void Pager::ResetStats() {
  device_->ResetStats();
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    shard.hits = 0;
    shard.misses = 0;
    shard.pin_requests = 0;
  }
  transient_pin_requests_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// WAL integration (DESIGN.md §13)
// ---------------------------------------------------------------------------

void Pager::AttachWal(Wal* wal) {
  CCIDX_CHECK(wal != nullptr);
  CCIDX_CHECK(wal->device() == device_);
  CCIDX_CHECK(wal_ == nullptr || wal_ == wal);
  wal_ = wal;
  // The log must always start with a checkpoint: it is the allocation
  // baseline recovery replays onto. Everything built before the attach is
  // unlogged and lands in that baseline; every TxnScope after it — a bulk
  // build included — is a logged transaction.
  if (wal->records() == 0) {
    CCIDX_CHECK(wal->Checkpoint(this).ok());
  }
}

Status Pager::WalCaptureBeforeImage(PageId id) {
  TxnScope* scope = InnermostScope();
  internal::TxnState* txn = scope == nullptr ? nullptr : scope->txn();
  if (txn == nullptr || txn->wal == nullptr) return Status::OK();
  {
    std::lock_guard lock(txns_mu_);
    // Pages this txn allocated need no image: kAlloc undoes them.
    if (txn->Allocated(id)) return Status::OK();
  }
  if (txn->captured.contains(id)) return Status::OK();
  // Shared pin: pool-aware, so a dirty resident frame contributes its
  // current (logical) content, not the stale device copy.
  auto ref = Pin(id);
  CCIDX_RETURN_IF_ERROR(ref.status());
  Status s = txn->wal->LogPageImage(txn->id, id, ref->data());
  ref->Release();
  CCIDX_RETURN_IF_ERROR(s);
  txn->captured.insert(id);
  txn->touched.push_back(id);
  return Status::OK();
}

Status Pager::FlushPages(std::span<const PageId> ids) {
  if (capacity_ == 0) return Status::OK();  // transient writes hit the
                                            // device at Release already
  for (PageId id : ids) {
    uint64_t hash = MixPageId(id);
    Shard& shard = shards_[static_cast<uint32_t>(hash) & shard_mask_];
    std::lock_guard lock(shard.mu);
    int32_t slot = shard.table[ProbeLocked(shard, id, hash)];
    if (slot < 0) continue;  // not resident (evicted or freed): on device
    CCIDX_RETURN_IF_ERROR(WriteBack(shard.frames[slot]));
  }
  return Status::OK();
}

Status Pager::DiscardCache() {
  DrainPrefetch();
  {
    std::lock_guard lock(deferred_prefetch_mu_);
    deferred_prefetch_.clear();
    deferred_prefetch_count_.store(0, std::memory_order_relaxed);
  }
  // Pre-crash parked errors are history the recovery replaces.
  (void)TakeDeferredError();
  uint64_t pins = outstanding_pins();
  if (pins > 0) {
    return Status::FailedPrecondition(
        "DiscardCache with " + std::to_string(pins) + " outstanding pin(s)");
  }
  for (uint32_t i = 0; i < num_shards_; ++i) {
    Shard& shard = shards_[i];
    std::lock_guard lock(shard.mu);
    std::fill(shard.table.begin(), shard.table.end(), -1);
    shard.free_slots.clear();
    for (uint32_t s = 0; s < shard.capacity; ++s) {
      Frame& frame = shard.frames[s];
      frame.id = kInvalidPageId;
      frame.dirty = false;  // dirty state is deliberately dropped
      frame.referenced = false;
      shard.free_slots.push_back(shard.capacity - 1 - s);
    }
    shard.hand = 0;
  }
  return Status::OK();
}

}  // namespace ccidx
