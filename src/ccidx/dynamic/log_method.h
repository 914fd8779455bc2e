// Dynamized<Traits>: the logarithmic-method adapter that gives a fully
// static structure Insert and Delete (DESIGN.md §8).
//
// The paper dynamizes its structures by hand (update blocks, level I/II
// reorganizations, Section 3.2); for the families whose native form is
// build-once (MetablockTree, ThreeSidedTree) this adapter applies the
// generic equivalent — Bentley–Saxe logarithmic decomposition with weak
// deletes — on top of the PR 3 bulk-build pipeline:
//
//   * One resident buffer of B records (one page's worth — the analogue
//     of the paper's per-metablock update block) absorbs inserts.
//   * A full buffer is merged, together with every lower level it spills
//     over, into the smallest level k whose capacity B·2^(k+1) holds the
//     merged total. Each merge streams the old levels' records through an
//     ExternalSorter into the family's PointGroup bulk build, so a merge
//     of m records costs O((m/B) log_{M/B}(m/B)) sort + build I/Os and a
//     record is rewritten at most once per level it is promoted through:
//     amortized insert O((log2(n/B) * log_B n) / B) I/Os on top of the
//     O(1) buffer append.
//   * Deletes are weak (TombstoneSet): reporting filters dead records at
//     zero extra I/O, and the shared RebuildScheduler forces a global
//     merge-and-purge before tombstones reach half the live weight, so
//     space stays O(n/B) pages and queries stay within a factor of two of
//     the live-output t/B term. Amortized delete: one membership probe
//     (a query anchored at the record) + O((log_B n)/B) rebuild charge.
//   * Queries fan over the buffer and every occupied level — at most
//     log2(n/B) structures — multiplying the family's search term by
//     log2(n/B) but leaving the t/B reporting term intact. kStop
//     propagates: the shared filter sink latches, and no further level is
//     consulted once the consumer stops.
//
// Fault atomicity: every merge runs inside a Pager TxnScope. The
// source levels are only read; the replacement structure (and any sorter
// spill runs) is built under the scope, each level's complete page set is
// retained from the scope snapshot, and the old levels are freed only
// after the build commits — by page id, with no device reads, the same
// property rollback itself relies on. A failed merge therefore leaves
// the adapter exactly as it was, still answering queries, with
// live_pages back to its pre-merge baseline.
//
// Thread safety (DESIGN.md §11): Query is const and safe from any number
// of threads concurrently; the epoch gate (QueryExecutor) excludes it
// from writes. Within a write epoch, Insert and Delete are safe from N
// threads concurrently through three internal latches, acquired in the
// fixed order merge → levels → buffer:
//   * merge_mu    — at most one merge (flush or purge) at a time; the
//                   merging thread holds it across harvest + build.
//   * levels_mu   — shared for level reads (membership probes, harvest
//                   scans), exclusive only for the O(levels) install.
//   * buffer_mu   — guards the append buffer. While a merge is in
//                   flight the buffer is append-only (merge_in_flight):
//                   the merge harvested a snapshot prefix, install
//                   removes exactly that prefix, and buffer-erase
//                   deletes fall back to the tombstone path so the
//                   prefix identity is never disturbed. Insert's
//                   resurrection (tombstone Consume) is also gated on
//                   merge_in_flight: the harvest excludes tombstoned
//                   records with the Consume deferred to install, so a
//                   resurrection racing that window would acknowledge a
//                   record the merge is about to drop; such inserts
//                   wait on merge_mu and retry instead.
// Purge rebuilds can also run split-phase on a maintenance thread
// (DESIGN.md §11): PrepareGlobalRebuild harvests under its own latches
// (merge_mu + levels_mu shared) and builds — no gate epoch needed, so
// serving and updates continue; CommitGlobalRebuild installs under the
// exclusive gate and validates the RebuildScheduler::update_stamp() it
// harvested at — any interleaved update (or inline merge: install bumps
// the stamp too) makes the commit a no-op that frees the built pages
// instead. SetPurgeHook diverts Delete's inline purge trigger to that
// path. Destroy, Build, CheckInvariants, and num_levels still require
// full quiescence.

#ifndef CCIDX_DYNAMIC_LOG_METHOD_H_
#define CCIDX_DYNAMIC_LOG_METHOD_H_

#include <algorithm>
#include <atomic>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "ccidx/build/external_sorter.h"
#include "ccidx/dynamic/rebuild.h"
#include "ccidx/dynamic/tombstones.h"
#include "ccidx/io/pager.h"
#include "ccidx/io/wal.h"
#include "ccidx/query/sink.h"

namespace ccidx {

/// Logarithmic-method dynamization of a static structure.
///
/// Traits contract:
///   using Record        — stored record type (value identity, ==)
///   using Structure     — the static family (movable)
///   using Query         — the family's query type
///   using IdentityHash  — hash over full record identity
///   using BuildLess     — the bulk-build sort order (e.g. PointXOrder)
///   static Result<Structure> BuildFromSorted(Pager*,
///       RecordStream<Record>* sorted, uint64_t count)
///   static Status Run(const Structure&, const Query&, ResultSink<Record>*)
///   static Status Scan(const Structure&, ResultSink<Record>*)  — full
///       enumeration of stored records, any order
///   static bool Matches(const Query&, const Record&)
///   static Query ProbeQuery(const Record&) — a query whose region is
///       guaranteed to contain the record (membership probes)
///   static Status Check(const Structure&) — structural invariants
///   static uint64_t Size(const Structure&)
template <typename Traits>
class Dynamized {
 public:
  using Record = typename Traits::Record;
  using Structure = typename Traits::Structure;
  using QueryT = typename Traits::Query;
  using Tombstones = TombstoneSet<Record, typename Traits::IdentityHash>;

  /// Empty adapter. `buffer_capacity` 0 = one page of records (B).
  explicit Dynamized(Pager* pager, uint32_t buffer_capacity = 0)
      : pager_(pager),
        buffer_cap_(buffer_capacity != 0
                        ? buffer_capacity
                        : PageIo(pager).CapacityFor(sizeof(Record))),
        sy_(std::make_unique<Sync>()) {
    CCIDX_CHECK(buffer_cap_ > 0);
  }

  /// Bulk build: the records become one bottom level (fault-atomic).
  static Result<Dynamized> Build(Pager* pager, std::vector<Record>&& records,
                                 uint32_t buffer_capacity = 0) {
    Dynamized out(pager, buffer_capacity);
    if (records.empty()) return out;
    std::sort(records.begin(), records.end(), typename Traits::BuildLess());
    size_t k = 0;
    while (out.LevelCapacity(k) < records.size()) k++;
    out.EnsureLevels(k + 1);

    TxnScope txn(pager);
    const uint64_t n = records.size();
    SpanStream<Record> stream(std::span<const Record>(records),
                              PageIo(pager).CapacityFor(sizeof(Record)));
    auto st = Traits::BuildFromSorted(pager, &stream, n);
    CCIDX_RETURN_IF_ERROR(st.status());
    out.levels_[k].pages = txn.pages();
    out.levels_[k].st.emplace(std::move(*st));
    out.levels_[k].count = n;
    out.sy_->stored.store(n, kRlx);
    CCIDX_RETURN_IF_ERROR(txn.Commit());
    return out;
  }

  /// Inserts a record (unique identity). Amortized
  /// O((log2(n/B) * log_B n) / B) I/Os. Re-inserting a tombstoned
  /// identity resurrects the stored record at zero I/O. Safe from N
  /// writer threads concurrently (write epoch).
  Status Insert(const Record& r) {
    bool full = false;
    bool resurrected = false;
    for (;;) {
      {
        std::lock_guard<std::mutex> bg(sy_->buffer_mu);
        if (!sy_->merge_in_flight) {
          // No merge is harvesting, so a tombstone seen here cannot have
          // been excluded-but-not-yet-consumed by one (InstallLocked
          // consumes the purged tombstones before lowering the flag):
          // resurrecting is safe.
          if (tombstones_.Consume(r)) {
            sched_.NoteTombstoneConsumed();
            resurrected = true;
            break;
          }
          buffer_.push_back(r);
          sy_->buffer_size.store(buffer_.size(), kRlx);
          full = buffer_.size() >= buffer_cap_;
          break;
        }
        if (!tombstones_.Contains(r)) {
          // Plain append during a merge is the append-only discipline:
          // the merge harvested a buffer prefix and install removes
          // exactly that prefix, so this record survives in the buffer.
          buffer_.push_back(r);
          sy_->buffer_size.store(buffer_.size(), kRlx);
          full = buffer_.size() >= buffer_cap_;
          break;
        }
      }
      // Tombstoned identity while a merge is in flight: the harvest may
      // already have excluded the stored record against this tombstone,
      // so consuming it here would return OK while the merge installs a
      // level without the record (lost insert). Wait for the merge to
      // land (merge_mu, lock order merge -> buffer) and re-evaluate:
      // afterwards the tombstone is either consumed by the merge (this
      // becomes a fresh append) or still valid (resurrect).
      std::lock_guard<std::mutex> mg(sy_->merge_mu);
    }
    // Durability point (DESIGN.md §13): a resurrection or buffer append
    // changes only resident state, so the txn carries no page records —
    // just the registered meta blobs under one group-committed record.
    if (resurrected) return WalCommitPoint();
    sched_.Touch();
    CCIDX_RETURN_IF_ERROR(WalCommitPoint());
    // A full buffer flushes; if a merge is already in flight the append
    // stands (append-only discipline) and Flush blocks on merge_mu until
    // that merge lands, then re-checks — so overflow is bounded by one
    // record per concurrent writer.
    if (full) return Flush();
    return Status::OK();
  }

  /// Weak delete. Sets *found. One membership probe (family query
  /// anchored at the record) + amortized O((log_B n)/B) purge charge.
  /// Safe from N writer threads concurrently (write epoch).
  Status Delete(const Record& r, bool* found) {
    *found = false;
    bool in_buffer = false;
    {
      std::lock_guard<std::mutex> bg(sy_->buffer_mu);
      auto it = std::find(buffer_.begin(), buffer_.end(), r);
      if (it != buffer_.end()) {
        if (!sy_->merge_in_flight) {
          buffer_.erase(it);
          sy_->buffer_size.store(buffer_.size(), kRlx);
          *found = true;
        } else {
          // The merge harvested a buffer prefix; erasing here could
          // desync the prefix removal at install. Tombstone instead —
          // the record lands in the merged level (or stays buffered)
          // already marked dead, and the next purge expunges it.
          in_buffer = true;
        }
      }
    }
    if (*found) {
      sched_.Touch();
      return WalCommitPoint();  // meta-only durability point
    }
    if (!in_buffer) {
      if (tombstones_.Contains(r)) return Status::OK();  // already dead
      bool exists = false;
      {
        std::shared_lock<std::shared_mutex> lg(sy_->levels_mu);
        CCIDX_RETURN_IF_ERROR(LookupLocked(r, &exists));
      }
      if (!exists) return Status::OK();
    }
    if (!tombstones_.Add(r)) return Status::OK();  // concurrent delete won
    sched_.NoteDelete();
    *found = true;
    // The tombstone commits (meta-only) before any purge opens its own
    // page-writing txn.
    CCIDX_RETURN_IF_ERROR(WalCommitPoint());
    if (sched_.ShouldPurge(size())) return TriggerPurge();
    return Status::OK();
  }

  /// Streams every live record matching `q` into `sink` (buffer first,
  /// then levels). kStop latches across levels.
  Status Query(const QueryT& q, ResultSink<Record>* sink) const {
    if (tombstones_.empty()) {
      // No weak deletes outstanding: skip the filter staging, keep only
      // a latch so kStop still halts the level fan-out.
      StopLatchSink latch(sink);
      return QueryThrough(q, &latch, [&] { return latch.stopped(); });
    }
    LiveFilterSink<Record, typename Traits::IdentityHash> filter(
        &tombstones_, sink);
    return QueryThrough(q, &filter, [&] { return filter.stopped(); });
  }

  /// Live records (stored + buffered - tombstoned). Thread-safe; a
  /// momentarily torn read across the three counters only shifts the
  /// purge heuristic by O(1).
  uint64_t size() const {
    uint64_t s = sy_->stored.load(kRlx) + sy_->buffer_size.load(kRlx);
    uint64_t t = tombstones_.size();
    return t > s ? 0 : s - t;
  }

  size_t num_levels() const {
    size_t n = 0;
    for (const Level& lv : levels_) n += lv.st.has_value() ? 1 : 0;
    return n;
  }
  size_t outstanding_tombstones() const { return tombstones_.size(); }
  uint64_t merges() const { return sy_->merges.load(kRlx); }

  /// Diverts Delete's inline purge trigger to `hook` (typically: enqueue
  /// a split-phase rebuild on a MaintenanceThread). The hook fires at
  /// most once per outstanding purge (deduplicated until Commit/Abandon).
  /// Requires external synchronization (install before going concurrent).
  void SetPurgeHook(std::function<void()> hook) {
    purge_hook_ = std::move(hook);
  }

  /// A split-phase purge rebuild in flight: the replacement structure is
  /// built and durable, the old levels are still serving.
  struct PendingRebuild {
    std::optional<Structure> fresh;
    std::vector<PageId> pages;      // complete page set of `fresh`
    uint64_t merged = 0;            // records in `fresh`
    size_t level = 0;               // target level k
    size_t harvested_buffer = 0;    // buffer prefix folded into `fresh`
    std::vector<Record> purged;     // tombstones the rebuild expunged
    uint64_t stamp = 0;             // sched_.update_stamp() at harvest
  };

  /// Phase 1 of a background purge: harvest every level + the buffer and
  /// build the replacement. Needs no gate epoch — it only reads the
  /// adapter (under merge_mu + the internal latches) and writes fresh
  /// pages, so it runs concurrently with queries *and* update epochs;
  /// any update that races it bumps the stamp and voids the commit.
  /// (Writers of this structure whose buffer fills mid-prepare block on
  /// merge_mu until the prepare finishes; plain appends proceed.) The
  /// built pages are committed durable; the caller must pass the result
  /// to CommitGlobalRebuild or AbandonGlobalRebuild.
  Result<PendingRebuild> PrepareGlobalRebuild() {
    std::lock_guard<std::mutex> mg(sy_->merge_mu);
    PendingRebuild p;
    p.stamp = sched_.update_stamp();
    std::vector<Record> buf_copy;
    {
      std::lock_guard<std::mutex> bg(sy_->buffer_mu);
      buf_copy = buffer_;
    }
    p.harvested_buffer = buf_copy.size();
    uint64_t total = buf_copy.size() + sy_->stored.load(kRlx);
    size_t k = levels_.empty() ? 0 : levels_.size() - 1;
    while (LevelCapacity(k) < total) k++;
    p.level = k;

    // The prepare's txn commits here with only kAlloc records: on a crash
    // between prepare and commit the built pages survive recovery live
    // but unreferenced — a bounded leak (one pending rebuild), noted in
    // DESIGN.md §13.
    TxnScope txn(pager_);
    ExternalSorter<Record, typename Traits::BuildLess> sorter(pager_);
    CCIDX_RETURN_IF_ERROR(HarvestInto(&sorter, buf_copy, k, &p.purged));
    p.merged = sorter.records_added();
    if (p.merged > 0) {
      auto sorted = sorter.Finish();
      CCIDX_RETURN_IF_ERROR(sorted.status());
      auto st = Traits::BuildFromSorted(pager_, *sorted, p.merged);
      CCIDX_RETURN_IF_ERROR(st.status());
      p.fresh.emplace(std::move(*st));
      p.pages = txn.pages();
    }
    CCIDX_RETURN_IF_ERROR(txn.Commit());
    return p;
  }

  /// Phase 2: install the prepared rebuild. Call under the *exclusive*
  /// gate epoch. Returns true iff it committed; if any update landed
  /// since PrepareGlobalRebuild (stamp mismatch) the pending pages are
  /// freed instead and the adapter is untouched (the next purge trigger
  /// re-fires). Either way the purge-pending latch is released.
  bool CommitGlobalRebuild(PendingRebuild&& p) {
    std::lock_guard<std::mutex> mg(sy_->merge_mu);
    TxnScope txn(pager_);
    if (p.stamp != sched_.update_stamp()) {
      AbandonGlobalRebuild(std::move(p));  // nested scope folds into txn
      (void)txn.Commit();
      return false;
    }
    InstallLocked(p.level, p.harvested_buffer, std::move(p.fresh),
                  std::move(p.pages), p.merged, p.purged);
    sched_.Reset();
    sy_->purge_pending.store(false, kRlx);
    // Best-effort: a failed commit resolves through the scope's abort
    // protocol, which forces the installed pages and keeps this state.
    (void)txn.Commit();
    return true;
  }

  /// Discards a prepared rebuild: frees its pages by id (no device reads
  /// when no WAL is attached — under one, each free first captures its
  /// before-image) and releases the purge-pending latch.
  void AbandonGlobalRebuild(PendingRebuild&& p) {
    TxnScope txn(pager_);
    for (PageId id : p.pages) {
      (void)pager_->Free(id);
    }
    p.fresh.reset();
    p.pages.clear();
    sy_->purge_pending.store(false, kRlx);
    (void)txn.Commit();
  }

  /// Frees every page of every level — by retained page id, no device
  /// reads, so it succeeds even under active fault injection. Requires
  /// full quiescence.
  Status Destroy() {
    TxnScope txn(pager_);
    Status first = Status::OK();
    for (Level& lv : levels_) {
      for (PageId id : lv.pages) {
        Status s = pager_->Free(id);
        if (!s.ok() && first.ok()) first = s;
      }
      lv = Level{};
    }
    levels_.clear();
    buffer_.clear();
    tombstones_.Clear();
    sy_->stored.store(0, kRlx);
    sy_->buffer_size.store(0, kRlx);
    sy_->purge_pending.store(false, kRlx);
    sched_.Reset();
    if (first.ok()) return txn.Commit();
    return first;
  }

  /// Level-size envelope + per-level structural checks + count agreement.
  /// Requires full quiescence.
  Status CheckInvariants() const {
    // Appends during an in-flight merge may transiently overfill the
    // buffer (bounded by one record per concurrent writer), so the
    // envelope allows 2x; sequential operation never exceeds 1x.
    if (buffer_.size() > static_cast<size_t>(buffer_cap_) * 2) {
      return Status::Corruption("dynamized buffer over capacity");
    }
    uint64_t stored = 0;
    for (size_t i = 0; i < levels_.size(); ++i) {
      const Level& lv = levels_[i];
      if (!lv.st.has_value()) {
        if (lv.count != 0 || !lv.pages.empty()) {
          return Status::Corruption("empty level with residue");
        }
        continue;
      }
      if (lv.count == 0 || lv.count > LevelCapacity(i)) {
        return Status::Corruption("level count outside envelope");
      }
      if (Traits::Size(*lv.st) != lv.count) {
        return Status::Corruption("level structure size mismatch");
      }
      CCIDX_RETURN_IF_ERROR(Traits::Check(*lv.st));
      stored += lv.count;
    }
    if (stored != sy_->stored.load(kRlx)) {
      return Status::Corruption("stored-record accounting mismatch");
    }
    if (tombstones_.size() > stored + buffer_.size()) {
      return Status::Corruption("more tombstones than stored records");
    }
    return Status::OK();
  }

  /// Serializes the resident state — buffer, tombstones, and per-level
  /// descriptors (count, page set, Traits::SaveStructure blob) — for the
  /// WAL meta registry (DESIGN.md §13). Called by the registered meta
  /// provider at every commit; takes the internal latches one at a time
  /// (never nested), so it is safe from any committing thread. Only
  /// traits that define SaveStructure/OpenStructure instantiate this
  /// pair (lazy template members).
  std::vector<uint8_t> SerializeMeta() const {
    WalEncoder enc;
    enc.PutU32(buffer_cap_);
    {
      std::lock_guard<std::mutex> bg(sy_->buffer_mu);
      enc.PutPodVector(buffer_);
    }
    enc.PutPodVector(tombstones_.Snapshot());
    {
      std::shared_lock<std::shared_mutex> lg(sy_->levels_mu);
      enc.PutU64(levels_.size());
      for (const Level& lv : levels_) {
        enc.PutU16(lv.st.has_value() ? 1 : 0);
        if (!lv.st.has_value()) continue;
        enc.PutU64(lv.count);
        enc.PutPodVector(lv.pages);
        enc.PutBlob(Traits::SaveStructure(*lv.st));
      }
    }
    return std::move(enc).Take();
  }

  /// Rebuilds an adapter from a SerializeMeta blob onto WAL-recovered
  /// pages — no device I/O. Requires quiescence (recovery runs solo).
  static Result<Dynamized> AttachMeta(Pager* pager,
                                      std::span<const uint8_t> meta) {
    WalDecoder dec(meta);
    uint32_t cap = dec.GetU32();
    if (!dec.ok() || cap == 0) {
      return Status::Corruption("malformed dynamized meta blob");
    }
    Dynamized out(pager, cap);
    out.buffer_ = dec.GetPodVector<Record>();
    out.sy_->buffer_size.store(out.buffer_.size(), kRlx);
    std::vector<Record> dead = dec.GetPodVector<Record>();
    uint64_t n_levels = dec.GetU64();
    if (!dec.ok()) {
      return Status::Corruption("malformed dynamized meta blob");
    }
    out.EnsureLevels(n_levels);
    uint64_t stored = 0;
    for (size_t i = 0; i < n_levels; ++i) {
      if (dec.GetU16() == 0) continue;
      Level& lv = out.levels_[i];
      lv.count = dec.GetU64();
      lv.pages = dec.GetPodVector<PageId>();
      std::span<const uint8_t> blob = dec.GetBlob();
      if (!dec.ok()) {
        return Status::Corruption("malformed dynamized meta blob");
      }
      auto st = Traits::OpenStructure(pager, blob);
      CCIDX_RETURN_IF_ERROR(st.status());
      lv.st.emplace(std::move(*st));
      stored += lv.count;
    }
    if (!dec.ok() || dec.remaining() != 0) {
      return Status::Corruption("malformed dynamized meta blob");
    }
    out.sy_->stored.store(stored, kRlx);
    // Re-seed the tombstones and the purge accounting they drive.
    for (const Record& r : dead) {
      if (out.tombstones_.Add(r)) out.sched_.NoteDelete();
    }
    return out;
  }

 private:
  static constexpr auto kRlx = std::memory_order_relaxed;

  struct Level {
    std::optional<Structure> st;
    uint64_t count = 0;           // physically stored (incl. tombstoned)
    std::vector<PageId> pages;    // complete page set (scope snapshot)
  };

  // The write-epoch latches + concurrently-read counters, boxed so the
  // adapter stays movable (lock order: merge -> levels -> buffer).
  struct Sync {
    std::mutex merge_mu;
    std::shared_mutex levels_mu;
    std::mutex buffer_mu;
    bool merge_in_flight = false;  // guarded by buffer_mu
    std::atomic<uint64_t> stored{0};       // records in levels
    std::atomic<uint64_t> buffer_size{0};  // mirrors buffer_.size()
    std::atomic<uint64_t> merges{0};
    std::atomic<bool> purge_pending{false};
  };

  uint64_t LevelCapacity(size_t i) const {
    return static_cast<uint64_t>(buffer_cap_) << (i + 1);
  }

  void EnsureLevels(size_t n) {
    if (levels_.size() < n) levels_.resize(n);
  }

  // Forwards verbatim, remembering a kStop so the level fan-out halts.
  class StopLatchSink final : public ResultSink<Record> {
   public:
    explicit StopLatchSink(ResultSink<Record>* inner) : inner_(inner) {}
    SinkState Emit(std::span<const Record> batch) override {
      if (stopped_) return SinkState::kStop;
      SinkState s = inner_->Emit(batch);
      stopped_ = s == SinkState::kStop;
      return s;
    }
    bool stopped() const { return stopped_; }

   private:
    ResultSink<Record>* inner_;
    bool stopped_ = false;
  };

  // Buffer scan + level fan-out into `target`; `stopped()` reports the
  // latched consumer verdict between levels. Read-epoch path: the gate
  // excludes writers, so no latch is taken.
  template <typename Stopped>
  Status QueryThrough(const QueryT& q, ResultSink<Record>* target,
                      Stopped stopped) const {
    SinkEmitter<Record> em(target);
    em.EmitFiltered(std::span<const Record>(buffer_),
                    [&q](const Record& r) { return Traits::Matches(q, r); });
    for (const Level& lv : levels_) {
      if (em.stopped() || stopped()) break;
      if (!lv.st.has_value()) continue;
      CCIDX_RETURN_IF_ERROR(Traits::Run(*lv.st, q, target));
    }
    return Status::OK();
  }

  // Membership probe over the levels. Caller holds levels_mu (shared).
  Status LookupLocked(const Record& r, bool* exists) const {
    *exists = false;
    QueryT probe = Traits::ProbeQuery(r);
    ExactMatchSink<Record> finder(r, exists);
    for (const Level& lv : levels_) {
      if (!lv.st.has_value()) continue;
      CCIDX_RETURN_IF_ERROR(Traits::Run(*lv.st, probe, &finder));
      if (*exists) return Status::OK();
    }
    return Status::OK();
  }

  // Meta-only durability point; see WalMetaCommit (pager.h).
  Status WalCommitPoint() { return WalMetaCommit(pager_); }

  // Routes a purge: through the hook (deduplicated) when one is set,
  // inline otherwise. Caller holds no latch.
  Status TriggerPurge() {
    if (purge_hook_) {
      if (!sy_->purge_pending.exchange(true, kRlx)) purge_hook_();
      return Status::OK();
    }
    return GlobalRebuild();
  }

  // Streams `buf` + levels [0, k] through the tombstone filter into
  // `sorter`; expunged records accumulate in `purged` (applied only
  // after the merge lands). Takes levels_mu shared for the scans.
  template <typename Sorter>
  Status HarvestInto(Sorter* sorter, const std::vector<Record>& buf,
                     size_t k, std::vector<Record>* purged) {
    Status feed = Status::OK();
    for (const Record& r : buf) {
      if (tombstones_.Contains(r)) {
        purged->push_back(r);  // buffered record tombstoned mid-merge
        continue;
      }
      feed = sorter->Add(r);
      if (!feed.ok()) return feed;
    }
    std::shared_lock<std::shared_mutex> lg(sy_->levels_mu);
    for (size_t i = 0; i <= k && i < levels_.size(); ++i) {
      if (!levels_[i].st.has_value()) continue;
      FunctionSink<Record> into_sorter(
          [&](std::span<const Record> batch) -> SinkState {
            for (const Record& r : batch) {
              if (tombstones_.Contains(r)) {
                purged->push_back(r);
                continue;
              }
              feed = sorter->Add(r);
              if (!feed.ok()) return SinkState::kStop;
            }
            return SinkState::kContinue;
          });
      Status s = Traits::Scan(*levels_[i].st, &into_sorter);
      CCIDX_RETURN_IF_ERROR(s);
      CCIDX_RETURN_IF_ERROR(feed);
    }
    return Status::OK();
  }

  // Retires levels [0, k] and the harvested buffer prefix, installs the
  // replacement at level k, and consumes the tombstones the merge
  // expunged. Caller holds merge_mu; takes levels_mu exclusive +
  // buffer_mu for the O(levels) swap.
  void InstallLocked(size_t k, size_t harvested_buffer,
                     std::optional<Structure>&& fresh,
                     std::vector<PageId>&& fresh_pages, uint64_t merged,
                     const std::vector<Record>& purged) {
    std::unique_lock<std::shared_mutex> lg(sy_->levels_mu);
    std::lock_guard<std::mutex> bg(sy_->buffer_mu);
    EnsureLevels(k + 1);
    uint64_t old_total = 0;
    for (size_t i = 0; i <= k; ++i) {
      old_total += levels_[i].count;
      for (PageId id : levels_[i].pages) {
        (void)pager_->Free(id);
      }
      levels_[i] = Level{};
    }
    levels_[k].st = std::move(fresh);
    levels_[k].count = merged;
    levels_[k].pages = std::move(fresh_pages);
    sy_->stored.store(sy_->stored.load(kRlx) - old_total + merged, kRlx);
    size_t cut = std::min(harvested_buffer, buffer_.size());
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<ptrdiff_t>(cut));
    sy_->buffer_size.store(buffer_.size(), kRlx);
    // Consume the expunged tombstones *before* lowering the in-flight
    // flag, still under buffer_mu: once the flag drops, Insert's
    // resurrection fast path may Consume, and it must never win a
    // tombstone whose stored record this install just removed (lost
    // insert). Consume can lose only to a racing resurrection that
    // observed the flag down — then the decrement is not ours to take.
    for (const Record& r : purged) {
      if (tombstones_.Consume(r)) sched_.NoteTombstoneConsumed();
    }
    // Any install (including a plain flush that expunged nothing)
    // restructures the levels and retires a buffer prefix, so a
    // background rebuild prepared before it must not commit.
    sched_.Touch();
    sy_->merge_in_flight = false;
    sy_->merges.fetch_add(1, kRlx);
  }

  // Merges a buffer-prefix snapshot and levels [0, k] into level k,
  // purging tombstoned records. Caller holds merge_mu. Fault-atomic
  // (see file comment): on error the in-flight flag is lowered and the
  // scope rolls the built pages back.
  Status MergeIntoLocked(size_t k, size_t harvest_n) {
    std::vector<Record> buf_copy;
    {
      std::lock_guard<std::mutex> bg(sy_->buffer_mu);
      harvest_n = std::min(harvest_n, buffer_.size());
      buf_copy.assign(buffer_.begin(),
                      buffer_.begin() + static_cast<ptrdiff_t>(harvest_n));
      sy_->merge_in_flight = true;
    }
    struct FlagLower {
      Sync* sy;
      bool armed = true;
      ~FlagLower() {
        if (!armed) return;
        std::lock_guard<std::mutex> bg(sy->buffer_mu);
        sy->merge_in_flight = false;
      }
    } lower{sy_.get()};

    // One txn spans build + install: the fresh pages are txn-allocated
    // (kAlloc only under a WAL), the retired levels' pages free with
    // before-images, and the commit — still under merge_mu, before any
    // later writer can observe the installed level — carries the meta
    // snapshot. A failed build rolls its pages back.
    TxnScope txn(pager_);
    ExternalSorter<Record, typename Traits::BuildLess> sorter(pager_);
    std::vector<Record> purged;
    CCIDX_RETURN_IF_ERROR(HarvestInto(&sorter, buf_copy, k, &purged));

    const uint64_t merged = sorter.records_added();
    std::optional<Structure> fresh;
    std::vector<PageId> fresh_pages;
    if (merged > 0) {
      auto sorted = sorter.Finish();
      CCIDX_RETURN_IF_ERROR(sorted.status());
      auto st = Traits::BuildFromSorted(pager_, *sorted, merged);
      CCIDX_RETURN_IF_ERROR(st.status());
      fresh.emplace(std::move(*st));
      fresh_pages = txn.pages();
    }

    // Point of no return: the replacement is built. InstallLocked
    // retires the old levels by page id (no device reads — cannot fail
    // mid-way), removes the harvested prefix, consumes the expunged
    // tombstones, and lowers the flag.
    lower.armed = false;
    InstallLocked(k, harvest_n, std::move(fresh), std::move(fresh_pages),
                  merged, purged);
    return txn.Commit();
  }

  Status Flush() {
    std::lock_guard<std::mutex> mg(sy_->merge_mu);
    size_t harvest_n;
    {
      std::lock_guard<std::mutex> bg(sy_->buffer_mu);
      // Re-check: another writer's flush may have drained the buffer
      // while this one waited on merge_mu.
      if (buffer_.size() < buffer_cap_) return Status::OK();
      harvest_n = buffer_.size();
    }
    // Level counts are stable under merge_mu (installs hold it).
    uint64_t total = harvest_n;
    size_t k = 0;
    while (true) {
      total += k < levels_.size() ? levels_[k].count : 0;
      if (total <= LevelCapacity(k)) break;
      k++;
    }
    return MergeIntoLocked(k, harvest_n);
  }

  // Global merge-and-purge: everything (buffer + all levels) lands in one
  // level and every expungeable tombstone is consumed.
  Status GlobalRebuild() {
    std::lock_guard<std::mutex> mg(sy_->merge_mu);
    size_t harvest_n;
    {
      std::lock_guard<std::mutex> bg(sy_->buffer_mu);
      harvest_n = buffer_.size();
    }
    uint64_t total = harvest_n + sy_->stored.load(kRlx);
    size_t k = levels_.empty() ? 0 : levels_.size() - 1;
    while (LevelCapacity(k) < total) k++;
    CCIDX_RETURN_IF_ERROR(MergeIntoLocked(k, harvest_n));
    sched_.Reset();
    return Status::OK();
  }

  Pager* pager_;
  uint32_t buffer_cap_;
  std::vector<Record> buffer_;
  std::vector<Level> levels_;
  Tombstones tombstones_;
  RebuildScheduler sched_;
  std::unique_ptr<Sync> sy_;
  std::function<void()> purge_hook_;
};

}  // namespace ccidx

#endif  // CCIDX_DYNAMIC_LOG_METHOD_H_
