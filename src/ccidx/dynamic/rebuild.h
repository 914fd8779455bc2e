// RebuildScheduler: the shared amortized-rebuild policy of the
// dynamization layer (DESIGN.md §8).
//
// Every dynamized structure in the library restores its invariants the
// same way the paper does (level I/II reorganizations, Lemma 3.6): let
// updates accumulate until they amount to a constant fraction of the
// structure's live weight, then rebuild — the rebuild cost is paid for by
// the Omega(weight) updates since the structure was last built. This
// class centralizes that accounting so every family (the weak-delete
// paths of the augmented trees, ExternalPst, CornerStructure, the
// logarithmic-method adapter, and through them both interval indexes)
// triggers on exactly the same rule and tests can reason about one
// policy.
//
// Two thresholds are tracked:
//   * ShouldRebuild(live)  — total updates (inserts + deletes) since the
//     last rebuild exceed `fraction * live + min_updates`: the structure
//     may have drifted out of its balance envelope.
//   * ShouldPurge(live)    — outstanding weak deletes (tombstones) alone
//     exceed the fraction: dead records threaten the O(n/B) space bound
//     and the t/B output term, so a global rebuild must expunge them.
// `min_updates` keeps tiny structures from rebuilding on every update.
//
// Thread safety: relaxed atomic counters, so N writer threads note their
// updates without coordination (DESIGN.md §11). The thresholds are
// heuristics — a momentarily stale read just shifts a rebuild by O(1)
// updates. update_stamp() gives background rebuilds a cheap staleness
// token: harvest at stamp S, commit only if the stamp is still S. The
// stamp alone is release/acquire — a gateless prepare captures it
// before harvesting, and seeing a bump must imply seeing the update's
// data; the commit-side check is additionally ordered by the exclusive
// gate acquisition.

#ifndef CCIDX_DYNAMIC_REBUILD_H_
#define CCIDX_DYNAMIC_REBUILD_H_

#include <atomic>
#include <cstdint>

namespace ccidx {

/// Amortized rebuild trigger shared by every update path (DESIGN.md §8).
class RebuildScheduler {
 public:
  struct Options {
    /// Updates must exceed fraction_num/fraction_den of the live weight
    /// (integer arithmetic: the historical "half the weight" rule).
    uint64_t fraction_num = 1;
    uint64_t fraction_den = 2;
    /// Constant slack so small structures do not thrash.
    uint64_t min_updates = 16;
  };

  RebuildScheduler() = default;
  explicit RebuildScheduler(Options options) : options_(options) {}
  // Counters are copied relaxed; copying races with updates only at
  // structure-build time, which is single-threaded.
  RebuildScheduler(const RebuildScheduler& o)
      : options_(o.options_),
        updates_(o.updates_.load(kRlx)),
        deletes_(o.deletes_.load(kRlx)),
        stamp_(o.stamp_.load(kRlx)) {}
  RebuildScheduler& operator=(const RebuildScheduler& o) {
    options_ = o.options_;
    updates_.store(o.updates_.load(kRlx), kRlx);
    deletes_.store(o.deletes_.load(kRlx), kRlx);
    stamp_.store(o.stamp_.load(kRlx), kRlx);
    return *this;
  }

  void NoteInsert() {
    updates_.fetch_add(1, kRlx);
    stamp_.fetch_add(1, kRel);
  }
  void NoteDelete() {
    updates_.fetch_add(1, kRlx);
    deletes_.fetch_add(1, kRlx);
    stamp_.fetch_add(1, kRel);
  }
  /// A purge consumed one outstanding tombstone without a rebuild (e.g. a
  /// re-insert resurrected the record, or a partial rebuild expunged it).
  void NoteTombstoneConsumed() {
    // Clamped decrement: concurrent decrements may transiently race the
    // clamp, but the counter is a heuristic and Reset() rebases it.
    uint64_t d = deletes_.load(kRlx);
    while (d > 0 && !deletes_.compare_exchange_weak(d, d - 1, kRlx)) {
    }
    // A resurrection changes liveness, so background rebuilds prepared
    // before it must not commit.
    stamp_.fetch_add(1, kRel);
  }

  /// Bumps the staleness stamp without touching the rebuild counters:
  /// for structural changes (buffer appends, buffer erases) that do not
  /// feed the rebuild heuristics but do invalidate a prepared rebuild.
  void Touch() { stamp_.fetch_add(1, kRel); }

  /// True when total updates since the last rebuild amount to the
  /// configured fraction of the live weight.
  bool ShouldRebuild(uint64_t live_weight) const {
    return Exceeds(updates_.load(kRlx), live_weight);
  }

  /// True when outstanding deletes alone amount to the fraction of the
  /// live weight (space/report bounds require expunging tombstones).
  bool ShouldPurge(uint64_t live_weight) const {
    return Exceeds(deletes_.load(kRlx), live_weight);
  }

  /// Call after a global rebuild: the structure is freshly balanced and
  /// holds no dead records.
  void Reset() {
    updates_.store(0, kRlx);
    deletes_.store(0, kRlx);
    stamp_.fetch_add(1, kRel);
  }

  uint64_t updates_since_rebuild() const { return updates_.load(kRlx); }
  uint64_t deletes_since_rebuild() const { return deletes_.load(kRlx); }
  /// Monotonic staleness token for background rebuilds: bumps on every
  /// noted update and on Reset, never repeats.
  uint64_t update_stamp() const { return stamp_.load(kAcq); }
  const Options& options() const { return options_; }

 private:
  static constexpr auto kRlx = std::memory_order_relaxed;
  static constexpr auto kRel = std::memory_order_release;
  static constexpr auto kAcq = std::memory_order_acquire;

  bool Exceeds(uint64_t count, uint64_t live_weight) const {
    // count > fraction * live + min_updates, in overflow-safe integers.
    return count > options_.min_updates &&
           (count - options_.min_updates) * options_.fraction_den >
               live_weight * options_.fraction_num;
  }

  Options options_;
  std::atomic<uint64_t> updates_{0};
  std::atomic<uint64_t> deletes_{0};
  std::atomic<uint64_t> stamp_{0};
};

}  // namespace ccidx

#endif  // CCIDX_DYNAMIC_REBUILD_H_
