// GeneralizedIndex: the generalized one-dimensional index of Section 2.1.
//
// For convex CQLs, each generalized tuple's projection onto the indexed
// variable x is one interval [a, a'] — its fixed-length "generalized key".
// Finding all tuples whose x attribute can satisfy a1 <= x <= a2 is then an
// interval intersection query, which IntervalIndex answers in
// O(log_B n + t/B) I/Os (via Prop. 2.2 and the metablock tree); inserting a
// tuple inserts one interval. This removes the redundancy of the trivial
// solution (conjoining the query constraint to every stored tuple).

#ifndef CCIDX_CONSTRAINT_GENERALIZED_INDEX_H_
#define CCIDX_CONSTRAINT_GENERALIZED_INDEX_H_

#include <memory>
#include <mutex>
#include <vector>

#include "ccidx/constraint/generalized_relation.h"
#include "ccidx/interval/interval_index.h"

namespace ccidx {

/// An index on one variable of a generalized relation. Fully dynamic via
/// the dynamization layer (DESIGN.md §8): inserts are the metablock
/// tree's native amortized path, deletes ride IntervalIndex::Delete
/// (endpoint B+-tree natively, stabbing tree by weak delete + scheduled
/// purge) — amortized O(log_B n + (log_B n)^2/B) I/Os per update.
///
/// Thread safety (DESIGN.md §7/§11): RangeQuery/RangeQueryIds are const
/// and safe to run from any number of threads concurrently over one
/// shared Pager. Insert/Delete serialize on an internal per-structure
/// write latch (the in-memory tuple catalog is rewritten on every
/// update) — N writer threads may call them within a write epoch.
/// Build/Destroy require full quiescence (QueryExecutor::Quiesce).
class GeneralizedIndex {
 public:
  /// Indexes variable `indexed_var` of `arity`-ary tuples.
  GeneralizedIndex(Pager* pager, uint32_t arity, uint32_t indexed_var);

  /// Inserts a satisfiable tuple; its x-projection becomes the generalized
  /// key. Tuple ids must be unique (they key the catalog).
  Status Insert(const GeneralizedTuple& tuple);

  /// Deletes the tuple with the given id (its generalized key is
  /// recomputed from the catalog); sets *found. Amortized
  /// O(log_B n + (log_B n)^2/B) I/Os (see class comment). May return a
  /// non-OK status with *found == true: the delete landed (catalog and
  /// index both updated) but the scheduled purge it triggered failed —
  /// the purge retries on a later update.
  Status Delete(uint64_t tuple_id, bool* found);

  /// Returns the generalized relation representing all stored tuples whose
  /// x attribute admits a value in [a1, a2], each conjoined with
  /// (a1 <= x <= a2) — the operation (i) of Section 2.1.
  Result<GeneralizedRelation> RangeQuery(Coord a1, Coord a2) const;

  /// Streams ids of matching tuples into `sink` (no restriction
  /// materialization); kStop propagates into the interval index, so
  /// count/exists consumers skip the t/B term.
  Status RangeQueryIds(Coord a1, Coord a2, ResultSink<uint64_t>* sink) const;

  uint32_t arity() const { return arity_; }
  uint32_t indexed_var() const { return indexed_var_; }
  uint64_t size() const { return index_.size(); }

 private:
  uint32_t arity_;
  uint32_t indexed_var_;
  IntervalIndex index_;
  // Tuple catalog, addressed by tuple id. The paper's I/O model indexes the
  // generalized keys; tuple bodies are variable-length and kept in an
  // in-memory catalog here (a heap file in a full DBMS).
  std::vector<GeneralizedTuple> catalog_;
  std::vector<size_t> id_to_slot_;
  // Per-structure write latch (boxed so the class stays movable):
  // serializes Insert/Delete within a write epoch (DESIGN.md §11).
  std::unique_ptr<std::mutex> write_mu_ = std::make_unique<std::mutex>();
};

}  // namespace ccidx

#endif  // CCIDX_CONSTRAINT_GENERALIZED_INDEX_H_
