// PurgeRebuild: the shared fault-atomic global-rebuild skeleton of the
// dynamization layer (DESIGN.md §8).
//
// Every dynamized family restores its invariants the same way: (1)
// harvest the stored records and the old structure's page ids strictly
// read-only — a failure here changes nothing; (2) drop the records the
// tombstone set marks dead; (3) build the replacement from the live set
// under a TxnScope — a failure rolls the new pages back and the
// old structure still answers queries; (4) only then retire the old
// pages by id, which needs no device transfer and so cannot fail
// mid-way, consume the expunged tombstones, and reset the rebuild
// scheduler. This header centralizes that sequence so its users —
// AugmentedTree::GlobalPurgeRebuild (both augmented trees),
// CornerStructure::Rebuild and ExternalPst::GlobalRebuild — stay in
// lockstep and the fault-injection suite reasons about one skeleton.
//
// The structure-specific pieces stay with the caller as callables:
//   collect(std::vector<Record>*)  — harvest every stored record
//   visit(std::vector<PageId>*)    — enumerate every old page id
//   build(std::vector<Record>)     — build the replacement from the live
//                                    set and stage the new roots in
//                                    caller locals; runs inside the
//                                    TxnScope, so returning an error
//                                    rolls everything back
// The caller installs the staged roots after PurgeRebuild returns OK
// (ordering relative to the frees is immaterial: both are in-memory /
// free-list-only effects past the commit point).

#ifndef CCIDX_DYNAMIC_PURGE_REBUILD_H_
#define CCIDX_DYNAMIC_PURGE_REBUILD_H_

#include <utility>
#include <vector>

#include "ccidx/dynamic/rebuild.h"
#include "ccidx/dynamic/tombstones.h"
#include "ccidx/io/pager.h"

namespace ccidx {

template <typename Record, typename Hash, typename Collect, typename Visit,
          typename Build>
Status PurgeRebuild(Pager* pager, TombstoneSet<Record, Hash>* tombstones,
                    RebuildScheduler* sched, Collect&& collect, Visit&& visit,
                    Build&& build) {
  // Phase 1: read-only harvest. Nothing is mutated; any failure aborts
  // with the structure intact.
  std::vector<Record> all;
  CCIDX_RETURN_IF_ERROR(collect(&all));
  std::vector<PageId> old_pages;
  CCIDX_RETURN_IF_ERROR(visit(&old_pages));

  // Phase 2: split live from dead. The purged list is kept so only the
  // tombstones actually expunged are consumed below — a tombstone for a
  // record the harvest did not surface (which the update invariants rule
  // out, but the skeleton does not rely on) stays outstanding.
  std::vector<Record> live;
  std::vector<Record> purged;
  live.reserve(all.size());
  for (const Record& r : all) {
    if (tombstones != nullptr && tombstones->Contains(r)) {
      purged.push_back(r);
    } else {
      live.push_back(r);
    }
  }

  // Phase 3: build the replacement under a scope.
  TxnScope txn(pager);
  CCIDX_RETURN_IF_ERROR(build(std::move(live)));
  CCIDX_RETURN_IF_ERROR(txn.Commit());

  // Phase 4: point of no return — retire the old pages by id (free-list
  // only, no device transfer), settle the bookkeeping.
  for (PageId id : old_pages) {
    (void)pager->Free(id);
  }
  if (tombstones != nullptr) {
    for (const Record& r : purged) {
      tombstones->Consume(r);
    }
  }
  if (sched != nullptr) sched->Reset();
  return Status::OK();
}

}  // namespace ccidx

#endif  // CCIDX_DYNAMIC_PURGE_REBUILD_H_
