// Shared record<->Interval converters for the interval indexes: both the
// semi-dynamic (metablock) and fully dynamic (PST) compositions store an
// interval [lo, hi] as the planar point (lo, hi) and as the endpoint entry
// (key = lo, aux = hi, value = id). Both also delete the endpoint entry
// through one identity-checked helper.

#ifndef CCIDX_INTERVAL_INTERVAL_CODEC_H_
#define CCIDX_INTERVAL_INTERVAL_CODEC_H_

#include <optional>

#include "ccidx/bptree/bptree.h"
#include "ccidx/core/geometry.h"
#include "ccidx/testutil/oracles.h"  // Interval

namespace ccidx {
namespace internal {

/// A stored point (lo, hi) decodes back to the interval it encodes.
inline std::optional<Interval> PointToInterval(const Point& p) {
  return Interval{p.x, p.y, p.id};
}

/// An endpoint entry (key = lo, aux = hi, value = id) likewise.
inline std::optional<Interval> EntryToInterval(const BtEntry& e) {
  return Interval{e.key, e.aux, e.value};
}

/// Deletes the endpoint entry of `iv` iff `endpoints` stores exactly
/// `iv` (key lo, value id, aux hi); sets *found. The tree identifies an
/// entry by (lo, id) alone, so a delete naming a stored (lo, id) with
/// another hi, or with lo > hi, must find nothing: deleting that entry
/// while the stabbing point (lo, hi, id) was never stored would
/// desynchronize the two components. One read-only probe descent, then
/// the delete.
inline Status DeleteEndpoint(BPlusTree* endpoints, const Interval& iv,
                             bool* found) {
  *found = false;
  if (iv.lo > iv.hi) return Status::OK();
  bool stored = false;
  CCIDX_RETURN_IF_ERROR(
      endpoints->RangeScan(iv.lo, iv.lo, [&](const BtEntry& e) {
        if (e.value == iv.id && e.aux == iv.hi) stored = true;
      }));
  if (!stored) return Status::OK();
  // *found reports a landed delete only: a failed one may have set the
  // tree's flag before its write failed.
  bool deleted = false;
  CCIDX_RETURN_IF_ERROR(endpoints->Delete(iv.lo, iv.id, &deleted));
  if (!deleted) {
    return Status::Corruption("endpoint entry vanished between probe and"
                              " delete");
  }
  *found = true;
  return Status::OK();
}

}  // namespace internal
}  // namespace ccidx

#endif  // CCIDX_INTERVAL_INTERVAL_CODEC_H_
