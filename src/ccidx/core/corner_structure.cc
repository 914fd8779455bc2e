#include "ccidx/core/corner_structure.h"

#include <algorithm>

#include "ccidx/core/blocking.h"
#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"

namespace ccidx {

namespace {

// The explicit answer to a diagonal query at (c, c), sorted descending y.
std::vector<Point> AnswerSet(std::span<const Point> pts, Coord c) {
  std::vector<Point> out;
  for (const Point& p : pts) {
    if (p.x <= c && p.y >= c) out.push_back(p);
  }
  std::sort(out.begin(), out.end(), PointDescYOrder());
  return out;
}

}  // namespace

Result<CornerStructure> CornerStructure::Build(Pager* pager,
                                               std::vector<Point> points) {
  std::sort(points.begin(), points.end(), PointXOrder());
  auto blocking = WriteVerticalBlocking(pager, points);
  CCIDX_RETURN_IF_ERROR(blocking.status());
  auto header = WriteIndex(pager, points, *blocking, /*owns_blocking=*/true);
  CCIDX_RETURN_IF_ERROR(header.status());
  CornerStructure out(pager, *header);
  out.stored_count_ = points.size();
  return out;
}

Result<PageId> CornerStructure::BuildOnBlocking(
    Pager* pager, std::span<const Point> sorted_by_x,
    const VerticalBlocking& blocking) {
  return WriteIndex(pager, sorted_by_x, blocking, /*owns_blocking=*/false);
}

Result<PageId> CornerStructure::WriteIndex(Pager* pager,
                                           std::span<const Point> points,
                                           const VerticalBlocking& blocking,
                                           bool owns_blocking) {
  PageIo io(pager);
  const uint32_t cap = io.CapacityFor(sizeof(Point));

  // C: the right boundary (max x) of each vertical block, which
  // WriteVerticalBlocking cut every `cap` points.
  std::vector<Coord> bound_x;
  for (size_t i = 0; i < points.size(); i += cap) {
    bound_x.push_back(points[std::min(points.size(), i + cap) - 1].x);
  }
  CCIDX_CHECK(bound_x.size() == blocking.num_blocks);

  // Candidate corners: right boundaries of vertical blocks 0..m-2. The
  // first C* element is the left boundary of the rightmost block, i.e. the
  // boundary between blocks m-2 and m-1 — the rightmost candidate.
  std::vector<CStarEntry> cstar;  // kept in descending x order
  if (bound_x.size() >= 2) {
    // Points ascend by x, so { x <= v } is the prefix [0, x_prefix(v)).
    auto x_prefix = [&](Coord v) {
      return static_cast<size_t>(
          std::upper_bound(points.begin(), points.end(), v,
                           [](Coord x, const Point& p) { return x < p.x; }) -
          points.begin());
    };
    // With cj the last stored corner and c the current candidate:
    size_t answer = 0;  // |S*(cj)| = |{ x <= cj, y >= cj }|
    size_t omega = 0;   // |{ x <= c, y >= cj }|
    size_t prefix = 0;  // x_prefix(c)
    auto store = [&](Coord c, uint32_t block_idx) -> Status {
      std::vector<Point> ans = AnswerSet(points, c);
      auto ids = io.WriteChain<Point>(ans);
      CCIDX_RETURN_IF_ERROR(ids.status());
      PageId head = ids->empty() ? kInvalidPageId : ids->front();
      cstar.push_back({c, head, block_idx, 0});
      answer = omega = ans.size();
      prefix = x_prefix(c);
      return Status::OK();
    };
    uint32_t first_idx = static_cast<uint32_t>(bound_x.size()) - 2;
    CCIDX_RETURN_IF_ERROR(store(bound_x[first_idx], first_idx));

    for (uint32_t i = first_idx; i-- > 0;) {
      Coord c = bound_x[i];            // candidate c_i (moving down-left)
      Coord cj = cstar.back().x;       // last stored corner (up-right)
      if (c == cj) continue;           // duplicate boundary (x ties)
      // Points with x in (c, previous candidate] leave Omega for Delta-.
      const size_t end = x_prefix(c);
      for (size_t k = end; k < prefix; ++k) {
        if (points[k].y >= cj) omega--;
      }
      prefix = end;
      // Sets of Fig. 12, as counts:
      //   Omega  = { x <= c,      y >= cj }          (shared output)
      //   Delta+ = { x <= c, c <= y <  cj }          (new, below cj)
      //   Delta- = { c <  x <= cj, y >= cj }         (stored, right of c)
      // Store c_i iff |Delta-| + |Delta+| > |S_i| = |Omega| + |Delta+|,
      // i.e. iff |Delta-| = |S*(cj)| - |Omega| exceeds |Omega|.
      if (answer - omega > omega) {
        CCIDX_RETURN_IF_ERROR(store(c, i));
      }
    }
  }

  // Persist the C* index and the header.
  auto cindex = io.WriteChain<CStarEntry>(cstar);
  CCIDX_RETURN_IF_ERROR(cindex.status());

  auto ref = pager->PinNew();
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageId header = ref->id();
  PageWriter w(ref->data());
  Header h{blocking.num_blocks,
           static_cast<uint32_t>(cstar.size()),
           blocking.index_head,
           cindex->empty() ? kInvalidPageId : cindex->front(),
           owns_blocking ? 1u : 0u,
           0};
  w.Put(h);
  CCIDX_RETURN_IF_ERROR(ref->Release());
  return header;
}

CornerStructure CornerStructure::Open(Pager* pager, PageId header) {
  return CornerStructure(pager, header);
}

Status CornerStructure::LoadHeader(Header* h) const {
  auto ref = pager_->Pin(header_);
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageReader r(ref->data());
  *h = r.Get<Header>();
  return Status::OK();
}

Status CornerStructure::LoadCStar(const Header& h,
                                  std::vector<CStarEntry>* cstar) const {
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(io.ReadChain<CStarEntry>(h.cstar_head, cstar));
  CCIDX_CHECK(cstar->size() == h.num_cstar);
  return Status::OK();
}

Status CornerStructure::LoadBlocking(PageId* index_head, bool* owned) const {
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  *index_head = h.vindex_head;
  *owned = h.owns_blocking != 0;
  return Status::OK();
}

Status CornerStructure::Query(Coord a, SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  std::vector<VerticalBlock> vblocks;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, h.vindex_head, &vblocks));
  CCIDX_CHECK(vblocks.size() == h.num_vblocks);
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadCStar(h, &cstar));
  if (vblocks.empty()) return Status::OK();

  // Largest stored corner <= a (cstar is in descending x order).
  const CStarEntry* clo = nullptr;
  for (const CStarEntry& e : cstar) {
    if (e.x <= a) {
      clo = &e;
      break;
    }
  }

  PageIo io(pager_);

  // Phase 1: the explicit answer at clo covers { x <= clo->x, y >= clo->x };
  // scan its descending-y chain until we pass below the query bottom y = a.
  // Both phases emit straight out of the pinned frames (zero-copy).
  Coord x_covered = kCoordMin;  // phase 2 must report only x > x_covered
  if (clo != nullptr) {
    x_covered = clo->x;
    auto crossed = ScanDescYChain(pager_, clo->head, a, em);
    CCIDX_RETURN_IF_ERROR(crossed.status());
  }

  // Phase 2: vertical blocks covering x in (x_covered, a].
  size_t begin = (clo != nullptr) ? clo->block_idx + 1 : 0;
  for (size_t i = begin;
       i < vblocks.size() && vblocks[i].xlo <= a && !em.stopped(); ++i) {
    auto view = io.ViewRecords<Point>(vblocks[i].page);
    CCIDX_RETURN_IF_ERROR(view.status());
    // x > x_covered as a closed bound; x_covered == kCoordMax would wrap,
    // but then x > x_covered matches nothing — skip the page outright.
    if (x_covered == kCoordMax) break;
    simd::EmitFiltered3Sided(em, view->records, x_covered + 1, a, a);
  }
  return Status::OK();
}

Status CornerStructure::Query(Coord a, ResultSink<Point>* sink) const {
  if (pending_.empty() && tombstones_.empty()) {
    SinkEmitter<Point> em(sink);
    return Query(a, em);
  }
  // Dynamized handle: filter tombstoned points out of the stored
  // structure's output, then overlay the pending buffer (never
  // tombstoned). The emitter-based Query overload stays the static path
  // the enclosing metablock trees drive directly.
  PointLiveFilterSink filter(&tombstones_, sink);
  SinkEmitter<Point> em(&filter);
  CCIDX_RETURN_IF_ERROR(Query(a, em));
  simd::EmitFiltered2Sided(em, std::span<const Point>(pending_), a, a);
  return Status::OK();
}

Status CornerStructure::Insert(const Point& p) {
  CCIDX_CHECK(p.y >= p.x);
  if (tombstones_.Consume(p)) {  // resurrect the stored copy
    sched_.NoteTombstoneConsumed();
    return WalMetaCommit(pager_);
  }
  sched_.NoteInsert();
  pending_.push_back(p);
  const uint32_t b = PageIo(pager_).CapacityFor(sizeof(Point));
  if (pending_.size() >= b) return Rebuild();  // level-I cadence
  return WalMetaCommit(pager_);
}

Status CornerStructure::Delete(const Point& p, bool* found) {
  *found = false;
  for (auto it = pending_.begin(); it != pending_.end(); ++it) {
    if (*it == p) {
      pending_.erase(it);
      *found = true;
      return WalMetaCommit(pager_);
    }
  }
  if (tombstones_.Contains(p)) return Status::OK();  // already dead
  // Membership probe against the stored structure: query at the point's
  // own y and look for the exact record (stops at the first hit).
  bool exists = false;
  ExactMatchSink<Point> finder(p, &exists);
  SinkEmitter<Point> em(&finder);
  CCIDX_RETURN_IF_ERROR(Query(p.y, em));
  if (!exists) return Status::OK();
  tombstones_.Add(p);
  sched_.NoteDelete();
  *found = true;
  // The tombstone commits (meta-only) before any purge opens its own
  // page-writing txn.
  CCIDX_RETURN_IF_ERROR(WalMetaCommit(pager_));
  if (sched_.ShouldPurge(size())) return Rebuild();
  return Status::OK();
}

Status CornerStructure::Rebuild() {
  // Shared fault-atomic skeleton (dynamic/purge_rebuild.h): harvest
  // read-only, drop tombstoned points, build under a scope, retire the
  // old pages by id. The pending buffer joins the live set in the build
  // step (it is never tombstoned).
  // One txn spans build + retire: fresh pages are txn-allocated, the
  // old pages free with before-images, and the commit carries the meta
  // snapshot (header/count/pending) of the replacement.
  TxnScope txn(pager_);
  PageId new_header = kInvalidPageId;
  uint64_t new_count = 0;
  CCIDX_RETURN_IF_ERROR(PurgeRebuild(
      pager_, &tombstones_, &sched_,
      [&](std::vector<Point>* out) { return CollectPoints(out); },
      [&](std::vector<PageId>* out) { return VisitPages(out); },
      [&](std::vector<Point> live) {
        live.insert(live.end(), pending_.begin(), pending_.end());
        new_count = live.size();
        auto fresh = Build(pager_, std::move(live));
        CCIDX_RETURN_IF_ERROR(fresh.status());
        new_header = fresh->header_;
        return Status::OK();
      }));
  header_ = new_header;
  stored_count_ = new_count;
  pending_.clear();
  return txn.Commit();
}

Status CornerStructure::VisitPages(std::vector<PageId>* out) const {
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadCStar(h, &cstar));
  if (h.owns_blocking) {
    CCIDX_RETURN_IF_ERROR(VisitVerticalBlocking(pager_, h.vindex_head, out));
  }
  PageIo io(pager_);
  for (const CStarEntry& c : cstar) {
    if (c.head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.VisitChain(c.head, out));
    }
  }
  if (h.cstar_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(h.cstar_head, out));
  }
  out->push_back(header_);
  return Status::OK();
}

Status CornerStructure::CollectPoints(std::vector<Point>* out) const {
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  if (!h.owns_blocking) return Status::OK();
  std::vector<VerticalBlock> vblocks;
  CCIDX_RETURN_IF_ERROR(ReadVerticalIndex(pager_, h.vindex_head, &vblocks));
  PageIo io(pager_);
  for (const VerticalBlock& v : vblocks) {
    auto next = io.ReadRecords<Point>(v.page, out);
    CCIDX_RETURN_IF_ERROR(next.status());
  }
  return Status::OK();
}

Status CornerStructure::Free() {
  TxnScope txn(pager_);
  std::vector<PageId> pages;
  CCIDX_RETURN_IF_ERROR(VisitPages(&pages));
  for (PageId id : pages) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(id));
  }
  return txn.Commit();
}

Result<uint64_t> CornerStructure::CountPages() const {
  std::vector<PageId> pages;
  CCIDX_RETURN_IF_ERROR(VisitPages(&pages));
  return pages.size();
}

std::vector<uint8_t> CornerStructure::SerializeMeta() const {
  WalEncoder enc;
  enc.PutU64(header_);
  enc.PutU64(stored_count_);
  enc.PutPodVector(pending_);
  enc.PutPodVector(tombstones_.Snapshot());
  return std::move(enc).Take();
}

Result<CornerStructure> CornerStructure::AttachMeta(
    Pager* pager, std::span<const uint8_t> meta) {
  WalDecoder dec(meta);
  PageId header = dec.GetU64();
  uint64_t stored = dec.GetU64();
  std::vector<Point> pending = dec.GetPodVector<Point>();
  std::vector<Point> dead = dec.GetPodVector<Point>();
  if (!dec.ok() || dec.remaining() != 0) {
    return Status::Corruption("malformed corner-structure meta blob");
  }
  CornerStructure out(pager, header);
  out.stored_count_ = stored;
  out.pending_ = std::move(pending);
  // Re-seed the tombstones and the purge accounting they drive.
  for (const Point& p : dead) {
    if (out.tombstones_.Add(p)) out.sched_.NoteDelete();
  }
  return out;
}

}  // namespace ccidx
