#include "ccidx/core/corner_structure.h"

#include <algorithm>

#include "ccidx/core/blocking.h"
#include "ccidx/dynamic/purge_rebuild.h"
#include "ccidx/io/wal.h"

namespace ccidx {

namespace {

// Counts points in the rectangle (xlo, xhi] x [ylo, +inf). Build-time only.
size_t CountInRegion(const std::vector<Point>& pts, Coord xlo_exclusive,
                     Coord xhi, Coord ylo) {
  size_t n = 0;
  for (const Point& p : pts) {
    if (p.x > xlo_exclusive && p.x <= xhi && p.y >= ylo) n++;
  }
  return n;
}

// The explicit answer to a diagonal query at (c, c), sorted descending y.
std::vector<Point> AnswerSet(const std::vector<Point>& pts, Coord c) {
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
  PageIo io(pager);
  const uint32_t cap = io.CapacityFor(sizeof(Point));

  std::sort(points.begin(), points.end(), PointXOrder());

  // Vertical blocking: consecutive runs of `cap` points by x.
  std::vector<VBlockEntry> vblocks;
  std::vector<std::vector<Point>> vdata;
  for (size_t i = 0; i < points.size(); i += cap) {
    size_t end = std::min(points.size(), i + cap);
    std::vector<Point> blk(points.begin() + i, points.begin() + end);
    vblocks.push_back({blk.front().x, blk.back().x, kInvalidPageId});
    vdata.push_back(std::move(blk));
  }
  for (size_t i = 0; i < vdata.size(); ++i) {
    PageId id = pager->Allocate();
    CCIDX_RETURN_IF_ERROR(io.WriteRecords<Point>(id, vdata[i]));
    vblocks[i].page = id;
  }

  // Candidate corners: right boundaries of vertical blocks 0..m-2. The
  // first C* element is the left boundary of the rightmost block, i.e. the
  // boundary between blocks m-2 and m-1 — the rightmost candidate.
  std::vector<CStarEntry> cstar;  // kept in descending x order
  std::vector<PageId> chains_to_store_heads;
  if (vblocks.size() >= 2) {
    auto store = [&](Coord c, uint32_t block_idx) -> Status {
      std::vector<Point> ans = AnswerSet(points, c);
      auto ids = io.WriteChain<Point>(ans);
      CCIDX_RETURN_IF_ERROR(ids.status());
      PageId head = ids->empty() ? kInvalidPageId : ids->front();
      cstar.push_back({c, head, block_idx, 0});
      return Status::OK();
    };
    uint32_t first_idx = static_cast<uint32_t>(vblocks.size()) - 2;
    CCIDX_RETURN_IF_ERROR(store(vblocks[first_idx].xhi, first_idx));

    for (uint32_t i = first_idx; i-- > 0;) {
      Coord c = vblocks[i].xhi;        // candidate c_i (moving down-left)
      Coord cj = cstar.back().x;       // last stored corner (up-right)
      if (c == cj) continue;           // duplicate boundary (x ties)
      // Sets of Fig. 12, as counts:
      //   Omega  = { x <= c,      y >= cj }          (shared output)
      //   Delta+ = { x <= c, c <= y <  cj }          (new, below cj)
      //   Delta- = { c <  x <= cj, y >= cj }         (stored, right of c)
      size_t omega = CountInRegion(points, kCoordMin, c, cj);
      size_t delta_plus = 0;
      for (const Point& p : points) {
        if (p.x <= c && p.y >= c && p.y < cj) delta_plus++;
      }
      size_t delta_minus = CountInRegion(points, c, cj, cj);
      size_t s_i = omega + delta_plus;
      if (delta_minus + delta_plus > s_i) {
        CCIDX_RETURN_IF_ERROR(store(c, i));
      }
    }
  }

  // Persist the two index chains and the header.
  auto vindex = io.WriteChain<VBlockEntry>(vblocks);
  CCIDX_RETURN_IF_ERROR(vindex.status());
  auto cindex = io.WriteChain<CStarEntry>(cstar);
  CCIDX_RETURN_IF_ERROR(cindex.status());

  auto ref = pager->PinNew();
  CCIDX_RETURN_IF_ERROR(ref.status());
  PageId header = ref->id();
  PageWriter w(ref->data());
  Header h{static_cast<uint32_t>(vblocks.size()),
           static_cast<uint32_t>(cstar.size()),
           vindex->empty() ? kInvalidPageId : vindex->front(),
           cindex->empty() ? kInvalidPageId : cindex->front()};
  w.Put(h);
  CCIDX_RETURN_IF_ERROR(ref->Release());
  CornerStructure out(pager, header);
  out.stored_count_ = points.size();
  return out;
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

Status CornerStructure::LoadIndexes(std::vector<VBlockEntry>* vblocks,
                                    std::vector<CStarEntry>* cstar) const {
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  PageIo io(pager_);
  CCIDX_RETURN_IF_ERROR(io.ReadChain<VBlockEntry>(h.vindex_head, vblocks));
  CCIDX_RETURN_IF_ERROR(io.ReadChain<CStarEntry>(h.cstar_head, cstar));
  CCIDX_CHECK(vblocks->size() == h.num_vblocks);
  CCIDX_CHECK(cstar->size() == h.num_cstar);
  return Status::OK();
}

Status CornerStructure::Query(Coord a, SinkEmitter<Point>& em) const {
  if (em.stopped()) return Status::OK();
  std::vector<VBlockEntry> vblocks;
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadIndexes(&vblocks, &cstar));
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
  std::vector<VBlockEntry> vblocks;
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadIndexes(&vblocks, &cstar));
  PageIo io(pager_);
  for (const VBlockEntry& v : vblocks) {
    out->push_back(v.page);
  }
  for (const CStarEntry& c : cstar) {
    if (c.head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.VisitChain(c.head, out));
    }
  }
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  if (h.vindex_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(h.vindex_head, out));
  }
  if (h.cstar_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.VisitChain(h.cstar_head, out));
  }
  out->push_back(header_);
  return Status::OK();
}

Status CornerStructure::CollectPoints(std::vector<Point>* out) const {
  std::vector<VBlockEntry> vblocks;
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadIndexes(&vblocks, &cstar));
  PageIo io(pager_);
  for (const VBlockEntry& v : vblocks) {
    auto next = io.ReadRecords<Point>(v.page, out);
    CCIDX_RETURN_IF_ERROR(next.status());
  }
  return Status::OK();
}

Status CornerStructure::Free() {
  TxnScope txn(pager_);
  std::vector<VBlockEntry> vblocks;
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadIndexes(&vblocks, &cstar));
  PageIo io(pager_);
  for (const VBlockEntry& v : vblocks) {
    CCIDX_RETURN_IF_ERROR(pager_->Free(v.page));
  }
  for (const CStarEntry& c : cstar) {
    if (c.head != kInvalidPageId) {
      CCIDX_RETURN_IF_ERROR(io.FreeChain(c.head));
    }
  }
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  if (h.vindex_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(h.vindex_head));
  }
  if (h.cstar_head != kInvalidPageId) {
    CCIDX_RETURN_IF_ERROR(io.FreeChain(h.cstar_head));
  }
  CCIDX_RETURN_IF_ERROR(pager_->Free(header_));
  return txn.Commit();
}

Result<uint64_t> CornerStructure::CountPages() const {
  std::vector<VBlockEntry> vblocks;
  std::vector<CStarEntry> cstar;
  CCIDX_RETURN_IF_ERROR(LoadIndexes(&vblocks, &cstar));
  PageIo io(pager_);
  uint64_t pages = 1;  // header
  pages += vblocks.size();
  Header h;
  CCIDX_RETURN_IF_ERROR(LoadHeader(&h));
  // Walks a chain counting pages; only the 16-byte header of each page is
  // touched, through a transient pin.
  auto count_chain = [&](PageId id) -> Status {
    while (id != kInvalidPageId) {
      pages++;
      auto ref = pager_->Pin(id);
      CCIDX_RETURN_IF_ERROR(ref.status());
      PageReader pr(ref->data());
      pr.Get<uint32_t>();
      pr.Get<uint32_t>();
      id = pr.Get<uint64_t>();
    }
    return Status::OK();
  };
  // Index chain lengths.
  CCIDX_RETURN_IF_ERROR(count_chain(h.vindex_head));
  CCIDX_RETURN_IF_ERROR(count_chain(h.cstar_head));
  // Explicit answer chains.
  for (const CStarEntry& c : cstar) {
    CCIDX_RETURN_IF_ERROR(count_chain(c.head));
  }
  return pages;
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
