#include "ccidx/build/point_group.h"

#include <algorithm>
#include <memory>
#include <optional>
#include <queue>

#include "ccidx/build/external_sorter.h"

namespace ccidx {

namespace {

// Min-heap on PointYOrder: top() is the smallest of the kept set, i.e.
// the selection cutoff once the heap holds `keep` points.
using MinYHeap =
    std::priority_queue<Point, std::vector<Point>, PointDescYOrder>;

}  // namespace

PointGroup PointGroup::FromVector(std::vector<Point> sorted_by_x) {
  PointGroup g;
  g.resident_ = true;
  g.count_ = sorted_by_x.size();
  if (!sorted_by_x.empty()) {
    g.first_x_ = sorted_by_x.front().x;
    g.last_x_ = sorted_by_x.back().x;
  }
  g.mem_ = std::move(sorted_by_x);
  return g;
}

Result<PointGroup> PointGroup::FromStream(Pager* pager,
                                          RecordStream<Point>* sorted_by_x,
                                          size_t resident_limit,
                                          bool require_above_diagonal) {
  PointGroup g;
  g.pager_ = pager;
  std::optional<RunWriter<Point>> writer;
  Point prev{};
  while (true) {
    auto block = sorted_by_x->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Point& p : *block) {
      if (require_above_diagonal && p.y < p.x) {
        if (writer.has_value()) {
          auto run = writer->Finish();
          if (run.ok()) (void)FreeRun(pager, *run);
        }
        return Status::InvalidArgument("points must satisfy y >= x");
      }
      if (g.count_ > 0 && PointXOrder()(p, prev)) {
        if (writer.has_value()) {
          auto run = writer->Finish();
          if (run.ok()) (void)FreeRun(pager, *run);
        }
        return Status::InvalidArgument("point stream not sorted by x");
      }
      prev = p;
      if (g.count_ == 0) g.first_x_ = p.x;
      g.last_x_ = p.x;
      g.count_++;
      if (!writer.has_value()) {
        if (g.mem_.size() < resident_limit) {
          g.mem_.push_back(p);
          continue;
        }
        // Crossed the resident limit: spill what we have and stream on.
        writer.emplace(pager);
        CCIDX_RETURN_IF_ERROR(writer->AppendSpan(g.mem_));
        g.mem_.clear();
        g.mem_.shrink_to_fit();
      }
      CCIDX_RETURN_IF_ERROR(writer->Append(p));
    }
  }
  if (writer.has_value()) {
    auto run = writer->Finish();
    CCIDX_RETURN_IF_ERROR(run.status());
    g.resident_ = false;
    g.run_ = *run;
  }
  return g;
}

Result<std::vector<Point>> PointGroup::TakeAll() && {
  if (resident_) return std::move(mem_);
  std::vector<Point> out;
  out.reserve(count_);
  RunReader<Point> reader(pager_, run_, /*free_consumed=*/true);
  while (true) {
    auto block = reader.Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    out.insert(out.end(), block->begin(), block->end());
  }
  run_ = SortedRun{};
  count_ = 0;
  return out;
}

Result<PointGroup::Partition> PointGroup::PartitionTopY(uint32_t keep,
                                                        uint32_t fanout,
                                                        SplitMode mode) && {
  CCIDX_CHECK(count_ > keep);
  CCIDX_CHECK(fanout >= 1);
  Partition part;

  if (resident_) {
    // In-core path: linear-time selection of the top `keep`, then a sort
    // of those alone. PointYOrder is total, so the selected set and its
    // order equal a full sort's prefix.
    std::vector<Point> by_y = mem_;
    std::nth_element(by_y.begin(), by_y.begin() + (keep - 1), by_y.end(),
                     PointDescYOrder());
    const Point cutoff = by_y[keep - 1];
    std::sort(by_y.begin(), by_y.begin() + (keep - 1), PointDescYOrder());
    part.top.assign(by_y.begin(), by_y.begin() + keep);
    std::vector<Point> rest;
    rest.reserve(mem_.size() - keep);
    for (const Point& p : mem_) {  // preserves x order
      if (PointYOrder()(p, cutoff)) rest.push_back(p);
    }
    CCIDX_CHECK(rest.size() == mem_.size() - keep);
    size_t taken = 0;
    for (uint32_t i = 0; i < fanout && taken < rest.size(); ++i) {
      size_t want = (rest.size() - taken) / (fanout - i);
      size_t end;
      if (mode == SplitMode::kEven) {
        if (want == 0) continue;
        end = taken + want;
      } else {
        if (want == 0) want = 1;
        end = taken + want;
        while (end < rest.size() && rest[end - 1].x == rest[end].x) end++;
        if (i + 1 == fanout) end = rest.size();
      }
      part.children.push_back(FromVector(
          std::vector<Point>(rest.begin() + taken, rest.begin() + end)));
      taken = end;
    }
    mem_.clear();
    count_ = 0;
    return part;
  }

  // External path. Scan 1: bounded top-k selection by PointYOrder.
  MinYHeap heap;
  {
    RunReader<Point> reader(pager_, run_, /*free_consumed=*/false);
    while (true) {
      auto block = reader.Next();
      CCIDX_RETURN_IF_ERROR(block.status());
      if (block->empty()) break;
      for (const Point& p : *block) {
        heap.push(p);
        if (heap.size() > keep) heap.pop();
      }
    }
  }
  part.top.resize(heap.size());
  for (size_t i = heap.size(); i-- > 0;) {
    part.top[i] = heap.top();  // pop order ascends: fill back to front
    heap.pop();
  }
  const Point cutoff = part.top.back();

  // Scan 2: distribute the rest into per-child runs (x order preserved),
  // freeing input pages behind the cursor. The boundary decisions mirror
  // the resident path record for record: wants are recomputed per slot
  // from what previous children actually consumed, and in kTieFreeX mode
  // a child closes only once the incoming x differs from its last.
  const uint64_t rest_count = count_ - keep;
  struct ChildWriter {
    RunWriter<Point> writer;
    uint64_t want;
    Coord first_x = 0;
    Coord last_x = 0;
    uint64_t written = 0;
    ChildWriter(Pager* pager, uint64_t want) : writer(pager), want(want) {}
  };
  std::vector<std::unique_ptr<ChildWriter>> writers;
  {
    uint32_t slot = 0;      // next child slot to open
    uint64_t taken = 0;     // records consumed by closed children
    auto open_next = [&]() {
      uint64_t want = 0;
      while (slot < fanout) {
        want = (rest_count - taken) / (fanout - slot);
        if (mode == SplitMode::kTieFreeX && want == 0) want = 1;
        if (want > 0) break;
        slot++;  // kEven: skip zero-want slots
      }
      CCIDX_CHECK(slot < fanout && want > 0);
      writers.push_back(std::make_unique<ChildWriter>(pager_, want));
      slot++;
    };
    uint64_t seen = 0;
    RunReader<Point> reader(pager_, run_, /*free_consumed=*/true);
    while (true) {
      auto block = reader.Next();
      CCIDX_RETURN_IF_ERROR(block.status());
      if (block->empty()) break;
      for (const Point& p : *block) {
        if (!PointYOrder()(p, cutoff)) continue;  // selected into `top`
        if (writers.empty()) open_next();
        ChildWriter* cw = writers.back().get();
        if (slot < fanout && cw->written >= cw->want &&
            (mode == SplitMode::kEven || p.x != cw->last_x)) {
          taken += cw->written;
          open_next();
          cw = writers.back().get();
        }
        if (cw->written == 0) cw->first_x = p.x;
        cw->last_x = p.x;
        CCIDX_RETURN_IF_ERROR(cw->writer.Append(p));
        cw->written++;
        seen++;
      }
    }
    CCIDX_CHECK(seen == rest_count);
  }
  for (auto& cw : writers) {
    auto run = cw->writer.Finish();
    CCIDX_RETURN_IF_ERROR(run.status());
    PointGroup g;
    g.pager_ = pager_;
    g.resident_ = false;
    g.run_ = *run;
    g.count_ = run->count;
    g.first_x_ = cw->first_x;
    g.last_x_ = cw->last_x;
    part.children.push_back(std::move(g));
  }
  run_ = SortedRun{};
  count_ = 0;
  return part;
}

Result<PointGroup> SortPointStream(Pager* pager, RecordStream<Point>* points,
                                   bool require_above_diagonal) {
  ExternalSorter<Point, PointXOrder> sorter(pager);
  CCIDX_RETURN_IF_ERROR(sorter.AddStream(points));
  auto merged = sorter.Finish();
  CCIDX_RETURN_IF_ERROR(merged.status());
  return PointGroup::FromStream(pager, *merged, sorter.budget(),
                                require_above_diagonal);
}

}  // namespace ccidx
