#include "ccidx/build/point_group.h"

#include <algorithm>
#include <optional>

#include "ccidx/build/run.h"

namespace ccidx {

void TopYSet::Add(const Point& p) {
  if (heap_.size() < limit_) {
    heap_.push_back(p);
    std::push_heap(heap_.begin(), heap_.end(), PointDescYOrder());
    return;
  }
  if (heap_.empty() || !PointYOrder()(heap_.front(), p)) return;
  std::pop_heap(heap_.begin(), heap_.end(), PointDescYOrder());
  heap_.back() = p;
  std::push_heap(heap_.begin(), heap_.end(), PointDescYOrder());
}

std::vector<Point> TopYSet::TakeDescending() {
  std::sort_heap(heap_.begin(), heap_.end(), PointDescYOrder());
  return std::move(heap_);
}

// Builds one group record by record: resident up to `limit` records;
// past that, everything spills to a run and the top `limit` by y is kept
// beside it. The shared writer of FromStream and of every streamed
// partition's children.
class PointGroup::Writer {
 public:
  Writer(Pager* pager, size_t limit) : limit_(limit), top_(limit) {
    g_.pager_ = pager;
    g_.resident_limit_ = limit;
  }

  uint64_t count() const { return g_.count_; }
  Coord last_x() const { return g_.last_x_; }

  // Sizes the resident buffer for an expected `n` records, unless that
  // many would spill anyway.
  void Reserve(uint64_t n) {
    if (n <= limit_) g_.mem_.reserve(n);
  }

  Status Append(const Point& p) {
    if (g_.count_ == 0) g_.first_x_ = p.x;
    g_.last_x_ = p.x;
    g_.count_++;
    if (!run_.has_value()) {
      if (g_.mem_.size() < limit_) {
        g_.mem_.push_back(p);
        return Status::OK();
      }
      // Crossed the resident limit: spill what we have and stream on.
      run_.emplace(g_.pager_);
      for (const Point& q : g_.mem_) top_.Add(q);
      CCIDX_RETURN_IF_ERROR(run_->AppendSpan(g_.mem_));
      g_.mem_.clear();
      g_.mem_.shrink_to_fit();
    }
    top_.Add(p);
    return run_->Append(p);
  }

  Result<PointGroup> Finish() && {
    if (run_.has_value()) {
      auto run = run_->Finish();
      CCIDX_RETURN_IF_ERROR(run.status());
      g_.source_ = std::make_unique<RunReader<Point>>(
          g_.pager_, *run, /*free_consumed=*/true);
      g_.top_ = top_.TakeDescending();
    }
    return std::move(g_);
  }

  // Rejected input: frees whatever was spilled.
  void Discard() {
    if (!run_.has_value()) return;
    auto run = run_->Finish();
    if (run.ok()) (void)FreeRun(g_.pager_, *run);
    run_.reset();
  }

 private:
  size_t limit_;
  TopYSet top_;
  std::optional<RunWriter<Point>> run_;
  PointGroup g_;
};

PointGroup PointGroup::FromVector(std::vector<Point> sorted_by_x) {
  PointGroup g;
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
  Writer writer(pager, resident_limit);
  Point prev{};
  while (true) {
    auto block = sorted_by_x->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Point& p : *block) {
      if (require_above_diagonal && p.y < p.x) {
        writer.Discard();
        return Status::InvalidArgument("points must satisfy y >= x");
      }
      if (writer.count() > 0 && PointXOrder()(p, prev)) {
        writer.Discard();
        return Status::InvalidArgument("point stream not sorted by x");
      }
      prev = p;
      CCIDX_RETURN_IF_ERROR(writer.Append(p));
    }
  }
  return std::move(writer).Finish();
}

Result<std::vector<Point>> PointGroup::TakeAll() && {
  std::vector<Point> out = std::move(mem_);
  if (source_ != nullptr) {
    out.reserve(count_);
    while (true) {
      auto block = source_->Next();
      CCIDX_RETURN_IF_ERROR(block.status());
      if (block->empty()) break;
      out.insert(out.end(), block->begin(), block->end());
    }
    source_.reset();
  }
  count_ = 0;
  return out;
}

Result<std::vector<Point>> PointGroup::PartitionTopY(
    uint32_t keep, uint32_t fanout, SplitMode mode,
    const ChildFn& on_child) && {
  CCIDX_CHECK(keep >= 1 && count_ > keep);
  CCIDX_CHECK(fanout >= 1);
  if (source_ != nullptr && keep > top_.size()) {
    // The writer kept only the top resident_limit_; a larger node set
    // would need a selection scan, which the one-pass path does not have.
    return Status::InvalidArgument(
        "PartitionTopY: keep exceeds the streamed group's resident limit");
  }
  const std::vector<Point> mem = std::move(mem_);
  std::unique_ptr<RecordStream<Point>> source = std::move(source_);
  std::vector<Point> top;
  if (source == nullptr) {
    // In-core: linear-time selection of the top `keep`, then a sort of
    // those alone. PointYOrder is total, so the selected set and its
    // order equal a full sort's prefix. Children stay in core: none
    // exceeds the resident limit this group was written under.
    std::vector<Point> by_y = mem;
    std::nth_element(by_y.begin(), by_y.begin() + (keep - 1), by_y.end(),
                     PointDescYOrder());
    std::sort(by_y.begin(), by_y.begin() + (keep - 1), PointDescYOrder());
    top.assign(by_y.begin(), by_y.begin() + keep);
    source = std::make_unique<SpanStream<Point>>(std::span<const Point>(mem),
                                                 mem.size());
  } else {
    // Streamed: the writer kept the top resident_limit_ set.
    top.assign(top_.begin(), top_.begin() + keep);
    top_ = {};
  }
  const Point cutoff = top.back();
  const uint64_t rest = count_ - keep;
  count_ = 0;

  // One scan distributes the rest (x order preserved). Wants are
  // recomputed per slot from what earlier children actually took, and in
  // kTieFreeX mode a child closes only once the incoming x differs from
  // its last. A child is complete the moment the next one opens, so it
  // goes to `on_child` right then, with the scan paused.
  uint32_t slot = 0;   // next child slot to open
  uint64_t taken = 0;  // records in closed children
  uint64_t want = 0;   // the open child's share
  std::optional<Writer> child;
  auto open_next = [&]() {
    while (slot < fanout) {
      want = (rest - taken) / (fanout - slot);
      if (mode == SplitMode::kTieFreeX && want == 0) want = 1;
      if (want > 0) break;
      slot++;  // kEven: skip zero-want slots
    }
    CCIDX_CHECK(slot < fanout && want > 0);
    slot++;
    child.emplace(pager_, resident_limit_);
    child->Reserve(want);
  };
  auto close = [&]() -> Status {
    taken += child->count();
    auto group = std::move(*child).Finish();
    child.reset();
    CCIDX_RETURN_IF_ERROR(group.status());
    return on_child(std::move(*group));
  };
  while (true) {
    auto block = source->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) break;
    for (const Point& p : *block) {
      if (!PointYOrder()(p, cutoff)) continue;  // selected into `top`
      if (!child.has_value()) {
        open_next();
      } else if (slot < fanout && child->count() >= want &&
                 (mode == SplitMode::kEven || p.x != child->last_x())) {
        CCIDX_RETURN_IF_ERROR(close());
        open_next();
      }
      CCIDX_RETURN_IF_ERROR(child->Append(p));
    }
  }
  if (child.has_value()) {
    CCIDX_RETURN_IF_ERROR(close());
  }
  CCIDX_CHECK(taken == rest);
  return top;
}

namespace {

// A spilled PointSorter's output: owns the sorter, so its runs live
// exactly as long as the group that reads them.
class SorterStream final : public RecordStream<Point> {
 public:
  SorterStream(std::unique_ptr<ExternalSorter<Point, PointXOrder>> sorter,
               RecordStream<Point>* merged)
      : sorter_(std::move(sorter)), merged_(merged) {}

  Result<std::span<const Point>> Next() override { return merged_->Next(); }

 private:
  std::unique_ptr<ExternalSorter<Point, PointXOrder>> sorter_;
  RecordStream<Point>* merged_;
};

}  // namespace

PointSorter::PointSorter(Pager* pager, bool require_above_diagonal)
    : pager_(pager),
      require_above_diagonal_(require_above_diagonal),
      sorter_(std::make_unique<ExternalSorter<Point, PointXOrder>>(pager)),
      top_(sorter_->budget()) {}

Status PointSorter::Add(const Point& p) {
  if (require_above_diagonal_ && p.y < p.x) {
    return Status::InvalidArgument("points must satisfy y >= x");
  }
  if (count_ == 0 || p.x < min_x_) min_x_ = p.x;
  if (count_ == 0 || p.x > max_x_) max_x_ = p.x;
  count_++;
  top_.Add(p);
  return sorter_->Add(p);
}

Status PointSorter::AddStream(RecordStream<Point>* points) {
  while (true) {
    auto block = points->Next();
    CCIDX_RETURN_IF_ERROR(block.status());
    if (block->empty()) return Status::OK();
    for (const Point& p : *block) {
      CCIDX_RETURN_IF_ERROR(Add(p));
    }
  }
}

Result<PointGroup> PointSorter::Finish() && {
  auto merged = sorter_->Finish();
  CCIDX_RETURN_IF_ERROR(merged.status());
  if (sorter_->in_memory()) {
    std::vector<Point> pts;
    pts.reserve(count_);
    while (true) {
      auto block = (*merged)->Next();
      CCIDX_RETURN_IF_ERROR(block.status());
      if (block->empty()) break;
      pts.insert(pts.end(), block->begin(), block->end());
    }
    return PointGroup::FromVector(std::move(pts));
  }
  PointGroup g;
  g.pager_ = pager_;
  g.count_ = count_;
  g.first_x_ = min_x_;
  g.last_x_ = max_x_;
  g.top_ = top_.TakeDescending();
  g.resident_limit_ = sorter_->budget();
  g.source_ = std::make_unique<SorterStream>(std::move(sorter_), *merged);
  return g;
}

Result<PointGroup> SortPointStream(Pager* pager, RecordStream<Point>* points,
                                   bool require_above_diagonal) {
  PointSorter sorter(pager, require_above_diagonal);
  CCIDX_RETURN_IF_ERROR(sorter.AddStream(points));
  return std::move(sorter).Finish();
}

}  // namespace ccidx
