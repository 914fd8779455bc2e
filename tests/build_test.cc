// Tests for the external bulk-build pipeline (DESIGN.md §6): the
// ExternalSorter's ordering / memory-budget / I/O-bound guarantees, the
// PointGroup resident / run-backed / sorter-fed partition equivalence,
// FoldTopK and the resident partition against full-sort references,
// stream-build == vector-build structural and query equivalence for every
// migrated index family, the one-pass builds' read counts and pool
// floor, streaming-generator determinism, and fault-atomicity of sort +
// build (clean Status, no leaked pages) at every device transfer.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <random>
#include <string>
#include <thread>
#include <type_traits>

#include "ccidx/build/external_sorter.h"
#include "ccidx/build/point_group.h"
#include "ccidx/classes/baselines.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/blocking.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/dynamic_interval_index.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 8;
constexpr Coord kDomain = 50000;

class BuildTest : public ::testing::Test {
 protected:
  BuildTest() : dev_(PageSizeForBranching(kB)), pager_(&dev_, 0) {}

  BlockDevice dev_;
  Pager pager_;
};

std::vector<Point> Collect(RecordStream<Point>* s) {
  std::vector<Point> out;
  while (true) {
    auto block = s->Next();
    EXPECT_TRUE(block.ok());
    if (block->empty()) break;
    out.insert(out.end(), block->begin(), block->end());
  }
  return out;
}

// ---------------------------------------------------------------------------
// ExternalSorter
// ---------------------------------------------------------------------------

TEST_F(BuildTest, SorterMatchesStdSortAndHonorsBudget) {
  const size_t n = 20000;
  const size_t budget = 512;
  auto pts = RandomPointsAboveDiagonal(n, kDomain, 11);
  TxnScope scope(&pager_);
  ExternalSorter<Point, PointXOrder> sorter(&pager_, PointXOrder(),
                                            {.memory_budget_records = budget});
  ASSERT_TRUE(sorter.AddSpan(pts).ok());
  auto out = sorter.Finish();
  ASSERT_TRUE(out.ok());
  std::vector<Point> sorted = Collect(*out);
  std::sort(pts.begin(), pts.end(), PointXOrder());
  EXPECT_EQ(sorted, pts);
  // The configured in-memory budget is a hard ceiling.
  EXPECT_LE(sorter.high_water_records(), budget);
  EXPECT_GT(sorter.runs_created(), 1u);  // it really spilled
  EXPECT_FALSE(sorter.in_memory());
  ASSERT_TRUE(scope.Commit().ok());
  // Run pages were freed as the merge consumed them.
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST_F(BuildTest, SorterSmallInputStaysInMemory) {
  auto pts = RandomPointsAboveDiagonal(32, kDomain, 12);
  ExternalSorter<Point, PointXOrder> sorter(&pager_);
  ASSERT_TRUE(sorter.AddSpan(pts).ok());
  auto out = sorter.Finish();
  ASSERT_TRUE(out.ok());
  std::vector<Point> sorted = Collect(*out);
  EXPECT_TRUE(sorter.in_memory());
  EXPECT_EQ(sorted.size(), 32u);
  EXPECT_EQ(dev_.stats().TotalIos(), 0u);  // never touched the device
}

TEST_F(BuildTest, SorterExactBudgetBoundaryStaysInMemory) {
  // Boundary-value regression: an input of EXACTLY the record budget must
  // take the in-memory fast path. The historical eager spill (`>=` after
  // the push) staged the boundary input twice — a full device run plus
  // the merge machinery — double-counting the staging work for an input
  // that never needed the device at all.
  const size_t budget = 512;
  auto pts = RandomPointsAboveDiagonal(budget, kDomain, 14);
  ExternalSorter<Point, PointXOrder> sorter(&pager_, PointXOrder(),
                                            {.memory_budget_records = budget});
  ASSERT_TRUE(sorter.AddSpan(pts).ok());
  auto out = sorter.Finish();
  ASSERT_TRUE(out.ok());
  std::vector<Point> sorted = Collect(*out);
  std::sort(pts.begin(), pts.end(), PointXOrder());
  EXPECT_EQ(sorted, pts);
  EXPECT_TRUE(sorter.in_memory());
  EXPECT_EQ(sorter.runs_created(), 0u);
  // The buffer held exactly the budget — no merge-phase inflation.
  EXPECT_EQ(sorter.high_water_records(), budget);
  EXPECT_EQ(dev_.stats().TotalIos(), 0u);  // never touched the device
}

TEST_F(BuildTest, SorterOneOverBudgetSpills) {
  // One past the boundary: the sorter must spill, and the budget remains
  // a hard ceiling on resident records.
  const size_t budget = 512;
  auto pts = RandomPointsAboveDiagonal(budget + 1, kDomain, 15);
  TxnScope scope(&pager_);
  ExternalSorter<Point, PointXOrder> sorter(&pager_, PointXOrder(),
                                            {.memory_budget_records = budget});
  ASSERT_TRUE(sorter.AddSpan(pts).ok());
  auto out = sorter.Finish();
  ASSERT_TRUE(out.ok());
  std::vector<Point> sorted = Collect(*out);
  std::sort(pts.begin(), pts.end(), PointXOrder());
  EXPECT_EQ(sorted, pts);
  EXPECT_FALSE(sorter.in_memory());
  // The full-buffer spill plus Finish()'s one-record remainder run.
  EXPECT_EQ(sorter.runs_created(), 2u);
  EXPECT_LE(sorter.high_water_records(), budget);
  EXPECT_GT(dev_.stats().TotalIos(), 0u);
  ASSERT_TRUE(scope.Commit().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);  // free-behind reclaimed the run
}

TEST_F(BuildTest, SorterIoWithinSortBound) {
  // O((n/B) log_{M/B}(n/B)) I/Os: every record is written and read once
  // per merge level, run formation included.
  const size_t n = 40000;
  const size_t budget = 256;  // force several merge steps
  TxnScope scope(&pager_);
  ExternalSorter<Point, PointXOrder> sorter(&pager_, PointXOrder(),
                                            {.memory_budget_records = budget});
  PointStream in(PointStream::Shape::kAboveDiagonal, n, kDomain, 13);
  ASSERT_TRUE(sorter.AddStream(&in).ok());
  auto out = sorter.Finish();
  ASSERT_TRUE(out.ok());
  std::vector<Point> sorted = Collect(*out);
  ASSERT_EQ(sorted.size(), n);
  double n_over_b = static_cast<double>(n) / kB;
  double runs = std::ceil(static_cast<double>(n) / budget);
  double levels =
      1.0 + std::ceil(std::log(runs) /
                      std::log(static_cast<double>(sorter.fanin())));
  // <= 2 transfers (1 write + 1 read) per record-page per level, plus
  // slack for partial tail pages of runs.
  double bound = 2.0 * n_over_b * levels + 4.0 * runs * levels;
  EXPECT_LE(static_cast<double>(dev_.stats().TotalIos()), bound);
  ASSERT_TRUE(scope.Commit().ok());
  EXPECT_EQ(dev_.live_pages(), 0u);
}

// One cold merge of `kWays` runs through a cached pager over a
// latency-injecting mem device (so speculation is live unless
// CCIDX_PREFETCH=0 turns it off for this pager).
struct ColdMerge {
  std::vector<Point> out;
  IoStats io;
  uint64_t warmed = 0;  // prefetches_issued()
  uint64_t live_after = 0;
};

ColdMerge RunColdMerge(const std::vector<std::vector<Point>>& runs,
                       bool speculate) {
  const char* old = std::getenv("CCIDX_PREFETCH");
  std::string saved = old != nullptr ? old : "";
  setenv("CCIDX_PREFETCH", speculate ? "1" : "0", 1);
  BlockDevice dev(PageSizeForBranching(kB), {"mem", "", 20});
  Pager pager(&dev, 128);
  if (old != nullptr) {
    setenv("CCIDX_PREFETCH", saved.c_str(), 1);
  } else {
    unsetenv("CCIDX_PREFETCH");
  }
  EXPECT_EQ(pager.speculation_budget() > 0, speculate);

  std::vector<SortedRun> sorted_runs;
  for (const std::vector<Point>& run : runs) {
    RunWriter<Point> writer(&pager);
    EXPECT_TRUE(writer.AppendSpan(run).ok());
    auto done = writer.Finish();
    EXPECT_TRUE(done.ok());
    sorted_runs.push_back(*done);
  }
  // Evict every run page: the merge must read them all from the device.
  EXPECT_TRUE(pager.DropCache().ok());
  pager.ResetStats();

  ColdMerge result;
  {
    MergeStream<Point, PointXOrder> merge(&pager, std::move(sorted_runs),
                                          PointXOrder(), 16);
    result.out = Collect(&merge);
  }
  result.io = dev.stats();
  result.warmed = pager.prefetches_issued();
  result.live_after = dev.live_pages();
  return result;
}

TEST_F(BuildTest, MergeWarmsEveryWaysNextPageInOneRound) {
  // Fan-in 8, ten pages per run, keys interleaved at random across runs,
  // so the ways cross pages at about the same rate.
  constexpr size_t kWays = 8;
  constexpr size_t kPerRun = 10 * kB;
  auto pts = RandomPointsAboveDiagonal(kWays * kPerRun, kDomain, 21);
  std::vector<std::vector<Point>> runs(kWays);
  for (size_t i = 0; i < pts.size(); ++i) runs[i % kWays].push_back(pts[i]);
  for (auto& run : runs) std::sort(run.begin(), run.end(), PointXOrder());

  ColdMerge serial = RunColdMerge(runs, /*speculate=*/false);
  ColdMerge warm = RunColdMerge(runs, /*speculate=*/true);

  std::sort(pts.begin(), pts.end(), PointXOrder());
  EXPECT_EQ(serial.out, pts);
  EXPECT_EQ(warm.out, serial.out);
  // Warming only front-loads reads the merge performs anyway: every run
  // page is read exactly once either way.
  EXPECT_EQ(serial.io.device_reads, kWays * kPerRun / kB);
  EXPECT_EQ(warm.io.device_reads, serial.io.device_reads);
  EXPECT_EQ(serial.warmed, 0u);
  EXPECT_EQ(serial.io.read_batches, 0u);  // one dependent Pin per page
  // Every page arrives through a warm round, and the rounds are shared:
  // a way's page crossing also loads the other ways' next pages (about
  // one round per page of a run here, 11-13 for these 80 reads).
  EXPECT_EQ(warm.warmed, warm.io.device_reads);
  EXPECT_LE(warm.io.read_batches, warm.io.device_reads / 4);
  // Free-behind still reclaims every consumed run page.
  EXPECT_EQ(serial.live_after, 0u);
  EXPECT_EQ(warm.live_after, 0u);
}

// ---------------------------------------------------------------------------
// TxnScope allocation tracking
// ---------------------------------------------------------------------------

std::vector<PageId> SortedPages(const TxnScope& scope) {
  std::vector<PageId> ids = scope.pages();
  std::sort(ids.begin(), ids.end());
  return ids;
}

TEST_F(BuildTest, TxnScopePagesTrackEveryDepth) {
  {
    TxnScope outer(&pager_);
    const PageId a = pager_.Allocate();
    PageId b, c;
    {
      TxnScope mid(&pager_);
      b = pager_.Allocate();
      {
        TxnScope inner(&pager_);
        c = pager_.Allocate();
        EXPECT_EQ(SortedPages(inner), std::vector<PageId>({c}));
        EXPECT_EQ(SortedPages(mid), std::vector<PageId>({b}));
        EXPECT_EQ(SortedPages(outer), std::vector<PageId>({a}));
        ASSERT_TRUE(inner.Commit().ok());
        // The fold happens when the scope ends, not at Commit().
        EXPECT_EQ(SortedPages(inner), std::vector<PageId>({c}));
      }
      EXPECT_EQ(SortedPages(mid), std::vector<PageId>({b, c}));
      {
        TxnScope rolled_back(&pager_);
        const PageId d = pager_.Allocate();
        EXPECT_EQ(SortedPages(rolled_back), std::vector<PageId>({d}));
      }  // uncommitted: d is freed and nothing folds
      EXPECT_EQ(SortedPages(mid), std::vector<PageId>({b, c}));
      EXPECT_EQ(dev_.live_pages(), 3u);
      ASSERT_TRUE(mid.Commit().ok());
    }
    EXPECT_EQ(SortedPages(outer), std::vector<PageId>({a, b, c}));
    ASSERT_TRUE(pager_.Free(b).ok());  // a free leaves the recorded set
    EXPECT_EQ(SortedPages(outer), std::vector<PageId>({a, c}));
  }  // the uncommitted outermost scope rolls a and c back
  EXPECT_EQ(dev_.live_pages(), 0u);
}

TEST_F(BuildTest, TxnScopeForgetsPagesFreedOnAnotherThread) {
  PageId a, reused;
  {
    TxnScope scope(&pager_);
    a = pager_.Allocate();
    const PageId b = pager_.Allocate();
    // Another thread frees `a` and, outside any scope, takes the id back
    // from the allocator: the page now belongs to someone else.
    std::thread([&] {
      ASSERT_TRUE(pager_.Free(a).ok());
      reused = pager_.Allocate();
    }).join();
    EXPECT_EQ(scope.pages(), std::vector<PageId>({b}));
  }  // rollback frees b only
  ASSERT_EQ(reused, a);
  EXPECT_TRUE(dev_.is_live(reused))
      << "rollback freed a page its scope no longer owns";
  EXPECT_EQ(dev_.live_pages(), 1u);
}

// ---------------------------------------------------------------------------
// PointGroup
// ---------------------------------------------------------------------------

// Tie-heavy points: few distinct x and y values, and repeated (x, y)
// pairs that differ only in id, so every comparison level of PointYOrder
// decides some selection.
std::vector<Point> TiedPoints(size_t n, uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Point> pts;
  for (size_t i = 0; i < n; ++i) {
    Point p{static_cast<Coord>(rng() % 17), static_cast<Coord>(rng() % 5),
            i};
    pts.push_back(p);
    if (rng() % 4 == 0) pts.push_back({p.x, p.y, p.id + n});
  }
  return pts;
}

TEST(FoldTopKTest, MatchesSortAndTruncateOfTheUnion) {
  for (uint32_t seed = 1; seed <= 20; ++seed) {
    std::vector<Point> pts = TiedPoints(300, seed);
    for (size_t k : {size_t{1}, size_t{kB * kB}, pts.size() + 7}) {
      // Fold uneven chunks (some empty) in input order.
      std::vector<Point> top;
      std::mt19937_64 rng(seed * 31 + k);
      for (size_t i = 0; i < pts.size();) {
        size_t len = std::min<size_t>(rng() % 40, pts.size() - i);
        FoldTopK(&top, std::span<const Point>(pts).subspan(i, len), k);
        ASSERT_LE(top.size(), k);
        ASSERT_TRUE(std::is_sorted(top.begin(), top.end(), PointDescYOrder()));
        i += len;
      }
      std::vector<Point> want = pts;
      std::sort(want.begin(), want.end(), PointDescYOrder());
      if (want.size() > k) want.resize(k);
      EXPECT_EQ(top, want) << "seed " << seed << " k " << k;
    }
  }
}

// One partition as its callback saw it.
struct Partitioned {
  std::vector<Point> top;
  std::vector<std::vector<Point>> children;
  std::vector<std::pair<Coord, Coord>> spans;  // each child's first/last x
  std::vector<bool> resident;
};

Partitioned PartitionOf(PointGroup group, uint32_t keep, uint32_t fanout,
                        PointGroup::SplitMode mode) {
  Partitioned out;
  auto top = std::move(group).PartitionTopY(
      keep, fanout, mode, [&](PointGroup child) -> Status {
        out.spans.emplace_back(child.first_x(), child.last_x());
        out.resident.push_back(child.resident());
        auto all = std::move(child).TakeAll();
        CCIDX_RETURN_IF_ERROR(all.status());
        out.children.push_back(std::move(*all));
        return Status::OK();
      });
  EXPECT_TRUE(top.ok()) << top.status().ToString();
  if (top.ok()) out.top = std::move(*top);
  return out;
}

// The whole partition tree of a group, in pre-order: each node's top
// set, then each child's x span and, for a child of at most `keep`
// points, its contents; larger children are partitioned in turn, so a
// spilled child's own top set is checked too.
Status Flatten(PointGroup group, uint32_t keep, uint32_t fanout,
               PointGroup::SplitMode mode, std::vector<Point>* out) {
  auto top = std::move(group).PartitionTopY(
      keep, fanout, mode, [&](PointGroup child) -> Status {
        out->push_back({child.first_x(), child.last_x(), child.size()});
        if (child.size() > keep) {
          return Flatten(std::move(child), keep, fanout, mode, out);
        }
        auto all = std::move(child).TakeAll();
        CCIDX_RETURN_IF_ERROR(all.status());
        out->insert(out->end(), all->begin(), all->end());
        return Status::OK();
      });
  CCIDX_RETURN_IF_ERROR(top.status());
  out->insert(out->end(), top->begin(), top->end());
  return Status::OK();
}

// A group is written three ways: resident (FromVector), run-backed
// (FromStream past its resident limit) and sorter-fed (PointSorter over
// shuffled input). All three give the same top set and the same child
// boundaries and contents, and hand the children over in x order; the
// resident one also matches a full-sort reference. Children of at most
// the limit stay resident, larger ones spill. Recursing into the
// children, the three partition trees are identical as well. A node set
// above the limit (keep = n - 1) is resident-only: the spilled groups
// kept just their top B^2 and refuse it.
TEST_F(BuildTest, PointGroupRepresentationsPartitionIdentically) {
  const uint32_t b2 = kB * kB;
  // The PST's `keep`: a 48-byte node header, then points.
  const uint32_t cap = (PageSizeForBranching(kB) - 48) / sizeof(Point);
  ASSERT_GE(cap, 1u);
  auto no_children = [](PointGroup) { return Status::OK(); };

  // `pts` sorted by x; `shuffled` the same points in another order.
  auto check = [&](const std::vector<Point>& pts,
                   const std::vector<Point>& shuffled, uint32_t keep,
                   uint32_t fanout, PointGroup::SplitMode mode) {
    SCOPED_TRACE("n " + std::to_string(pts.size()) + " keep " +
                 std::to_string(keep) + " fanout " + std::to_string(fanout) +
                 " mode " + std::to_string(static_cast<int>(mode)));
    ASSERT_GT(pts.size(), b2);
    const Partitioned res =
        PartitionOf(PointGroup::FromVector(pts), keep, fanout, mode);

    std::vector<Point> by_y = pts;
    std::sort(by_y.begin(), by_y.end(), PointDescYOrder());
    EXPECT_EQ(res.top, std::vector<Point>(by_y.begin(), by_y.begin() + keep));
    std::vector<Point> rest;
    for (const Point& p : pts) {
      if (PointYOrder()(p, by_y[keep - 1])) rest.push_back(p);
    }
    ASSERT_LE(res.children.size(), fanout);
    std::vector<Point> joined;
    for (size_t i = 0; i < res.children.size(); ++i) {
      const std::vector<Point>& c = res.children[i];
      ASSERT_FALSE(c.empty());
      EXPECT_TRUE(res.resident[i]);
      EXPECT_EQ(res.spans[i], std::make_pair(c.front().x, c.back().x));
      if (mode == PointGroup::SplitMode::kTieFreeX && i > 0) {
        EXPECT_NE(joined.back().x, c.front().x)
            << "tie-free split separated an equal-x run";
      }
      joined.insert(joined.end(), c.begin(), c.end());
    }
    EXPECT_EQ(joined, rest) << "children not the rest in x order";

    if (keep > b2) {
      {
        TxnScope scope(&pager_);  // never committed: rolls the runs back
        SpanStream<Point> stream(pts);
        auto run_group = PointGroup::FromStream(&pager_, &stream, b2, false);
        ASSERT_TRUE(run_group.ok());
        ASSERT_FALSE(run_group->resident());
        auto top = std::move(*run_group)
                       .PartitionTopY(keep, fanout, mode, no_children);
        EXPECT_EQ(top.status().code(), StatusCode::kInvalidArgument);
        PointSorter sorter(&pager_, /*require_above_diagonal=*/false);
        for (const Point& p : shuffled) ASSERT_TRUE(sorter.Add(p).ok());
        auto fed_group = std::move(sorter).Finish();
        ASSERT_TRUE(fed_group.ok());
        ASSERT_FALSE(fed_group->resident());
        top = std::move(*fed_group)
                  .PartitionTopY(keep, fanout, mode, no_children);
        EXPECT_EQ(top.status().code(), StatusCode::kInvalidArgument);
      }
      EXPECT_EQ(dev_.live_pages(), 0u);
      return;
    }

    TxnScope scope(&pager_);
    SpanStream<Point> stream(pts);
    auto run_group = PointGroup::FromStream(&pager_, &stream, b2, false);
    ASSERT_TRUE(run_group.ok());
    ASSERT_FALSE(run_group->resident());
    const Partitioned run =
        PartitionOf(std::move(*run_group), keep, fanout, mode);
    PointSorter sorter(&pager_, /*require_above_diagonal=*/false);
    for (const Point& p : shuffled) ASSERT_TRUE(sorter.Add(p).ok());
    auto fed_group = std::move(sorter).Finish();
    ASSERT_TRUE(fed_group.ok());
    ASSERT_FALSE(fed_group->resident());
    const Partitioned fed =
        PartitionOf(std::move(*fed_group), keep, fanout, mode);
    for (const Partitioned* p : {&run, &fed}) {
      EXPECT_EQ(p->top, res.top);
      EXPECT_EQ(p->spans, res.spans);
      EXPECT_EQ(p->children, res.children);
      for (size_t i = 0; i < p->children.size(); ++i) {
        EXPECT_EQ(p->resident[i], p->children[i].size() <= b2);
      }
    }

    std::vector<Point> res_tree, run_tree, fed_tree;
    ASSERT_TRUE(
        Flatten(PointGroup::FromVector(pts), keep, fanout, mode, &res_tree)
            .ok());
    SpanStream<Point> again(pts);
    auto run_root = PointGroup::FromStream(&pager_, &again, b2, false);
    ASSERT_TRUE(run_root.ok());
    ASSERT_TRUE(
        Flatten(std::move(*run_root), keep, fanout, mode, &run_tree).ok());
    SpanStream<Point> unsorted(shuffled);
    auto fed_root = SortPointStream(&pager_, &unsorted, false);
    ASSERT_TRUE(fed_root.ok());
    ASSERT_TRUE(
        Flatten(std::move(*fed_root), keep, fanout, mode, &fed_tree).ok());
    EXPECT_EQ(run_tree, res_tree);
    EXPECT_EQ(fed_tree, res_tree);
    ASSERT_TRUE(scope.Commit().ok());
    EXPECT_EQ(dev_.live_pages(), 0u);
  };

  for (auto mode : {PointGroup::SplitMode::kEven,
                    PointGroup::SplitMode::kTieFreeX}) {
    for (uint32_t seed = 1; seed <= 6; ++seed) {
      // Heavy x ties: 17 distinct x (ties broken by x put every top set
      // at the end of its group), or random points in a 300-wide square.
      std::vector<Point> pts = seed % 2 == 1 ? TiedPoints(900, seed)
                                             : RandomPoints(1000, 300, seed);
      std::sort(pts.begin(), pts.end(), PointXOrder());
      std::vector<Point> shuffled = pts;
      std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937_64(seed));
      const uint32_t all_but_one = static_cast<uint32_t>(pts.size() - 1);
      for (uint32_t keep : {1u, cap, b2, all_but_one}) {
        for (uint32_t fanout : {2u, kB, 3 * kB}) {
          check(pts, shuffled, keep, fanout, mode);
        }
      }

      // Just past the limit: after a B^2 node set the rest is below the
      // fan-out, so kEven skips zero-want slots, kTieFreeX opens one-point
      // children, and a one-point rest makes a single child.
      for (uint32_t r : {1u, 3u, 7u}) {
        std::vector<Point> small = TiedPoints(2 * b2, seed + 10 * r);
        small.resize(b2 + r);
        std::sort(small.begin(), small.end(), PointXOrder());
        std::vector<Point> small_shuffled = small;
        std::shuffle(small_shuffled.begin(), small_shuffled.end(),
                     std::mt19937_64(seed));
        for (uint32_t keep : {1u, b2, b2 + r - 1}) {
          for (uint32_t fanout : {2u, kB, 3 * kB}) {
            check(small, small_shuffled, keep, fanout, mode);
          }
        }
      }
    }
  }
}

TEST_F(BuildTest, PointGroupRejectsUnsortedAndBelowDiagonal) {
  std::vector<Point> bad = {{5, 9, 0}, {3, 7, 1}};
  SpanStream<Point> s1(bad);
  EXPECT_FALSE(PointGroup::FromStream(&pager_, &s1, 1024, false).ok());
  std::vector<Point> below = {{5, 3, 0}};
  SpanStream<Point> s2(below);
  EXPECT_FALSE(PointGroup::FromStream(&pager_, &s2, 1024, true).ok());
  EXPECT_TRUE(PointGroup::FromStream(&pager_, &s2, 1024, false).ok());
}

// ---------------------------------------------------------------------------
// Stream-build == vector-build equivalence, per family
// ---------------------------------------------------------------------------

TEST_F(BuildTest, MetablockStreamBuildEqualsVectorBuild) {
  const size_t n = 12 * kB * kB;
  auto pts = RandomPointsAboveDiagonal(n, kDomain, 15);
  auto by_vector = MetablockTree::Build(&pager_, pts);
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  PointStream stream(PointStream::Shape::kAboveDiagonal, n, kDomain, 15,
                     /*block_records=*/97);
  auto by_stream = MetablockTree::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  EXPECT_EQ(by_stream->size(), n);
  ASSERT_TRUE(by_stream->CheckInvariants().ok());
  // Identical partitions => identical structures => identical space.
  EXPECT_EQ(dev_.live_pages(), dev2.live_pages());
  for (Coord a = 0; a < kDomain; a += kDomain / 23) {
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(by_vector->Query({a}, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(by_stream->Query({a}, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << "a=" << a;
  }
}

TEST_F(BuildTest, AugmentedMetablockStreamBuildEqualsVectorBuild) {
  const size_t n = 10 * kB * kB;
  auto pts = RandomPointsAboveDiagonal(n, kDomain, 16);
  auto by_vector = AugmentedMetablockTree::Build(&pager_, pts);
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  PointStream stream(PointStream::Shape::kAboveDiagonal, n, kDomain, 16, 64);
  auto by_stream = AugmentedMetablockTree::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  ASSERT_TRUE(by_stream->CheckInvariants().ok());
  // Both remain insertable after a bulk build.
  ASSERT_TRUE(by_vector->Insert({1, kDomain, n}).ok());
  ASSERT_TRUE(by_stream->Insert({1, kDomain, n}).ok());
  for (Coord a = 0; a < kDomain; a += kDomain / 19) {
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(by_vector->Query({a}, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(by_stream->Query({a}, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << "a=" << a;
  }
}

TEST_F(BuildTest, ThreeSidedStreamBuildEqualsVectorBuild) {
  const size_t n = 10 * kB * kB;
  auto pts = RandomPoints(n, kDomain, 17);
  auto by_vector = ThreeSidedTree::Build(&pager_, pts);
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  PointStream stream(PointStream::Shape::kUniform, n, kDomain, 17, 101);
  auto by_stream = ThreeSidedTree::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  ASSERT_TRUE(by_stream->CheckInvariants().ok());
  for (Coord lo = 0; lo < kDomain; lo += kDomain / 11) {
    ThreeSidedQuery q{lo, lo + kDomain / 7, kDomain / 3};
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(by_vector->Query(q, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(by_stream->Query(q, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << q.ToString();
  }
}

TEST_F(BuildTest, AugmentedThreeSidedStreamBuildEqualsVectorBuild) {
  const size_t n = 8 * kB * kB;
  auto pts = RandomPoints(n, 300, 18);  // small domain: many x ties
  auto by_vector = AugmentedThreeSidedTree::Build(&pager_, pts);
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  PointStream stream(PointStream::Shape::kUniform, n, 300, 18, 53);
  auto by_stream = AugmentedThreeSidedTree::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  ASSERT_TRUE(by_stream->CheckInvariants().ok());
  for (Coord lo = 0; lo < 300; lo += 17) {
    ThreeSidedQuery q{lo, lo + 60, 40};
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(by_vector->Query(q, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(by_stream->Query(q, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << q.ToString();
  }
}

TEST_F(BuildTest, PstStreamBuildEqualsVectorBuild) {
  const size_t n = 6000;
  auto pts = RandomPoints(n, kDomain, 19);
  auto by_vector = ExternalPst::Build(&pager_, std::vector<Point>(pts));
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  PointStream stream(PointStream::Shape::kUniform, n, kDomain, 19, 77);
  auto by_stream = ExternalPst::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  ASSERT_TRUE(by_stream->CheckInvariants().ok());
  EXPECT_EQ(dev_.live_pages(), dev2.live_pages());
  for (Coord lo = 0; lo < kDomain; lo += kDomain / 13) {
    ThreeSidedQuery q{lo, lo + kDomain / 5, kDomain / 4};
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(by_vector->Query(q, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(by_stream->Query(q, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << q.ToString();
  }
}

TEST_F(BuildTest, PstStreamBuildThenInsertEqualsVectorBuild) {
  const size_t n = 5000;
  auto pts = RandomPoints(n, kDomain, 20);
  auto by_vector = ExternalPst::Build(&pager_, std::vector<Point>(pts));
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  PointStream stream(PointStream::Shape::kUniform, n, kDomain, 20, 31);
  auto by_stream = ExternalPst::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  ASSERT_TRUE(by_stream->CheckInvariants().ok());
  ASSERT_TRUE(by_stream->Insert({7, 7, n}).ok());
  ASSERT_TRUE(by_vector->Insert({7, 7, n}).ok());
  for (Coord lo = 0; lo < kDomain; lo += kDomain / 13) {
    ThreeSidedQuery q{lo, lo + kDomain / 5, kDomain / 4};
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(by_vector->Query(q, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(by_stream->Query(q, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << q.ToString();
  }
}

// Above B^3 points the root's children exceed B^2, so they spill to runs
// that are partitioned in turn: a path the served shape (n = B^3 / 2)
// never takes. A stream build under a 16-frame pool must equal the same
// family's in-core build, where every group is resident: the same
// answers over a query sweep, the same live pages, invariants green.
template <typename Tree, typename Query>
void ExpectStreamBuildEqualsInCore(const std::vector<Point>& pts,
                                   const std::vector<Query>& queries) {
  BlockDevice core_dev(PageSizeForBranching(kB));
  Pager core_pager(&core_dev, 0);
  std::vector<Point> sorted = pts;
  std::sort(sorted.begin(), sorted.end(), PointXOrder());
  auto in_core =
      Tree::Build(&core_pager, PointGroup::FromVector(std::move(sorted)));
  ASSERT_TRUE(in_core.ok());
  ASSERT_TRUE(in_core->CheckInvariants().ok());

  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 16);
  SpanStream<Point> stream(pts, 97);
  auto streamed = Tree::Build(&pager, &stream);
  ASSERT_TRUE(streamed.ok()) << streamed.status().ToString();
  ASSERT_TRUE(streamed->CheckInvariants().ok());
  EXPECT_EQ(dev.live_pages(), core_dev.live_pages());
  for (const Query& q : queries) {
    std::vector<Point> want, got;
    VectorSink<Point> want_sink(&want);
    ASSERT_TRUE(in_core->Query(q, &want_sink).ok());
    VectorSink<Point> got_sink(&got);
    ASSERT_TRUE(streamed->Query(q, &got_sink).ok());
    SortPoints(&want);
    SortPoints(&got);
    EXPECT_EQ(got, want) << q.ToString();
  }
}

TEST_F(BuildTest, EveryPointFamilyAboveBCubedEqualsInCoreBuild) {
  const size_t n = 3000;
  ASSERT_GT(n, size_t{kB} * kB * kB);
  std::vector<DiagonalQuery> diagonal;
  for (Coord a = 0; a < kDomain; a += kDomain / 29) diagonal.push_back({a});
  std::vector<ThreeSidedQuery> three_sided;
  for (Coord lo = 0; lo < kDomain; lo += kDomain / 17) {
    three_sided.push_back({lo, lo + kDomain / 6, kDomain / 3});
  }
  std::vector<ThreeSidedQuery> tied;  // small domain: many x ties
  for (Coord lo = 0; lo < 300; lo += 23) tied.push_back({lo, lo + 50, 40});

  const auto above = RandomPointsAboveDiagonal(n, kDomain, 50);
  const auto planar = RandomPoints(n, kDomain, 51);
  const auto ties = RandomPoints(n, 300, 52);
  ExpectStreamBuildEqualsInCore<MetablockTree>(above, diagonal);
  ExpectStreamBuildEqualsInCore<AugmentedMetablockTree>(above, diagonal);
  ExpectStreamBuildEqualsInCore<ThreeSidedTree>(planar, three_sided);
  ExpectStreamBuildEqualsInCore<AugmentedThreeSidedTree>(ties, tied);
  ExpectStreamBuildEqualsInCore<ExternalPst>(planar, three_sided);
  ExpectStreamBuildEqualsInCore<ExternalPst>(ties, tied);
}

TEST_F(BuildTest, BptreeStreamBulkLoadPacksLeaves) {
  const size_t n = 9000;
  std::vector<BtEntry> entries;
  for (size_t i = 0; i < n; ++i) {
    entries.push_back({static_cast<int64_t>(i / 3), i, 0});
  }
  auto loaded = BPlusTree::BulkLoad(&pager_, entries);
  ASSERT_TRUE(loaded.ok());
  EXPECT_EQ(loaded->size(), n);
  ASSERT_TRUE(loaded->CheckInvariants().ok());
  // True leaf packing: space is ~n/fanout leaf pages, not one per insert.
  double fill = static_cast<double>(n) /
                (static_cast<double>(dev_.live_pages()) * loaded->fanout());
  EXPECT_GE(fill, 0.5);  // every node at least half full
  std::vector<BtEntry> got;
  VectorSink<BtEntry> got_sink(&got);
  ASSERT_TRUE(loaded->RangeScan(100, 200, &got_sink).ok());
  std::vector<BtEntry> want(entries.begin() + 300, entries.begin() + 603);
  EXPECT_EQ(got, want);
}

TEST_F(BuildTest, BptreeStreamBulkLoadRejectsUnsorted) {
  std::vector<BtEntry> entries = {{5, 0, 0}, {3, 0, 0}};
  EXPECT_FALSE(BPlusTree::BulkLoad(&pager_, entries).ok());
  EXPECT_EQ(dev_.live_pages(), 0u);  // fault-atomic: nothing leaked
}

TEST_F(BuildTest, IntervalIndexStreamBuildEqualsVectorBuild) {
  const size_t n = 4000;
  auto ivs = RandomIntervals(n, kDomain, IntervalWorkload::kUniform, 21);
  auto by_vector = IntervalIndex::Build(&pager_, ivs);
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  IntervalStream stream(IntervalWorkload::kUniform, n, kDomain, 21, 41);
  auto by_stream = IntervalIndex::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  EXPECT_EQ(by_stream->size(), n);
  IntervalOracle oracle;
  for (const Interval& iv : ivs) oracle.Insert(iv);
  for (Coord q = 0; q < kDomain; q += kDomain / 17) {
    std::vector<Interval> want, got;
    VectorSink<Interval> want_sink(&want);
    ASSERT_TRUE(by_vector->Stab(q, &want_sink).ok());
    VectorSink<Interval> got_sink(&got);
    ASSERT_TRUE(by_stream->Stab(q, &got_sink).ok());
    SortIntervals(&want);
    SortIntervals(&got);
    EXPECT_EQ(got, want) << "stab q=" << q;
    want.clear();
    got.clear();
    ASSERT_TRUE(by_vector->Intersect(q, q + kDomain / 9, &want_sink).ok());
    ASSERT_TRUE(by_stream->Intersect(q, q + kDomain / 9, &got_sink).ok());
    SortIntervals(&want);
    SortIntervals(&got);
    EXPECT_EQ(got, want) << "intersect q=" << q;
  }
}

TEST_F(BuildTest, DynamicIntervalIndexStreamBuildEqualsVectorBuild) {
  const size_t n = 3000;
  auto ivs = RandomIntervals(n, kDomain, IntervalWorkload::kClustered, 22);
  auto by_vector = DynamicIntervalIndex::Build(&pager_, ivs);
  ASSERT_TRUE(by_vector.ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  IntervalStream stream(IntervalWorkload::kClustered, n, kDomain, 22, 83);
  auto by_stream = DynamicIntervalIndex::Build(&pager2, &stream);
  ASSERT_TRUE(by_stream.ok());
  for (Coord q = 0; q < kDomain; q += kDomain / 13) {
    std::vector<Interval> want, got;
    VectorSink<Interval> want_sink(&want);
    ASSERT_TRUE(by_vector->Stab(q, &want_sink).ok());
    VectorSink<Interval> got_sink(&got);
    ASSERT_TRUE(by_stream->Stab(q, &got_sink).ok());
    SortIntervals(&want);
    SortIntervals(&got);
    EXPECT_EQ(got, want) << "stab q=" << q;
  }
}

// A small but non-trivial hierarchy shared by the class-index tests.
struct TestHierarchy {
  TestHierarchy() {
    auto root = h.AddClass("root");
    auto a = h.AddClass("a", *root);
    auto b = h.AddClass("b", *root);
    auto c = h.AddClass("c", *a);
    h.AddClass("d", *a).value();
    h.AddClass("e", *b).value();
    h.AddClass("f", *c).value();
    CCIDX_CHECK(h.Freeze().ok());
  }
  ClassHierarchy h;
};

std::vector<Object> MakeObjects(const ClassHierarchy& h, size_t n,
                                uint32_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<Object> out;
  for (size_t i = 0; i < n; ++i) {
    out.push_back({i, static_cast<uint32_t>(rng() % h.size()),
                   static_cast<Coord>(rng() % 1000)});
  }
  return out;
}

template <typename Index>
void ExpectSameClassQueries(const ClassHierarchy& h, const Index& built,
                            const Index& inserted) {
  for (uint32_t c = 0; c < h.size(); ++c) {
    for (Coord a1 = 0; a1 < 1000; a1 += 211) {
      std::vector<uint64_t> want, got;
      VectorSink<uint64_t> want_sink(&want);
      ASSERT_TRUE(inserted.Query(c, a1, a1 + 300, &want_sink).ok());
      VectorSink<uint64_t> got_sink(&got);
      ASSERT_TRUE(built.Query(c, a1, a1 + 300, &got_sink).ok());
      std::sort(want.begin(), want.end());
      std::sort(got.begin(), got.end());
      EXPECT_EQ(got, want) << "class=" << c << " a1=" << a1;
    }
  }
}

TEST_F(BuildTest, SimpleClassIndexBulkBuildEqualsInserts) {
  TestHierarchy th;
  auto objects = MakeObjects(th.h, 3000, 23);
  SimpleClassIndex inserted(&pager_, &th.h);
  for (const Object& o : objects) ASSERT_TRUE(inserted.Insert(o).ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  auto built = SimpleClassIndex::Build(&pager2, &th.h,
                                       std::span<const Object>(objects));
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->size(), inserted.size());
  ExpectSameClassQueries(th.h, *built, inserted);
}

TEST_F(BuildTest, BaselineBulkBuildsEqualInserts) {
  TestHierarchy th;
  auto objects = MakeObjects(th.h, 2000, 24);
  std::span<const Object> span(objects);
  {
    SingleIndexBaseline inserted(&pager_, &th.h);
    for (const Object& o : objects) ASSERT_TRUE(inserted.Insert(o).ok());
    BlockDevice dev2(PageSizeForBranching(kB));
    Pager pager2(&dev2, 0);
    auto built = SingleIndexBaseline::Build(&pager2, &th.h, span);
    ASSERT_TRUE(built.ok());
    ExpectSameClassQueries(th.h, *built, inserted);
  }
  {
    FullExtentIndex inserted(&pager_, &th.h);
    for (const Object& o : objects) ASSERT_TRUE(inserted.Insert(o).ok());
    BlockDevice dev2(PageSizeForBranching(kB));
    Pager pager2(&dev2, 0);
    auto built = FullExtentIndex::Build(&pager2, &th.h, span);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->size(), inserted.size());
    ExpectSameClassQueries(th.h, *built, inserted);
  }
  {
    ExtentOnlyIndex inserted(&pager_, &th.h);
    for (const Object& o : objects) ASSERT_TRUE(inserted.Insert(o).ok());
    BlockDevice dev2(PageSizeForBranching(kB));
    Pager pager2(&dev2, 0);
    auto built = ExtentOnlyIndex::Build(&pager2, &th.h, span);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->size(), inserted.size());
    ExpectSameClassQueries(th.h, *built, inserted);
  }
}

TEST_F(BuildTest, RakeContractBulkBuildEqualsInserts) {
  TestHierarchy th;
  auto objects = MakeObjects(th.h, 2500, 25);
  auto inserted = RakeContractIndex::Build(&pager_, &th.h,
                                           std::vector<Object>{});
  ASSERT_TRUE(inserted.ok());
  for (const Object& o : objects) ASSERT_TRUE(inserted->Insert(o).ok());
  BlockDevice dev2(PageSizeForBranching(kB));
  Pager pager2(&dev2, 0);
  auto built = RakeContractIndex::Build(&pager2, &th.h, objects);
  ASSERT_TRUE(built.ok());
  EXPECT_EQ(built->num_paths(), inserted->num_paths());
  EXPECT_LE(built->max_replication(),
            static_cast<uint32_t>(
                std::ceil(std::log2(static_cast<double>(th.h.size())))) + 1);
  ExpectSameClassQueries(th.h, *built, *inserted);
}

// ---------------------------------------------------------------------------
// Build I/O tracks the external-sort bound
// ---------------------------------------------------------------------------

TEST_F(BuildTest, MetablockBuildIoTracksSortBound) {
  const size_t n = 30 * kB * kB;
  PointStream stream(PointStream::Shape::kAboveDiagonal, n, kDomain, 26);
  dev_.ResetStats();
  auto tree = MetablockTree::Build(&pager_, &stream);
  ASSERT_TRUE(tree.ok());
  double n_over_b = static_cast<double>(n) / kB;
  // Sort bound (n/B) log_{M/B}(n/B) with M = B^2: one merge level here.
  double sort_bound = n_over_b * std::max(
      1.0, std::log(n_over_b) / std::log(static_cast<double>(kB)));
  double measured = static_cast<double>(dev_.stats().TotalIos());
  // The sort, one distribution scan per level that reads the merge (at
  // the root) or a spilled child run (below it), and the structure
  // writes themselves, which dominate: 4.33x the sort bound here.
  EXPECT_GE(measured, n_over_b);  // sanity: at least one pass
  EXPECT_LE(measured, 5.0 * sort_bound)
      << "measured=" << measured << " bound=" << sort_bound;
}

// At n <= B^3 every child of the root is a resident leaf: a stream build
// stages no copy of its input, needs no selection scan and reads no child
// back, so it reads exactly the pages its sort's merge reads.
TEST_F(BuildTest, StreamBuildReadsOnlyWhatItsSortReads) {
  auto reads_of = [](auto run) {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 0);
    run(&pager);
    return dev.stats().device_reads;
  };
  // A bare sort of `recs`, its output drained: the merge's reads.
  auto sort = [](Pager* pager, const auto& recs, auto less) {
    using T = typename std::decay_t<decltype(recs)>::value_type;
    ExternalSorter<T, decltype(less)> sorter(pager, less);
    ASSERT_TRUE(sorter.AddSpan(recs).ok());
    auto out = sorter.Finish();
    ASSERT_TRUE(out.ok());
    ASSERT_FALSE(sorter.in_memory());
    while (true) {
      auto block = (*out)->Next();
      ASSERT_TRUE(block.ok());
      if (block->empty()) break;
    }
  };
  for (size_t n : {size_t{5} * kB * kB, size_t{kB} * kB * kB}) {
    const auto above = RandomPointsAboveDiagonal(n, kDomain, 60);
    const auto planar = RandomPoints(n, kDomain, 61);
    const auto intervals =
        RandomIntervals(n, kDomain, IntervalWorkload::kUniform, 62);
    std::vector<BtEntry> entries;
    std::vector<Point> stabbing;
    for (const Interval& iv : intervals) {
      entries.push_back({iv.lo, iv.id, iv.hi});
      stabbing.push_back({iv.lo, iv.hi, iv.id});
    }
    const uint64_t above_sort =
        reads_of([&](Pager* p) { sort(p, above, PointXOrder()); });
    const uint64_t planar_sort =
        reads_of([&](Pager* p) { sort(p, planar, PointXOrder()); });
    const uint64_t interval_sort = reads_of([&](Pager* p) {
      sort(p, entries, std::less<BtEntry>());
      sort(p, stabbing, PointXOrder());
    });
    ASSERT_GT(above_sort, 0u);
    EXPECT_EQ(reads_of([&](Pager* p) {
                ASSERT_TRUE(MetablockTree::Build(p, above).ok());
              }),
              above_sort) << "n=" << n;
    EXPECT_EQ(reads_of([&](Pager* p) {
                ASSERT_TRUE(AugmentedMetablockTree::Build(p, above).ok());
              }),
              above_sort) << "n=" << n;
    EXPECT_EQ(reads_of([&](Pager* p) {
                ASSERT_TRUE(ThreeSidedTree::Build(p, planar).ok());
              }),
              planar_sort) << "n=" << n;
    EXPECT_EQ(reads_of([&](Pager* p) {
                ASSERT_TRUE(IntervalIndex::Build(p, intervals).ok());
              }),
              interval_sort) << "n=" << n;
  }
}

// ---------------------------------------------------------------------------
// Space and page ownership of the metablock-family builds
// ---------------------------------------------------------------------------

// Pages per data page of the served tables: the bench/e2e shape (n =
// 131072 records at B = 64, the same generators and seeds). Full children
// (ChildFanout) and corner structures that borrow their metablock's
// vertical blocking put the three families at 4.87 / 5.89 / 6.92; the
// bounds leave under 3% headroom, and each was exceeded before those two
// changes (6.92 / 7.96 / 9.03).
TEST(ServedSpaceTest, FamiliesStayNearThePapersConstant) {
  constexpr uint32_t kServedB = 64;
  constexpr size_t kN = 131072;
  constexpr Coord kServedDomain = Coord{1} << 20;
  constexpr uint32_t kSeed = 1;
  const double n_over_b = static_cast<double>(kN) / kServedB;
  auto pages_per_data_page = [&](auto build) {
    BlockDevice dev(PageSizeForBranching(kServedB));
    Pager pager(&dev, 4096);
    build(&pager);
    return static_cast<double>(dev.live_pages()) / n_over_b;
  };
  const double metablock = pages_per_data_page([&](Pager* pager) {
    ASSERT_TRUE(MetablockTree::Build(
                    pager, RandomPointsAboveDiagonal(kN, kServedDomain, kSeed))
                    .ok());
  });
  const double interval = pages_per_data_page([&](Pager* pager) {
    ASSERT_TRUE(IntervalIndex::Build(pager,
                                     RandomIntervals(kN, kServedDomain,
                                                     IntervalWorkload::kUniform,
                                                     kSeed + 1))
                    .ok());
  });
  const double three_sided = pages_per_data_page([&](Pager* pager) {
    ASSERT_TRUE(ThreeSidedTree::Build(
                    pager, RandomPoints(kN, kServedDomain, kSeed + 2))
                    .ok());
  });
  EXPECT_LE(metablock, 5.0);
  EXPECT_LE(interval, 6.05);
  EXPECT_LE(three_sided, 7.1);
}

// Reads the (num_points, num_children) pair every metablock family's
// control record opens with.
uint32_t ChildCount(Pager* pager, PageId control) {
  auto ref = pager->Pin(control);
  EXPECT_TRUE(ref.ok());
  PageReader r(ref->data());
  r.Get<uint32_t>();
  return r.Get<uint32_t>();
}

// Every page id the walkers report is distinct, and together they are
// exactly the device's live pages.
template <typename Tree>
void ExpectPagesOwnedOnce(const Tree& tree, const BlockDevice& dev) {
  std::vector<PageId> pages;
  ASSERT_TRUE(tree.VisitPages(&pages).ok());
  std::sort(pages.begin(), pages.end());
  EXPECT_EQ(std::adjacent_find(pages.begin(), pages.end()), pages.end())
      << "a page is reported twice";
  EXPECT_EQ(pages.size(), dev.live_pages());
}

// B^2 < rest < B^3: the root keeps B^2 points and splits the rest into
// ceil(rest / B^2) full leaves, not B thin ones; the static trees'
// CheckInvariants verifies the rule at every node.
TEST_F(BuildTest, FullChildrenAndPagesOwnedOnceInEveryFamily) {
  const uint32_t b2 = kB * kB;
  for (uint64_t rest : {uint64_t{b2} + 1, uint64_t{5} * b2 - 3,
                        uint64_t{kB} * b2 - 1}) {
    const size_t n = b2 + rest;
    const uint32_t fanout = static_cast<uint32_t>((rest + b2 - 1) / b2);
    ASSERT_EQ(fanout, ChildFanout(rest, kB));
    ASSERT_LE(fanout, kB);
    const auto above = RandomPointsAboveDiagonal(n, kDomain, 40 + rest);
    const auto planar = RandomPoints(n, kDomain, 41 + rest);
    auto audit = [&](auto tree) {
      ASSERT_TRUE(tree.ok());
      ASSERT_TRUE(tree->CheckInvariants().ok());
      EXPECT_EQ(ChildCount(&pager_, tree->root_page()), fanout);
      ExpectPagesOwnedOnce(*tree, dev_);
      ASSERT_TRUE(tree->Destroy().ok());
      EXPECT_EQ(dev_.live_pages(), 0u);
    };
    audit(MetablockTree::Build(&pager_, above));
    audit(ThreeSidedTree::Build(&pager_, planar));
    audit(AugmentedMetablockTree::Build(&pager_, above));
    audit(AugmentedThreeSidedTree::Build(&pager_, planar));
  }
}

// Inserts drive every rewrite of a metablock's organizations: level I
// merges (RebuildOrganizations, with a fresh own-point index), level II
// push-downs with TD rebuilds, leaf splits, and the 2B-children subtree
// rebuild; deletes then trip the purge rebuild. In both augmented
// families ownership stays exact throughout, and Destroy frees every
// page.
TEST_F(BuildTest, AugmentedInsertsKeepPagesOwnedOnce) {
  auto run = [&](auto family) {
    using Tree = typename decltype(family)::type;
    const uint32_t b2 = kB * kB;
    auto initial = RandomPointsAboveDiagonal(3 * b2, kDomain, 43);
    auto tree = Tree::Build(&pager_, initial);
    ASSERT_TRUE(tree.ok());
    auto more = RandomPointsAboveDiagonal(40 * b2, kDomain, 44);
    std::vector<uint32_t> root_fanouts;
    for (size_t i = 0; i < more.size(); ++i) {
      more[i].id += initial.size();
      ASSERT_TRUE(tree->Insert(more[i]).ok());
      if ((i + 1) % (5 * b2) == 0) {
        ASSERT_TRUE(tree->CheckInvariants().ok()) << "after " << i + 1;
        ExpectPagesOwnedOnce(*tree, dev_);
        root_fanouts.push_back(ChildCount(&pager_, tree->root_page()));
      }
    }
    // Leaf splits grew the root past its built fan-out of 2.
    EXPECT_GT(*std::max_element(root_fanouts.begin(), root_fanouts.end()),
              2u);
    // Deleting the initial points and every other insert outweighs half
    // the live points, so the scheduler purges.
    size_t deletes = 0;
    auto erase = [&](const Point& p) {
      bool found = false;
      ASSERT_TRUE(tree->Delete(p, &found).ok());
      ASSERT_TRUE(found);
      deletes++;
    };
    for (const Point& p : initial) erase(p);
    for (size_t i = 0; i < more.size(); i += 2) erase(more[i]);
    EXPECT_LT(tree->outstanding_tombstones(), deletes) << "no purge ran";
    ASSERT_TRUE(tree->CheckInvariants().ok());
    ExpectPagesOwnedOnce(*tree, dev_);
    ASSERT_TRUE(tree->Destroy().ok());
    EXPECT_EQ(dev_.live_pages(), 0u);
  };
  run(std::type_identity<AugmentedMetablockTree>{});
  run(std::type_identity<AugmentedThreeSidedTree>{});
}

// ---------------------------------------------------------------------------
// Fault injection: sort + build surfaces clean Status, leaks nothing
// ---------------------------------------------------------------------------

TEST_F(BuildTest, MetablockStreamBuildFaultAtomic) {
  const size_t n = 6 * kB * kB;
  uint64_t baseline = dev_.live_pages();
  ASSERT_EQ(baseline, 0u);
  dev_.ResetStats();
  {
    PointStream stream(PointStream::Shape::kAboveDiagonal, n, 2000, 27);
    auto tree = MetablockTree::Build(&pager_, &stream);
    ASSERT_TRUE(tree.ok());
    ASSERT_TRUE(tree->Destroy().ok());
  }
  uint64_t healthy = dev_.stats().TotalIos();
  ASSERT_GT(healthy, 0u);
  for (uint64_t k = 0; k < healthy; ++k) {
    dev_.SetFailAfter(static_cast<int64_t>(k));
    PointStream stream(PointStream::Shape::kAboveDiagonal, n, 2000, 27);
    auto tree = MetablockTree::Build(&pager_, &stream);
    if (!tree.ok()) {
      EXPECT_EQ(tree.status().code(), StatusCode::kIoError)
          << tree.status().ToString();
      dev_.SetFailAfter(-1);
      EXPECT_EQ(dev_.live_pages(), baseline) << "leak at injected op " << k;
    } else {
      // k past the build's own transfer count (Destroy was part of the
      // healthy run): the build succeeded; clean up and keep sweeping.
      dev_.SetFailAfter(-1);
      ASSERT_TRUE(tree->Destroy().ok());
      EXPECT_EQ(dev_.live_pages(), baseline);
    }
  }
  dev_.SetFailAfter(-1);
  PointStream stream(PointStream::Shape::kAboveDiagonal, n, 2000, 27);
  EXPECT_TRUE(MetablockTree::Build(&pager_, &stream).ok());
}

// Fault atomicity of the one-pass path: n > B^3 under a 16-frame pool,
// so injected failures land in run formation and merge steps, in child
// builds while the root merge is paused, and in spilled child runs. Each
// failure surfaces as an I/O error and rolls the device back to its
// pre-build live pages: the sorter's runs and every spilled child run.
template <typename BuildFn>
void SweepStreamBuildFaults(BuildFn build) {
  uint64_t healthy = 0;
  {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 16);
    auto tree = build(&pager);
    ASSERT_TRUE(tree.ok());
    healthy = dev.stats().TotalIos();
  }
  ASSERT_GT(healthy, 0u);
  for (uint64_t k = 0; k < healthy; ++k) {
    // A fresh device and pool each time, so the build's transfers repeat
    // exactly and every k < healthy is a transfer of the build itself.
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, 16);
    dev.SetFailAfter(static_cast<int64_t>(k));
    auto tree = build(&pager);
    dev.SetFailAfter(-1);
    ASSERT_FALSE(tree.ok()) << "build survived injected op " << k;
    EXPECT_EQ(tree.status().code(), StatusCode::kIoError)
        << tree.status().ToString();
    EXPECT_EQ(dev.live_pages(), 0u) << "leak at injected op " << k;
  }
}

TEST_F(BuildTest, OnePassStreamBuildsFaultAtomicUnderSmallPool) {
  // Just above B^3: the root's B children hold ~79 points each, more than
  // B^2, so each spills to a run and is partitioned in turn.
  const size_t n = 700;
  ASSERT_GT(n, size_t{kB} * kB * kB);
  const auto above = RandomPointsAboveDiagonal(n, kDomain, 70);
  const auto planar = RandomPoints(n, kDomain, 71);
  const auto intervals =
      RandomIntervals(n, kDomain, IntervalWorkload::kUniform, 72);
  SweepStreamBuildFaults(
      [&](Pager* p) { return MetablockTree::Build(p, above); });
  SweepStreamBuildFaults(
      [&](Pager* p) { return ThreeSidedTree::Build(p, planar); });
  SweepStreamBuildFaults(
      [&](Pager* p) { return IntervalIndex::Build(p, intervals); });
}

// The pool floor of a stream build (point_group.h): while a child is
// built, the paused root merge pins one page per way and each of the d
// nested spilled groups one more, so a build needs fan-in + d + 1
// frames. One build at exactly the floor per family, with the same live
// pages as an uncached build; one at the bare fan-in (below even the
// sort's own fan-in + 1) fails with ResourceExhausted and rolls back.
template <typename BuildFn>
void ExpectBuildsAtPoolFloor(size_t spilled_depth, BuildFn build) {
  BlockDevice ref_dev(PageSizeForBranching(kB));
  Pager ref_pager(&ref_dev, 0);
  const size_t fanin = ExternalSorter<Point, PointXOrder>(&ref_pager).fanin();
  ASSERT_TRUE(build(&ref_pager).ok());
  {
    BlockDevice dev(PageSizeForBranching(kB));
    Pager pager(&dev, fanin + spilled_depth + 1);
    auto built = build(&pager);
    ASSERT_TRUE(built.ok()) << "pool of " << fanin + spilled_depth + 1
                            << " frames: " << built.status().ToString();
    EXPECT_EQ(dev.live_pages(), ref_dev.live_pages());
  }
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, fanin);
  auto built = build(&pager);
  ASSERT_FALSE(built.ok());
  EXPECT_EQ(built.status().code(), StatusCode::kResourceExhausted)
      << built.status().ToString();
  EXPECT_EQ(dev.live_pages(), 0u);
}

TEST_F(BuildTest, StreamBuildsFitTheDocumentedPoolFloor) {
  // ~313 sorted runs: merge steps, then a final merge at the full
  // fan-in. The metablock families' spilled chain is 2 deep (20000 ->
  // ~2500 -> ~312 points, each above B^2); the binary PSTs halve 8 times
  // before a group fits in B^2.
  const size_t n = 20000;
  const auto above = RandomPointsAboveDiagonal(n, kDomain, 80);
  const auto planar = RandomPoints(n, kDomain, 81);
  const auto ties = RandomPoints(n, 300, 82);
  const auto intervals =
      RandomIntervals(n, kDomain, IntervalWorkload::kUniform, 83);
  auto stream_build = [](auto tag, const std::vector<Point>& pts) {
    using Tree = typename decltype(tag)::type;
    return [&pts](Pager* p) {
      SpanStream<Point> stream(pts, 97);
      return Tree::Build(p, &stream);
    };
  };
  ExpectBuildsAtPoolFloor(
      2, stream_build(std::type_identity<MetablockTree>(), above));
  ExpectBuildsAtPoolFloor(
      2, stream_build(std::type_identity<AugmentedMetablockTree>(), above));
  ExpectBuildsAtPoolFloor(
      2, stream_build(std::type_identity<ThreeSidedTree>(), planar));
  ExpectBuildsAtPoolFloor(
      2, stream_build(std::type_identity<AugmentedThreeSidedTree>(), ties));
  ExpectBuildsAtPoolFloor(
      8, stream_build(std::type_identity<ExternalPst>(), planar));
  ExpectBuildsAtPoolFloor(
      8, stream_build(std::type_identity<ExternalPst>(), ties));
  ExpectBuildsAtPoolFloor(
      2, [&](Pager* p) { return IntervalIndex::Build(p, intervals); });
  ExpectBuildsAtPoolFloor(
      8, [&](Pager* p) { return DynamicIntervalIndex::Build(p, intervals); });
}

TEST_F(BuildTest, IntervalIndexStreamBuildFaultAtomic) {
  const size_t n = 1500;
  ASSERT_EQ(dev_.live_pages(), 0u);
  dev_.ResetStats();
  {
    IntervalStream stream(IntervalWorkload::kUniform, n, 5000, 28);
    auto idx = IntervalIndex::Build(&pager_, &stream);
    ASSERT_TRUE(idx.ok());
    ASSERT_TRUE(idx->Destroy().ok());
  }
  uint64_t healthy = dev_.stats().TotalIos();
  for (uint64_t k = 0; k < healthy; k += 7) {  // stride keeps the sweep fast
    dev_.SetFailAfter(static_cast<int64_t>(k));
    IntervalStream stream(IntervalWorkload::kUniform, n, 5000, 28);
    auto idx = IntervalIndex::Build(&pager_, &stream);
    dev_.SetFailAfter(-1);
    if (!idx.ok()) {
      EXPECT_EQ(idx.status().code(), StatusCode::kIoError);
      EXPECT_EQ(dev_.live_pages(), 0u) << "leak at injected op " << k;
    } else {
      ASSERT_TRUE(idx->Destroy().ok());
      EXPECT_EQ(dev_.live_pages(), 0u);
    }
  }
}

// ---------------------------------------------------------------------------
// Streaming generators reproduce the vector generators exactly
// ---------------------------------------------------------------------------

TEST_F(BuildTest, StreamingGeneratorsMatchVectorGenerators) {
  const size_t n = 4097;  // not a multiple of any block size
  {
    PointStream s(PointStream::Shape::kAboveDiagonal, n, kDomain, 29, 100);
    EXPECT_EQ(Collect(&s), RandomPointsAboveDiagonal(n, kDomain, 29));
  }
  {
    PointStream s(PointStream::Shape::kUniform, n, kDomain, 30, 1000);
    EXPECT_EQ(Collect(&s), RandomPoints(n, kDomain, 30));
  }
  for (auto shape : {IntervalWorkload::kUniform, IntervalWorkload::kNested,
                     IntervalWorkload::kClustered, IntervalWorkload::kUnit}) {
    IntervalStream s(shape, n, kDomain, 31, 128);
    std::vector<Interval> got;
    while (true) {
      auto block = s.Next();
      ASSERT_TRUE(block.ok());
      if (block->empty()) break;
      got.insert(got.end(), block->begin(), block->end());
    }
    EXPECT_EQ(got, RandomIntervals(n, kDomain, shape, 31))
        << "shape=" << static_cast<int>(shape);
  }
}

}  // namespace
}  // namespace ccidx
