// N concurrent writers inside one write epoch (DESIGN.md §11), checked
// differentially against sequential oracles. Run under TSan in CI.
//
// The contract under test: within a write epoch the latched families
// (B+-tree subtree stripes, ExternalPst side latches, Dynamized level
// latches, the per-structure write latches) accept updates from N
// threads, and — because UpdateExecutor routes same-key updates to one
// worker in batch order while distinct keys commute — the resulting
// structure is bit-identical to a sequential replay of the same batch.
// Plus the background-rebuild handoff: purge/global rebuilds scheduled
// from update-path hooks run split-phase on a MaintenanceThread under
// the serving gate and never lose or duplicate a point.

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <mutex>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/bptree/bptree.h"
#include "ccidx/classes/hierarchy.h"
#include "ccidx/classes/simple_class_index.h"
#include "ccidx/core/metablock_tree.h"  // PageSizeForBranching
#include "ccidx/dynamic/adapters.h"
#include "ccidx/dynamic/maintenance.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/query/executor.h"
#include "ccidx/query/update_executor.h"
#include "ccidx/testutil/generators.h"
#include "ccidx/testutil/oracles.h"
#include "ccidx/testutil/workload.h"

namespace ccidx {
namespace {

constexpr uint32_t kB = 16;
constexpr Coord kDomain = 2048;
constexpr unsigned kWriters = 4;

// ---------------------------------------------------------------------
// UpdateExecutor partition semantics, independent of any structure.

TEST(UpdateExecutor, PerKeyOrderingAndFullCoverage) {
  struct Op {
    uint64_t key;
    uint64_t seq;
  };
  std::vector<Op> ops;
  std::mt19937_64 rng(7);
  for (uint64_t i = 0; i < 4096; ++i) ops.push_back({rng() % 37, i});

  UpdateExecutor exec(kWriters);
  std::mutex mu;
  std::vector<std::vector<uint64_t>> seq_by_key(37);
  std::vector<unsigned> worker_of_key(37, kWriters);
  auto report = exec.RunUpdates(
      std::span<const Op>(ops), [](const Op& op) { return op.key; },
      [&](const Op& op, size_t, unsigned thread) {
        std::lock_guard<std::mutex> lk(mu);
        seq_by_key[op.key].push_back(op.seq);
        if (worker_of_key[op.key] == kWriters) {
          worker_of_key[op.key] = thread;
        }
        EXPECT_EQ(worker_of_key[op.key], thread)
            << "key " << op.key << " applied by two workers";
        return Status::OK();
      });
  ASSERT_TRUE(report.ok());
  // Every update applied exactly once...
  uint64_t total = 0;
  for (uint64_t n : report.per_thread_updates) total += n;
  EXPECT_EQ(total, ops.size());
  // ...and same-key updates in batch order.
  for (const auto& seqs : seq_by_key) {
    EXPECT_TRUE(std::is_sorted(seqs.begin(), seqs.end()));
  }
}

// ---------------------------------------------------------------------
// B+-tree: subtree-striped latches.

struct BtOp {
  bool insert;
  int64_t key;
  uint64_t value;
};

class BtAdapter {
 public:
  using Op = BtOp;
  explicit BtAdapter(BPlusTree* tree) : tree_(tree) {}

  Op MakeOp(std::mt19937_64& rng) {
    if (live_.empty() || rng() % 100 < 60) {
      Op op{true, static_cast<int64_t>(rng() % kDomain), next_value_++};
      live_.push_back(op);
      return op;
    }
    size_t j = rng() % live_.size();
    Op op = live_[j];
    op.insert = false;
    live_.erase(live_.begin() + j);
    return op;
  }
  uint64_t KeyOf(const Op& op) const { return static_cast<uint64_t>(op.key); }
  Status ApplyToStructure(const Op& op) {
    if (op.insert) return tree_->Insert(op.key, op.value);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(tree_->Delete(op.key, op.value, &found));
    return found ? Status::OK()
                 : Status::Corruption("concurrent delete missed its entry");
  }
  Status ApplyToOracle(const Op& op) {
    if (op.insert) {
      oracle_.push_back({op.key, op.value});
    } else {
      auto it = std::find(oracle_.begin(), oracle_.end(),
                          std::make_pair(op.key, op.value));
      if (it == oracle_.end()) return Status::Corruption("oracle missed");
      oracle_.erase(it);
    }
    return Status::OK();
  }
  Status Compare() {
    std::vector<std::pair<int64_t, uint64_t>> got;
    CCIDX_RETURN_IF_ERROR(tree_->RangeScan(
        0, kDomain,
        [&](const BtEntry& e) { got.push_back({e.key, e.value}); }));
    auto want = oracle_;
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      return Status::Corruption("B+-tree state diverged from oracle");
    }
    return Status::OK();
  }

 private:
  BPlusTree* tree_;
  std::vector<Op> live_;
  std::vector<std::pair<int64_t, uint64_t>> oracle_;
  uint64_t next_value_ = 1;
};

TEST(ConcurrentWriter, BPlusTreeMatchesSequentialOracle) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 256);
  BPlusTree tree(&pager);
  BtAdapter adapter(&tree);
  ConcurrentWorkloadOptions opt;
  opt.seed = EffectiveWorkloadSeed(0xB7EE);
  opt.batches = 6 * WorkloadIterations();
  opt.batch_size = 256;
  opt.writers = kWriters;
  Status s = RunConcurrentWriterWorkload(adapter, opt);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(tree.CheckInvariants().ok());
}

// ---------------------------------------------------------------------
// ExternalPst: side latches + root image + shadow-path inserts.

struct PstOp {
  bool insert;
  Point p;
};

class PstAdapter {
 public:
  using Op = PstOp;
  explicit PstAdapter(ExternalPst* pst) : pst_(pst) {}

  Op MakeOp(std::mt19937_64& rng) {
    if (live_.empty() || rng() % 100 < 60) {
      Point p{static_cast<Coord>(rng() % kDomain),
              static_cast<Coord>(rng() % kDomain), next_id_++};
      live_.push_back(p);
      return {true, p};
    }
    size_t j = rng() % live_.size();
    Point p = live_[j];
    live_.erase(live_.begin() + j);
    return {false, p};
  }
  // Identity key: a delete of a point must follow its insert.
  uint64_t KeyOf(const Op& op) const { return op.p.id; }
  Status ApplyToStructure(const Op& op) {
    if (op.insert) return pst_->Insert(op.p);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(pst_->Delete(op.p, &found));
    return found ? Status::OK()
                 : Status::Corruption("concurrent delete missed its point");
  }
  Status ApplyToOracle(const Op& op) {
    if (op.insert) {
      oracle_.Insert(op.p);
      return Status::OK();
    }
    return oracle_.Erase(op.p)
               ? Status::OK()
               : Status::Corruption("oracle missed a delete");
  }
  Status Compare() {
    // Full-extent + a few random windows, bit-exact.
    std::mt19937_64 rng(0xC0);
    std::vector<ThreeSidedQuery> qs = {{0, kDomain, 0}};
    for (int i = 0; i < 4; ++i) {
      Coord a = rng() % kDomain, b = rng() % kDomain;
      qs.push_back({std::min(a, b), std::max(a, b),
                    static_cast<Coord>(rng() % kDomain)});
    }
    for (const auto& q : qs) {
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      CCIDX_RETURN_IF_ERROR(pst_->Query(q, &sink));
      SortPoints(&got);
      if (got != oracle_.ThreeSided(q)) {
        return Status::Corruption("PST query diverged from oracle");
      }
    }
    return Status::OK();
  }

 private:
  ExternalPst* pst_;
  PointOracle oracle_;
  std::vector<Point> live_;
  uint64_t next_id_ = 1;
};

TEST(ConcurrentWriter, ExternalPstMatchesSequentialOracle) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 256);
  auto pst = ExternalPst::Build(&pager, std::span<const Point>{});
  ASSERT_TRUE(pst.ok());
  PstAdapter adapter(&*pst);
  ConcurrentWorkloadOptions opt;
  opt.seed = EffectiveWorkloadSeed(0x9057);
  opt.batches = 6 * WorkloadIterations();
  opt.batch_size = 192;
  opt.writers = kWriters;
  Status s = RunConcurrentWriterWorkload(adapter, opt);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(pst->CheckInvariants().ok());
}

// ---------------------------------------------------------------------
// Dynamized resurrection: delete -> re-insert of the same identity
// (tombstone consumption, zero I/O) racing the inline buffer-flush
// merges that purge those same tombstones. Regression for the lost
// insert where a resurrection consumed a tombstone whose record an
// in-flight merge had already excluded from its harvest: the point
// ended up in neither the buffer, the levels, nor the tombstone set.
// A small buffer keeps a merge in flight almost continuously.

struct DynOp {
  bool insert;
  Point p;
};

class DynResurrectAdapter {
 public:
  using Op = DynOp;
  explicit DynResurrectAdapter(DynamicThreeSidedTree* dyn) : dyn_(dyn) {}

  Op MakeOp(std::mt19937_64& rng) {
    // A small pool of fixed identities toggled alive/dead: most deletes
    // are followed by a resurrection of the same Point a few ops later,
    // while fresh identities keep the merge cadence up.
    if (pool_.size() < kPool || rng() % 100 < 10) {
      Point p{static_cast<Coord>(rng() % kDomain),
              static_cast<Coord>(rng() % kDomain), next_id_++};
      pool_.push_back(p);
      alive_.push_back(true);
      return {true, p};
    }
    size_t j = rng() % pool_.size();
    alive_[j] = !alive_[j];
    return {alive_[j], pool_[j]};
  }
  // Identity key: every toggle of one Point replays in batch order.
  uint64_t KeyOf(const Op& op) const { return op.p.id; }
  Status ApplyToStructure(const Op& op) {
    if (op.insert) return dyn_->Insert(op.p);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(dyn_->Delete(op.p, &found));
    return found ? Status::OK()
                 : Status::Corruption("concurrent delete missed its point");
  }
  Status ApplyToOracle(const Op& op) {
    if (op.insert) {
      oracle_.Insert(op.p);
      return Status::OK();
    }
    return oracle_.Erase(op.p)
               ? Status::OK()
               : Status::Corruption("oracle missed a delete");
  }
  Status Compare() {
    std::vector<Point> got;
    VectorSink<Point> sink(&got);
    CCIDX_RETURN_IF_ERROR(dyn_->Query({0, kDomain, 0}, &sink));
    SortPoints(&got);
    if (got != oracle_.ThreeSided({0, kDomain, 0})) {
      return Status::Corruption("resurrection state diverged from oracle");
    }
    return dyn_->CheckInvariants();
  }

 private:
  static constexpr size_t kPool = 48;
  DynamicThreeSidedTree* dyn_;
  PointOracle oracle_;
  std::vector<Point> pool_;
  std::vector<bool> alive_;
  uint64_t next_id_ = 1;
};

TEST(ConcurrentWriter, DynamizedResurrectionMatchesSequentialOracle) {
  // Injected read latency + a pool too small to hold the levels: merge
  // harvests pay real time per page, stretching the window between a
  // tombstone's exclusion from the harvest and its consumption at
  // install so resurrections actually land inside it.
  BlockDeviceOptions dev_opt;
  dev_opt.read_latency_us = 20;
  BlockDevice dev(PageSizeForBranching(kB), dev_opt);
  Pager pager(&dev, 24);
  // Buffer of 8: every ~8th insert flushes, so resurrections land while
  // a merge holds merge_in_flight and must take the retry path.
  DynamicThreeSidedTree dyn(&pager, 8);
  DynResurrectAdapter adapter(&dyn);
  ConcurrentWorkloadOptions opt;
  opt.seed = EffectiveWorkloadSeed(0x2E55);
  opt.batches = 24 * WorkloadIterations();
  opt.batch_size = 192;
  opt.writers = kWriters;
  Status s = RunConcurrentWriterWorkload(adapter, opt);
  ASSERT_TRUE(s.ok()) << s.ToString();
  ASSERT_TRUE(dyn.CheckInvariants().ok());
}

// ---------------------------------------------------------------------
// SimpleClassIndex: composite of striped B+-trees + atomic size.

struct ClsOp {
  bool insert;
  Object o;
};

class ClsAdapter {
 public:
  using Op = ClsOp;
  ClsAdapter(SimpleClassIndex* index, const ClassHierarchy* h)
      : index_(index), h_(h) {}

  Op MakeOp(std::mt19937_64& rng) {
    if (live_.empty() || rng() % 100 < 60) {
      Object o{next_id_++, static_cast<uint32_t>(rng() % h_->size()),
               static_cast<Coord>(rng() % kDomain)};
      live_.push_back(o);
      return {true, o};
    }
    size_t j = rng() % live_.size();
    Object o = live_[j];
    live_.erase(live_.begin() + j);
    return {false, o};
  }
  uint64_t KeyOf(const Op& op) const { return op.o.id; }
  Status ApplyToStructure(const Op& op) {
    if (op.insert) return index_->Insert(op.o);
    bool found = false;
    CCIDX_RETURN_IF_ERROR(index_->Delete(op.o, &found));
    return found ? Status::OK()
                 : Status::Corruption("concurrent delete missed its object");
  }
  Status ApplyToOracle(const Op& op) {
    if (op.insert) {
      oracle_.push_back(op.o);
      return Status::OK();
    }
    auto it = std::find_if(oracle_.begin(), oracle_.end(), [&](const Object& o) {
      return o.id == op.o.id && o.attr == op.o.attr &&
             o.class_id == op.o.class_id;
    });
    if (it == oracle_.end()) return Status::Corruption("oracle missed");
    oracle_.erase(it);
    return Status::OK();
  }
  Status Compare() {
    for (uint32_t c = 0; c < h_->size(); ++c) {
      std::vector<uint64_t> got;
      VectorSink<uint64_t> sink(&got);
      CCIDX_RETURN_IF_ERROR(index_->Query(c, 0, kDomain, &sink));
      std::sort(got.begin(), got.end());
      std::vector<uint64_t> want;
      Coord lo = h_->code(c), hi = h_->subtree_max_code(c);
      for (const Object& o : oracle_) {
        Coord code = h_->code(o.class_id);
        if (code >= lo && code <= hi) want.push_back(o.id);
      }
      std::sort(want.begin(), want.end());
      if (got != want) {
        return Status::Corruption("class query diverged from oracle");
      }
    }
    if (index_->size() != oracle_.size()) {
      return Status::Corruption("size counter diverged from oracle");
    }
    return Status::OK();
  }

 private:
  SimpleClassIndex* index_;
  const ClassHierarchy* h_;
  std::vector<Object> oracle_;
  std::vector<Object> live_;
  uint64_t next_id_ = 1;
};

TEST(ConcurrentWriter, SimpleClassIndexMatchesSequentialOracle) {
  ClassHierarchy h;
  uint32_t root = *h.AddClass("root");
  uint32_t a = *h.AddClass("a", root);
  uint32_t b = *h.AddClass("b", root);
  (void)*h.AddClass("a1", a);
  (void)*h.AddClass("a2", a);
  (void)*h.AddClass("b1", b);
  ASSERT_TRUE(h.Freeze().ok());
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 256);
  SimpleClassIndex index(&pager, &h);
  ClsAdapter adapter(&index, &h);
  ConcurrentWorkloadOptions opt;
  opt.seed = EffectiveWorkloadSeed(0xC1A5);
  opt.batches = 5 * WorkloadIterations();
  opt.batch_size = 192;
  opt.writers = kWriters;
  Status s = RunConcurrentWriterWorkload(adapter, opt);
  ASSERT_TRUE(s.ok()) << s.ToString();
}

// ---------------------------------------------------------------------
// Background rebuilds: update hooks -> MaintenanceThread -> split-phase
// prepare (read epoch) + commit (write epoch), racing serving traffic.

TEST(ConcurrentWriter, DynamizedBackgroundPurgeMatchesOracle) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 512);
  DynamicThreeSidedTree dyn(&pager);
  QueryExecutor exec(2);
  MaintenanceThread maint(exec.gate());
  dyn.SetPurgeHook([&] { maint.Schedule(maint.RebuildJob(&dyn)); });

  std::mt19937_64 rng(EffectiveWorkloadSeed(0xD1));
  PointOracle oracle;
  std::vector<Point> live;
  uint64_t id = 1;
  // Insert-then-heavy-delete rounds: enough tombstones to trip the purge
  // scheduler repeatedly. Updates run inside write epochs; read batches
  // interleave from this thread between rounds.
  const size_t kRounds = 30 * WorkloadIterations();
  for (size_t round = 0; round < kRounds; ++round) {
    {
      auto guard = exec.Quiesce();
      for (int i = 0; i < 24; ++i) {
        Point p{static_cast<Coord>(rng() % kDomain),
                static_cast<Coord>(rng() % kDomain), id++};
        ASSERT_TRUE(dyn.Insert(p).ok());
        oracle.Insert(p);
        live.push_back(p);
      }
      for (int i = 0; i < 16 && !live.empty(); ++i) {
        size_t j = rng() % live.size();
        bool found = false;
        ASSERT_TRUE(dyn.Delete(live[j], &found).ok());
        ASSERT_TRUE(found);
        ASSERT_TRUE(oracle.Erase(live[j]));
        live.erase(live.begin() + j);
      }
    }
    // A read batch while the maintenance thread may be preparing.
    std::vector<ThreeSidedQuery> qs = {{0, kDomain, 0}};
    std::vector<std::vector<Point>> got(qs.size());
    auto report = exec.RunBatch(
        std::span<const ThreeSidedQuery>(qs),
        [&](const ThreeSidedQuery& q, size_t index, unsigned) {
          VectorSink<Point> sink(&got[index]);
          return dyn.Query(q, &sink);
        });
    ASSERT_TRUE(report.ok()) << report.FirstError().ToString();
  }
  maint.Drain();
  // The hook fired and the split-phase pipeline ran to completion at
  // least once (commit or clean stamp-abort, never a failure).
  EXPECT_GT(maint.rebuilds_committed() + maint.rebuilds_aborted(), 0u);
  EXPECT_EQ(maint.rebuilds_failed(), 0u);

  std::vector<Point> finals;
  VectorSink<Point> sink(&finals);
  ASSERT_TRUE(dyn.Query({0, kDomain, 0}, &sink).ok());
  SortPoints(&finals);
  EXPECT_EQ(finals, oracle.ThreeSided({0, kDomain, 0}));
  ASSERT_TRUE(dyn.CheckInvariants().ok());
}

TEST(ConcurrentWriter, ExternalPstBackgroundRebuildMatchesOracle) {
  BlockDevice dev(PageSizeForBranching(kB));
  Pager pager(&dev, 512);
  auto pst = ExternalPst::Build(&pager, std::span<const Point>{});
  ASSERT_TRUE(pst.ok());
  QueryExecutor exec(2);
  MaintenanceThread maint(exec.gate());
  pst->SetRebuildHook([&] { maint.Schedule(maint.RebuildJob(&*pst)); });

  std::mt19937_64 rng(EffectiveWorkloadSeed(0xE2));
  PointOracle oracle;
  std::vector<Point> live;
  uint64_t id = 1;
  const size_t kRounds = 20 * WorkloadIterations();
  for (size_t round = 0; round < kRounds; ++round) {
    {
      auto guard = exec.Quiesce();
      for (int i = 0; i < 32; ++i) {
        Point p{static_cast<Coord>(rng() % kDomain),
                static_cast<Coord>(rng() % kDomain), id++};
        ASSERT_TRUE(pst->Insert(p).ok());
        oracle.Insert(p);
        live.push_back(p);
      }
      for (int i = 0; i < 24 && !live.empty(); ++i) {
        size_t j = rng() % live.size();
        bool found = false;
        ASSERT_TRUE(pst->Delete(live[j], &found).ok());
        ASSERT_TRUE(found);
        ASSERT_TRUE(oracle.Erase(live[j]));
        live.erase(live.begin() + j);
      }
    }
    std::vector<ThreeSidedQuery> qs = {{0, kDomain, 0}};
    std::vector<std::vector<Point>> got(qs.size());
    auto report = exec.RunBatch(
        std::span<const ThreeSidedQuery>(qs),
        [&](const ThreeSidedQuery& q, size_t index, unsigned) {
          VectorSink<Point> sink(&got[index]);
          return pst->Query(q, &sink);
        });
    ASSERT_TRUE(report.ok()) << report.FirstError().ToString();
  }
  maint.Drain();
  EXPECT_EQ(maint.rebuilds_failed(), 0u);

  std::vector<Point> finals;
  VectorSink<Point> sink(&finals);
  ASSERT_TRUE(pst->Query({0, kDomain, 0}, &sink).ok());
  SortPoints(&finals);
  EXPECT_EQ(finals, oracle.ThreeSided({0, kDomain, 0}));
  ASSERT_TRUE(pst->CheckInvariants().ok());
}

}  // namespace
}  // namespace ccidx
