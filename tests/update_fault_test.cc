// Fault-injection sweep over every new update path (DESIGN.md §8).
//
// For each dynamized family, a fixed update script (inserts crossing the
// merge/buffer thresholds, then enough deletes to trigger the scheduled
// purge rebuild) runs with a device fault injected at every transfer
// offset k. The contract under any injected failure:
//   * the Status propagates (no crash, no CHECK),
//   * live_pages returns to the pre-op baseline (the failed operation
//     leaked nothing — TxnScope rollback plus free-by-id),
//   * the structure still answers queries correctly afterwards.
// An operation that fails mid-way may or may not have logically landed
// (e.g. the tombstone was recorded but the purge it triggered failed, or
// a buffered insert was staged but its merge failed); the sweep accepts
// either the pre-op or post-op oracle state — anything else is a bug.

#include <algorithm>
#include <cstdlib>
#include <optional>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/bptree/bptree.h"
#include "ccidx/classes/hierarchy.h"
#include "ccidx/classes/rake_contract.h"
#include "ccidx/constraint/generalized_index.h"
#include "ccidx/core/augmented_metablock_tree.h"
#include "ccidx/core/augmented_three_sided_tree.h"
#include "ccidx/core/corner_structure.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/dynamic/adapters.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/io/wal.h"
#include "ccidx/pst/external_pst.h"
#include "ccidx/testutil/oracles.h"

namespace ccidx {
namespace {

constexpr Coord kDomain = 1024;
constexpr uint32_t kBranching = 8;

// ---------------------------------------------------------------------------
// Sweep driver
// ---------------------------------------------------------------------------

// Setup contract:
//   Status Reset(Pager*)    — fresh structure + oracle model
//   size_t NumOps() const   — script length
//   Status ApplyOp(size_t)  — apply op i to the structure only
//   void CommitOp(size_t)   — apply op i to the oracle model
//   Status Verify() const   — structure == model (+ invariants)
template <typename Setup>
void FaultSweep(Setup& setup) {
  // Dry run: the script must succeed fault-free and gives the transfer
  // budget to sweep.
  uint64_t total;
  {
    BlockDevice dev(PageSizeForBranching(kBranching));
    Pager pager(&dev, 0);
    ASSERT_TRUE(setup.Reset(&pager).ok());
    IoStats before = dev.stats();
    for (size_t i = 0; i < setup.NumOps(); ++i) {
      Status s = setup.ApplyOp(i);
      ASSERT_TRUE(s.ok()) << "dry run op " << i << ": " << s.ToString();
      setup.CommitOp(i);
    }
    Status v = setup.Verify();
    ASSERT_TRUE(v.ok()) << v.ToString();
    IoStats used = dev.stats() - before;
    total = used.device_reads + used.device_writes;
  }
  ASSERT_GT(total, 0u);

  size_t injected = 0, observed_failures = 0;
  for (uint64_t k = 0; k < total; ++k) {
    BlockDevice dev(PageSizeForBranching(kBranching));
    Pager pager(&dev, 0);
    ASSERT_TRUE(setup.Reset(&pager).ok());
    dev.SetFailAfter(static_cast<int64_t>(k));
    injected++;
    bool failed = false;
    for (size_t i = 0; i < setup.NumOps(); ++i) {
      uint64_t live_before = dev.live_pages();
      Status s = setup.ApplyOp(i);
      if (s.ok()) {
        setup.CommitOp(i);
        continue;
      }
      failed = true;
      dev.SetFailAfter(-1);
      EXPECT_EQ(dev.live_pages(), live_before)
          << "page leak after injected fault at transfer " << k << ", op "
          << i;
      // Pre-op or post-op state both acceptable (see file comment).
      Status v = setup.Verify();
      if (!v.ok()) {
        setup.CommitOp(i);
        v = setup.Verify();
      }
      EXPECT_TRUE(v.ok()) << "structure corrupt after fault at transfer "
                          << k << ", op " << i << ": " << v.ToString();
      break;
    }
    dev.SetFailAfter(-1);
    if (failed) {
      observed_failures++;
    } else {
      // The ops consumed fewer transfers than k: the remaining offsets
      // land in no-op territory — the sweep is complete.
      break;
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(observed_failures, 0u) << "sweep injected " << injected
                                   << " faults but none fired";
}

// Resumable-composite sweep: the class/constraint composites delete from
// several component structures; each component delete is atomic but the
// composite is documented as RESUMABLE — after an injected failure,
// retrying the same op (fault cleared) must converge, and the final
// state must equal the fully-applied model. Setup contract as FaultSweep
// minus CommitOp (ops always land eventually).
template <typename Setup>
void FaultSweepResumable(Setup& setup) {
  uint64_t total;
  {
    BlockDevice dev(PageSizeForBranching(kBranching));
    Pager pager(&dev, 0);
    ASSERT_TRUE(setup.Reset(&pager).ok());
    IoStats before = dev.stats();
    for (size_t i = 0; i < setup.NumOps(); ++i) {
      Status s = setup.ApplyOp(i);
      ASSERT_TRUE(s.ok()) << "dry run op " << i << ": " << s.ToString();
    }
    Status v = setup.Verify();
    ASSERT_TRUE(v.ok()) << v.ToString();
    IoStats used = dev.stats() - before;
    total = used.device_reads + used.device_writes;
  }
  ASSERT_GT(total, 0u);

  size_t observed_failures = 0;
  for (uint64_t k = 0; k < total; ++k) {
    BlockDevice dev(PageSizeForBranching(kBranching));
    Pager pager(&dev, 0);
    ASSERT_TRUE(setup.Reset(&pager).ok());
    dev.SetFailAfter(static_cast<int64_t>(k));
    bool failed = false;
    for (size_t i = 0; i < setup.NumOps(); ++i) {
      Status s = setup.ApplyOp(i);
      if (!s.ok()) {
        failed = true;
        dev.SetFailAfter(-1);
        // Resume: the same op must converge once the device recovers.
        Status retry = setup.ApplyOp(i);
        ASSERT_TRUE(retry.ok())
            << "op " << i << " did not resume after fault at transfer "
            << k << ": " << retry.ToString();
      }
    }
    dev.SetFailAfter(-1);
    Status v = setup.Verify();
    EXPECT_TRUE(v.ok()) << "state diverged after fault at transfer " << k
                        << ": " << v.ToString();
    if (failed) {
      observed_failures++;
    } else {
      break;  // k beyond the script's transfer count: sweep complete
    }
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(observed_failures, 0u);
}

// ---------------------------------------------------------------------------
// Point-family setup
// ---------------------------------------------------------------------------

// Script: a few inserts (crossing buffer/merge thresholds), then deletes
// of most live points (crossing the purge threshold).
struct ScriptOp {
  bool is_insert;
  Point p;
};

// When `inserts_in_script` the fresh points are script ops (swept under
// fault injection — only for families whose insert path is fault-atomic:
// the shadow-path PST, the corner buffer, the log-method merges). When
// false they land in `pre_inserts`, applied fault-free during Reset so
// the sweep still starts from a state with populated update buffers but
// targets only the (new) delete/purge paths — the historical incremental
// insert cascades of the augmented trees are not fault-atomic and are
// out of this sweep's contract.
std::vector<ScriptOp> MakePointScript(std::vector<Point>* initial,
                                      std::vector<Point>* pre_inserts,
                                      bool above_diagonal, size_t n_init,
                                      size_t n_insert, size_t n_delete,
                                      bool inserts_in_script) {
  std::mt19937_64 rng(0xFA017);
  std::uniform_int_distribution<Coord> d(0, kDomain - 1);
  uint64_t id = 0;
  auto fresh = [&]() -> Point {
    Coord a = d(rng), b = d(rng);
    if (above_diagonal) return {std::min(a, b), std::max(a, b), id++};
    return {a, b, id++};
  };
  initial->clear();
  pre_inserts->clear();
  for (size_t i = 0; i < n_init; ++i) initial->push_back(fresh());
  std::vector<ScriptOp> script;
  std::vector<Point> live = *initial;
  for (size_t i = 0; i < n_insert; ++i) {
    Point p = fresh();
    if (inserts_in_script) {
      script.push_back({true, p});
    } else {
      pre_inserts->push_back(p);
    }
    live.push_back(p);
  }
  for (size_t i = 0; i < n_delete && i < live.size(); ++i) {
    script.push_back({false, live[i]});
  }
  return script;
}

// St needs Insert/Delete/Query/size/CheckInvariants; `Make` builds it
// from (Pager*, vector<Point>). Diagonal families compare at anchors,
// 3-sided families over the full extent.
template <typename St, bool kDiagonal, bool kInsertsInScript>
struct PointFaultSetup {
  std::vector<Point> initial;
  std::vector<Point> pre_inserts;
  std::vector<ScriptOp> script;
  std::optional<St> st;
  PointOracle model;

  template <typename Make>
  Status ResetWith(Pager* pager, Make make) {
    if (script.empty()) {
      script = MakePointScript(&initial, &pre_inserts, kDiagonal, 32, 12, 36,
                               kInsertsInScript);
    }
    st.reset();
    auto built = make(pager, std::vector<Point>(initial));
    CCIDX_RETURN_IF_ERROR(built.status());
    st.emplace(std::move(*built));
    model = PointOracle(std::vector<Point>(initial));
    for (const Point& p : pre_inserts) {  // fault-free (before injection)
      CCIDX_RETURN_IF_ERROR(st->Insert(p));
      model.Insert(p);
    }
    return Status::OK();
  }

  size_t NumOps() const { return script.size(); }

  Status ApplyOp(size_t i) {
    const ScriptOp& op = script[i];
    if (op.is_insert) return st->Insert(op.p);
    bool found = false;
    return st->Delete(op.p, &found);
  }

  void CommitOp(size_t i) {
    const ScriptOp& op = script[i];
    if (op.is_insert) {
      model.Insert(op.p);
    } else {
      model.Erase(op.p);
    }
  }

  Status Verify() const {
    CCIDX_RETURN_IF_ERROR(st->CheckInvariants());
    if (st->size() != model.size()) {
      return Status::Corruption("size mismatch");
    }
    if constexpr (kDiagonal) {
      for (Coord a : {Coord{0}, kDomain / 4, kDomain / 2, kDomain}) {
        std::vector<Point> got;
        VectorSink<Point> sink(&got);
        CCIDX_RETURN_IF_ERROR(st->Query(DiagonalQuery{a}, &sink));
        SortPoints(&got);
        if (got != model.Diagonal({a})) {
          return Status::Corruption("diagonal anchor mismatch");
        }
      }
    } else {
      ThreeSidedQuery all{kCoordMin, kCoordMax, kCoordMin};
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Query(all, &sink));
      SortPoints(&got);
      if (got != model.ThreeSided(all)) {
        return Status::Corruption("full extent mismatch");
      }
    }
    return Status::OK();
  }
};

struct AmtSetup : PointFaultSetup<AugmentedMetablockTree, true, false> {
  Status Reset(Pager* pager) {
    return ResetWith(pager, [](Pager* p, std::vector<Point> pts) {
      return AugmentedMetablockTree::Build(p, std::move(pts));
    });
  }
};

struct AtsSetup : PointFaultSetup<AugmentedThreeSidedTree, false, false> {
  Status Reset(Pager* pager) {
    return ResetWith(pager, [](Pager* p, std::vector<Point> pts) {
      return AugmentedThreeSidedTree::Build(p, std::move(pts));
    });
  }
};

struct PstSetup : PointFaultSetup<ExternalPst, false, true> {
  Status Reset(Pager* pager) {
    return ResetWith(pager, [](Pager* p, std::vector<Point> pts) {
      return ExternalPst::Build(p, std::move(pts));
    });
  }
};

struct DynMetaSetup : PointFaultSetup<DynamicMetablockTree, true, true> {
  Status Reset(Pager* pager) {
    return ResetWith(pager, [](Pager* p, std::vector<Point> pts) {
      return DynamicMetablockTree::Build(p, std::move(pts));
    });
  }
};

struct DynThreeSetup : PointFaultSetup<DynamicThreeSidedTree, false, true> {
  Status Reset(Pager* pager) {
    return ResetWith(pager, [](Pager* p, std::vector<Point> pts) {
      return DynamicThreeSidedTree::Build(p, std::move(pts));
    });
  }
};

// ---------------------------------------------------------------------------
// Corner structure (bounded component): its own small script.
// ---------------------------------------------------------------------------

struct CornerSetup {
  std::vector<Point> initial;
  std::vector<Point> pre_inserts;
  std::vector<ScriptOp> script;
  std::optional<CornerStructure> st;
  PointOracle model;

  Status Reset(Pager* pager) {
    if (script.empty()) {
      script = MakePointScript(&initial, &pre_inserts, true, 24, 12, 24,
                               /*inserts_in_script=*/true);
    }
    st.reset();
    auto built = CornerStructure::Build(pager, std::vector<Point>(initial));
    CCIDX_RETURN_IF_ERROR(built.status());
    st.emplace(std::move(*built));
    model = PointOracle(std::vector<Point>(initial));
    return Status::OK();
  }

  size_t NumOps() const { return script.size(); }

  Status ApplyOp(size_t i) {
    const ScriptOp& op = script[i];
    if (op.is_insert) return st->Insert(op.p);
    bool found = false;
    return st->Delete(op.p, &found);
  }

  void CommitOp(size_t i) {
    const ScriptOp& op = script[i];
    if (op.is_insert) {
      model.Insert(op.p);
    } else {
      model.Erase(op.p);
    }
  }

  Status Verify() const {
    if (st->size() != model.size()) {
      return Status::Corruption("corner size mismatch");
    }
    for (Coord a : {Coord{0}, kDomain / 4, kDomain / 2, kDomain}) {
      std::vector<Point> got;
      VectorSink<Point> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Query(a, &sink));
      SortPoints(&got);
      if (got != model.Diagonal({a})) {
        return Status::Corruption("corner anchor mismatch");
      }
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Interval index
// ---------------------------------------------------------------------------

struct IntervalSetup {
  std::vector<Interval> initial;
  std::vector<Interval> pre_inserts;
  std::vector<std::pair<bool, Interval>> script;  // (is_insert, interval)
  std::optional<IntervalIndex> st;
  IntervalOracle model;

  Status Reset(Pager* pager) {
    if (script.empty()) {
      std::mt19937_64 rng(0xFA118);
      std::uniform_int_distribution<Coord> d(0, kDomain - 1);
      uint64_t id = 0;
      auto fresh = [&]() -> Interval {
        Coord a = d(rng), b = d(rng);
        return {std::min(a, b), std::max(a, b), id++};
      };
      for (int i = 0; i < 32; ++i) initial.push_back(fresh());
      // Inserts ride the historical (non-fault-atomic) B+-tree/metablock
      // insert cascades, so they run fault-free in Reset; the sweep
      // targets the new Delete path.
      for (int i = 0; i < 8; ++i) pre_inserts.push_back(fresh());
      std::vector<Interval> live = initial;
      live.insert(live.end(), pre_inserts.begin(), pre_inserts.end());
      for (int i = 0; i < 32; ++i) script.push_back({false, live[i]});
    }
    st.reset();
    auto built = IntervalIndex::Build(pager, std::vector<Interval>(initial));
    CCIDX_RETURN_IF_ERROR(built.status());
    st.emplace(std::move(*built));
    model = IntervalOracle();
    for (const Interval& iv : initial) model.Insert(iv);
    for (const Interval& iv : pre_inserts) {
      CCIDX_RETURN_IF_ERROR(st->Insert(iv));
      model.Insert(iv);
    }
    return Status::OK();
  }

  size_t NumOps() const { return script.size(); }

  Status ApplyOp(size_t i) {
    if (script[i].first) return st->Insert(script[i].second);
    bool found = false;
    return st->Delete(script[i].second, &found);
  }

  void CommitOp(size_t i) {
    if (script[i].first) {
      model.Insert(script[i].second);
    } else {
      model.Erase(script[i].second);
    }
  }

  Status Verify() const {
    if (st->size() != model.size()) {
      return Status::Corruption("interval size mismatch");
    }
    std::vector<Interval> got;
    VectorSink<Interval> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->Intersect(-1, kDomain + 1, &sink));
    SortIntervals(&got);
    if (got != model.Intersect(-1, kDomain + 1)) {
      return Status::Corruption("interval full extent mismatch");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Composite families (resumable delete walks)
// ---------------------------------------------------------------------------

struct RakeSetup {
  std::unique_ptr<ClassHierarchy> hierarchy;
  std::vector<Object> initial;
  std::vector<Object> to_delete;
  std::optional<RakeContractIndex> st;
  std::vector<Object> model;  // final expected live set

  Status Reset(Pager* pager) {
    if (hierarchy == nullptr) {
      hierarchy = std::make_unique<ClassHierarchy>();
      uint32_t spine = *hierarchy->AddClass("root");
      for (int i = 0; i < 3; ++i) {
        uint32_t mid = *hierarchy->AddClass("mid", spine);
        (void)*hierarchy->AddClass("leafA", mid);
        (void)*hierarchy->AddClass("leafB", mid);
        spine = mid;
      }
      CCIDX_RETURN_IF_ERROR(hierarchy->Freeze());
      std::mt19937_64 rng(0xFA219);
      for (uint64_t i = 0; i < 40; ++i) {
        initial.push_back({i, static_cast<uint32_t>(rng() % hierarchy->size()),
                           static_cast<Coord>(rng() % kDomain)});
      }
      to_delete.assign(initial.begin(), initial.begin() + 28);
      model.assign(initial.begin() + 28, initial.end());
    }
    st.reset();
    auto built = RakeContractIndex::Build(pager, hierarchy.get(), initial);
    CCIDX_RETURN_IF_ERROR(built.status());
    st.emplace(std::move(*built));
    return Status::OK();
  }

  size_t NumOps() const { return to_delete.size(); }

  Status ApplyOp(size_t i) {
    bool found = false;
    return st->Delete(to_delete[i], &found);
  }

  Status Verify() const {
    for (uint32_t cls = 0; cls < hierarchy->size(); ++cls) {
      std::vector<uint64_t> got;
      VectorSink<uint64_t> sink(&got);
      CCIDX_RETURN_IF_ERROR(st->Query(cls, 0, kDomain, &sink));
      std::sort(got.begin(), got.end());
      std::vector<uint64_t> want =
          NaiveClassQuery(*hierarchy, model, cls, 0, kDomain);
      if (got != want) {
        return Status::Corruption("rake class " + std::to_string(cls) +
                                  " mismatch");
      }
    }
    return Status::OK();
  }
};

struct GeneralizedSetup {
  std::vector<Interval> initial;  // x-projections, id = tuple id
  size_t n_delete = 24;
  std::optional<GeneralizedIndex> st;

  Status Reset(Pager* pager) {
    if (initial.empty()) {
      std::mt19937_64 rng(0xFA31A);
      for (uint64_t i = 0; i < 36; ++i) {
        Coord a = static_cast<Coord>(rng() % kDomain);
        Coord b = static_cast<Coord>(rng() % kDomain);
        initial.push_back({std::min(a, b), std::max(a, b), i});
      }
    }
    st.emplace(pager, /*arity=*/2, /*indexed_var=*/0);
    for (const Interval& key : initial) {
      GeneralizedTuple t(key.id, 2);
      CCIDX_RETURN_IF_ERROR(t.AddRange(0, key.lo, key.hi));
      CCIDX_RETURN_IF_ERROR(st->Insert(t));
    }
    return Status::OK();
  }

  size_t NumOps() const { return n_delete; }

  Status ApplyOp(size_t i) {
    bool found = false;
    return st->Delete(initial[i].id, &found);
  }

  Status Verify() const {
    std::vector<uint64_t> got;
    VectorSink<uint64_t> sink(&got);
    CCIDX_RETURN_IF_ERROR(st->RangeQueryIds(0, kDomain, &sink));
    std::sort(got.begin(), got.end());
    std::vector<uint64_t> want;
    for (size_t i = n_delete; i < initial.size(); ++i) {
      want.push_back(initial[i].id);
    }
    std::sort(want.begin(), want.end());
    if (got != want || st->size() != want.size()) {
      return Status::Corruption("generalized live-set mismatch");
    }
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Crash-recovery differential sweep (DESIGN.md §13)
// ---------------------------------------------------------------------------
//
// The FaultSweep above proves in-process fault atomicity; this sweep
// proves crash durability. The script runs with a WAL attached and
// simulated power loss at every log-record boundary (clean: the record
// vanishes; torn: a partial prefix survives). After Wal::Recover the
// family is re-attached from the recovered meta blob and must answer
// exactly as the oracle of the committed-op prefix — or, when the kill
// point landed after the in-flight op's final commit record, the prefix
// plus that op. Anything else (a half-applied split, a resurrected
// freed page, a stale root) is a recovery bug.
//
// Subjects are the attachable families (the ones whose handle state
// round-trips through the meta registry): the B+-tree, the corner
// structure, and the dynamized metablock tree. The non-attachable
// families recover through their owner's rebuild and are covered by the
// FaultSweep contract plus the WAL unit tests.
//
// CrashSetup contract = FaultSweep's Setup plus:
//   const char* MetaKey() const          — meta-registry key
//   std::vector<uint8_t> Meta() const    — provider body (SerializeMeta)
//   Status Reattach(Pager*, span meta)   — rebuild the handle post-Recover

constexpr uint64_t kNoOpCommitted = ~uint64_t{0};

// The log of one kill point. With the file backend it is a fresh file
// (Reset truncates, but a crashed run leaves a tail behind — never reuse it
// across iterations), removed before use and again when the kill point
// returns, on every path, so a sweep leaves no logs behind.
class SweepLog {
 public:
  SweepLog(bool file_backend, uint64_t kill_point) {
    if (!file_backend) return;
    path_ = ::testing::TempDir() + "ccidx_crash_sweep_" +
            std::to_string(kill_point) + ".wal";
    std::remove(path_.c_str());
  }
  ~SweepLog() {
    if (!path_.empty()) std::remove(path_.c_str());
  }
  SweepLog(const SweepLog&) = delete;
  SweepLog& operator=(const SweepLog&) = delete;

  std::unique_ptr<WalStorage> MakeStorage() const {
    return path_.empty() ? MakeMemWalStorage() : MakeFileWalStorage(path_);
  }

 private:
  std::string path_;
};

// One simulated crash at record boundary `k`, recovery, reattach, and
// the differential check. Returns false when the script finished without
// tripping the kill point (k beyond the script's record count).
template <typename Setup>
bool RunOneKillPoint(Setup& setup, uint64_t k, bool file_backend,
                     Wal::CrashMode mode) {
  // Declared before the Wal, so the log is closed before it is removed.
  SweepLog log(file_backend, k);
  BlockDevice dev(PageSizeForBranching(kBranching));
  Pager pager(&dev, 0);
  Status st = setup.Reset(&pager);
  EXPECT_TRUE(st.ok()) << st.ToString();
  if (!st.ok()) return false;

  uint64_t cur_op = kNoOpCommitted;
  Wal wal(&dev, log.MakeStorage());
  wal.SetMetaProvider(setup.MetaKey(), [&] { return setup.Meta(); });
  // Test-layer commit watermark: every commit record carries the index
  // of the op that produced it, so recovery reports exactly how far the
  // committed prefix reaches.
  wal.SetMetaProvider("op_seq", [&] {
    WalEncoder enc;
    enc.PutU64(cur_op);
    return std::move(enc).Take();
  });
  pager.AttachWal(&wal);  // baseline checkpoint of the built structure
  wal.SetCrashAfterRecords(static_cast<int64_t>(k), mode);

  size_t crashed_op = setup.NumOps();
  for (size_t i = 0; i < setup.NumOps(); ++i) {
    cur_op = i;
    Status s = setup.ApplyOp(i);
    if (s.ok()) {
      setup.CommitOp(i);
      continue;
    }
    // Only the simulated power loss may fail an op in this sweep.
    EXPECT_TRUE(wal.crashed())
        << "op " << i << " failed without a crash: " << s.ToString();
    crashed_op = i;
    break;
  }
  if (!wal.crashed()) return false;  // script used fewer than k records
  EXPECT_LT(crashed_op, setup.NumOps());

  auto info = wal.Recover(&pager);
  EXPECT_TRUE(info.ok()) << "recovery failed at kill " << k << ": "
                         << info.status().ToString();
  if (!info.ok()) return true;
  if (mode == Wal::CrashMode::kClean) {
    EXPECT_FALSE(info->torn_tail) << "clean kill produced a torn tail";
  }

  auto it = info->metas.find(setup.MetaKey());
  EXPECT_TRUE(it != info->metas.end()) << "recovered metas lost the family";
  if (it == info->metas.end()) return true;
  st = setup.Reattach(&pager, it->second);
  EXPECT_TRUE(st.ok()) << "reattach after kill at record " << k << " ("
                       << (file_backend ? "file" : "mem") << "): "
                       << st.ToString();
  if (!st.ok()) return true;

  uint64_t recovered_seq = kNoOpCommitted;
  if (auto os = info->metas.find("op_seq"); os != info->metas.end()) {
    WalDecoder dec(os->second);
    recovered_seq = dec.GetU64();
  }

  // Differential: the committed prefix — or prefix + crashed op when its
  // final commit record beat the kill point (a multi-txn op can also
  // durably finish a logically-invisible physical reorganization, which
  // is why the watermark below allows either index).
  Status v = setup.Verify();
  if (!v.ok()) {
    setup.CommitOp(crashed_op);
    v = setup.Verify();
  }
  EXPECT_TRUE(v.ok()) << "recovered state diverges from oracle at kill "
                      << k << " (" << (file_backend ? "file" : "mem") << ", "
                      << (mode == Wal::CrashMode::kTorn ? "torn" : "clean")
                      << "): " << v.ToString();
  const uint64_t committed_ops =
      recovered_seq == kNoOpCommitted ? 0 : recovered_seq + 1;
  EXPECT_LE(committed_ops, crashed_op + 1);
  EXPECT_GE(committed_ops + (crashed_op == 0 ? 1 : 0), crashed_op)
      << "commit watermark " << committed_ops << " behind crashed op "
      << crashed_op;
  return true;
}

template <typename Setup>
void CrashRecoverySweep(Setup& setup, bool file_backend,
                        Wal::CrashMode mode) {
  // Dry run with the WAL attached: counts the script's record budget.
  uint64_t total;
  {
    BlockDevice dev(PageSizeForBranching(kBranching));
    Pager pager(&dev, 0);
    ASSERT_TRUE(setup.Reset(&pager).ok());
    uint64_t cur_op = kNoOpCommitted;
    Wal wal(&dev, MakeMemWalStorage());
    wal.SetMetaProvider(setup.MetaKey(), [&] { return setup.Meta(); });
    wal.SetMetaProvider("op_seq", [&] {
      WalEncoder enc;
      enc.PutU64(cur_op);
      return std::move(enc).Take();
    });
    pager.AttachWal(&wal);
    uint64_t base = wal.records();
    for (size_t i = 0; i < setup.NumOps(); ++i) {
      cur_op = i;
      Status s = setup.ApplyOp(i);
      ASSERT_TRUE(s.ok()) << "dry run op " << i << ": " << s.ToString();
      setup.CommitOp(i);
    }
    Status v = setup.Verify();
    ASSERT_TRUE(v.ok()) << v.ToString();
    total = wal.records() - base;
  }
  ASSERT_GT(total, 0u);

  size_t kill_points = 0;
  for (uint64_t k = 0; k < total; ++k) {
    if (!RunOneKillPoint(setup, k, file_backend, mode)) break;
    kill_points++;
    if (::testing::Test::HasFailure()) break;
  }
  EXPECT_GT(kill_points, 0u) << "sweep of " << total
                             << " records tripped no kill point";
}

// Randomized stress mode (the nightly CI job): CCIDX_CRASH_STRESS_ITERS
// extra kill points drawn uniformly over the record budget with random
// backend/mode, seeded by CCIDX_CRASH_STRESS_SEED (default fixed).
template <typename Setup>
void CrashRecoveryStress(Setup& setup, size_t iters, std::mt19937_64* rng) {
  uint64_t total;
  {
    BlockDevice dev(PageSizeForBranching(kBranching));
    Pager pager(&dev, 0);
    ASSERT_TRUE(setup.Reset(&pager).ok());
    Wal wal(&dev, MakeMemWalStorage());
    wal.SetMetaProvider(setup.MetaKey(), [&] { return setup.Meta(); });
    pager.AttachWal(&wal);
    uint64_t base = wal.records();
    for (size_t i = 0; i < setup.NumOps(); ++i) {
      ASSERT_TRUE(setup.ApplyOp(i).ok());
      setup.CommitOp(i);
    }
    total = wal.records() - base;
  }
  ASSERT_GT(total, 0u);
  for (size_t it = 0; it < iters && !::testing::Test::HasFailure(); ++it) {
    uint64_t k = (*rng)() % total;
    bool file_backend = ((*rng)() & 1) != 0;
    Wal::CrashMode mode = ((*rng)() & 1) != 0 ? Wal::CrashMode::kTorn
                                              : Wal::CrashMode::kClean;
    RunOneKillPoint(setup, k, file_backend, mode);
  }
}

// --- subjects --------------------------------------------------------------

// B+-tree: bulk-loaded base, then inserts driving leaf/node splits and
// deletes (including a duplicate run) — the multi-page split chains the
// WAL exists to make atomic.
struct BtreeCrashSetup {
  struct Op {
    bool is_insert;
    int64_t key;
    uint64_t value;
  };
  std::vector<BtEntry> initial;
  std::vector<Op> script;
  std::optional<BPlusTree> st;
  std::vector<std::pair<int64_t, uint64_t>> model;  // sorted (key, value)

  Status Reset(Pager* pager) {
    if (script.empty()) {
      for (int64_t k = 0; k < 48; ++k) {
        initial.push_back({k * 7, static_cast<uint64_t>(k), -k});
      }
      std::mt19937_64 rng(0xFA42C);
      for (int i = 0; i < 20; ++i) {
        // Clustered keys force splits in one subtree; a few duplicates.
        int64_t key = 100 + static_cast<int64_t>(rng() % 8);
        script.push_back({true, key, static_cast<uint64_t>(1000 + i)});
      }
      for (int i = 0; i < 10; ++i) {
        script.push_back({false, initial[i * 3].key, initial[i * 3].value});
      }
      for (int i = 0; i < 6; ++i) {  // duplicate-run deletes
        script.push_back({false, 100 + i, static_cast<uint64_t>(1000 + i)});
      }
    }
    st.reset();
    auto built = BPlusTree::BulkLoad(pager, initial);
    CCIDX_RETURN_IF_ERROR(built.status());
    st.emplace(std::move(*built));
    model.clear();
    for (const BtEntry& e : initial) model.push_back({e.key, e.value});
    std::sort(model.begin(), model.end());
    return Status::OK();
  }

  size_t NumOps() const { return script.size(); }

  Status ApplyOp(size_t i) {
    const Op& op = script[i];
    if (op.is_insert) return st->Insert(op.key, op.value);
    bool found = false;
    return st->Delete(op.key, op.value, &found);
  }

  void CommitOp(size_t i) {
    const Op& op = script[i];
    std::pair<int64_t, uint64_t> e{op.key, op.value};
    if (op.is_insert) {
      model.insert(std::upper_bound(model.begin(), model.end(), e), e);
    } else {
      auto it = std::find(model.begin(), model.end(), e);
      if (it != model.end()) model.erase(it);
    }
  }

  const char* MetaKey() const { return "btree"; }
  std::vector<uint8_t> Meta() const { return st->SerializeMeta(); }
  Status Reattach(Pager* pager, std::span<const uint8_t> meta) {
    auto r = BPlusTree::AttachMeta(pager, meta);
    CCIDX_RETURN_IF_ERROR(r.status());
    st.emplace(std::move(*r));
    return Status::OK();
  }

  Status Verify() const {
    CCIDX_RETURN_IF_ERROR(st->CheckInvariants());
    if (st->size() != model.size()) {
      return Status::Corruption("btree size mismatch");
    }
    std::vector<BtEntry> out;
    VectorSink<BtEntry> sink(&out);
    CCIDX_RETURN_IF_ERROR(st->RangeScan(-1, 1 << 20, &sink));
    std::vector<std::pair<int64_t, uint64_t>> got;
    for (const BtEntry& e : out) got.push_back({e.key, e.value});
    std::sort(got.begin(), got.end());
    if (got != model) return Status::Corruption("btree content mismatch");
    return Status::OK();
  }
};

struct CornerCrashSetup : CornerSetup {
  const char* MetaKey() const { return "corner"; }
  std::vector<uint8_t> Meta() const { return st->SerializeMeta(); }
  Status Reattach(Pager* pager, std::span<const uint8_t> meta) {
    auto r = CornerStructure::AttachMeta(pager, meta);
    CCIDX_RETURN_IF_ERROR(r.status());
    st.emplace(std::move(*r));
    return Status::OK();
  }
};

struct DynMetaCrashSetup : DynMetaSetup {
  const char* MetaKey() const { return "dynmeta"; }
  std::vector<uint8_t> Meta() const { return st->SerializeMeta(); }
  Status Reattach(Pager* pager, std::span<const uint8_t> meta) {
    auto r = DynamicMetablockTree::AttachMeta(pager, meta);
    CCIDX_RETURN_IF_ERROR(r.status());
    st.emplace(std::move(*r));
    return Status::OK();
  }
};

// ---------------------------------------------------------------------------
// Sweeps
// ---------------------------------------------------------------------------

TEST(UpdateFaultSweep, AugmentedMetablockTreeDeletePurge) {
  AmtSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, AugmentedThreeSidedTreeDeletePurge) {
  AtsSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, ExternalPstInsertDeleteRebuild) {
  PstSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, CornerStructureInsertDeleteRebuild) {
  CornerSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, DynamicMetablockTreeMergePurge) {
  DynMetaSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, DynamicThreeSidedTreeMergePurge) {
  DynThreeSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, IntervalIndexDelete) {
  IntervalSetup setup;
  FaultSweep(setup);
}

TEST(UpdateFaultSweep, RakeContractDeleteResumes) {
  RakeSetup setup;
  FaultSweepResumable(setup);
}

TEST(UpdateFaultSweep, GeneralizedIndexDeleteResumes) {
  GeneralizedSetup setup;
  FaultSweepResumable(setup);
}

// --- crash-recovery differential (every record boundary, both modes) ------

TEST(CrashRecoverySweep, BtreeMemBackendClean) {
  BtreeCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/false, Wal::CrashMode::kClean);
}

TEST(CrashRecoverySweep, BtreeMemBackendTorn) {
  BtreeCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/false, Wal::CrashMode::kTorn);
}

TEST(CrashRecoverySweep, BtreeFileBackendClean) {
  BtreeCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/true, Wal::CrashMode::kClean);
}

TEST(CrashRecoverySweep, BtreeFileBackendTorn) {
  BtreeCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/true, Wal::CrashMode::kTorn);
}

TEST(CrashRecoverySweep, CornerMemBackendClean) {
  CornerCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/false, Wal::CrashMode::kClean);
}

TEST(CrashRecoverySweep, CornerMemBackendTorn) {
  CornerCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/false, Wal::CrashMode::kTorn);
}

TEST(CrashRecoverySweep, CornerFileBackendClean) {
  CornerCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/true, Wal::CrashMode::kClean);
}

TEST(CrashRecoverySweep, CornerFileBackendTorn) {
  CornerCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/true, Wal::CrashMode::kTorn);
}

TEST(CrashRecoverySweep, DynamicMetablockMemBackendClean) {
  DynMetaCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/false, Wal::CrashMode::kClean);
}

TEST(CrashRecoverySweep, DynamicMetablockMemBackendTorn) {
  DynMetaCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/false, Wal::CrashMode::kTorn);
}

TEST(CrashRecoverySweep, DynamicMetablockFileBackendClean) {
  DynMetaCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/true, Wal::CrashMode::kClean);
}

TEST(CrashRecoverySweep, DynamicMetablockFileBackendTorn) {
  DynMetaCrashSetup setup;
  CrashRecoverySweep(setup, /*file_backend=*/true, Wal::CrashMode::kTorn);
}

// Nightly randomized stress (CI stress.yml): extra kill points with
// random backend/mode per family. Skipped unless CCIDX_CRASH_STRESS_ITERS
// is set.
TEST(CrashRecoverySweep, RandomizedStress) {
  const char* iters_env = std::getenv("CCIDX_CRASH_STRESS_ITERS");
  if (iters_env == nullptr || std::atoll(iters_env) <= 0) {
    GTEST_SKIP() << "set CCIDX_CRASH_STRESS_ITERS to run";
  }
  size_t iters = static_cast<size_t>(std::atoll(iters_env));
  uint64_t seed = 0xC4A54;
  if (const char* s = std::getenv("CCIDX_CRASH_STRESS_SEED")) {
    seed = static_cast<uint64_t>(std::atoll(s));
  }
  std::mt19937_64 rng(seed);
  {
    BtreeCrashSetup setup;
    CrashRecoveryStress(setup, iters, &rng);
  }
  {
    CornerCrashSetup setup;
    CrashRecoveryStress(setup, iters, &rng);
  }
  {
    DynMetaCrashSetup setup;
    CrashRecoveryStress(setup, iters, &rng);
  }
}

}  // namespace
}  // namespace ccidx
