// WAL unit tests (DESIGN.md §13): record encode/parse with torn-tail
// detection, the TxnScope commit and abort protocols over the pager, the
// alloc-no-image optimization, crash undo back to the last committed
// state (clean kill, commit-record kill, pooled pool discard), the meta
// registry overlay (checkpoint < commit < nothing-in-flight), checkpoint
// truncation, group commit under concurrent committers, and file-backend
// log persistence across Wal instances.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/io/wal.h"

namespace ccidx {
namespace {

constexpr uint32_t kPageSize = 256;

std::vector<uint8_t> FilledPage(uint8_t b) {
  return std::vector<uint8_t>(kPageSize, b);
}

Status ReadPage(Pager* pager, PageId id, std::vector<uint8_t>* out) {
  out->assign(kPageSize, 0);
  return pager->Read(id, *out);
}

// ---------------------------------------------------------------------------
// Codec
// ---------------------------------------------------------------------------

TEST(WalCodec, EncoderDecoderRoundTripAndFailSoft) {
  WalEncoder enc;
  enc.PutU16(7);
  enc.PutU32(9);
  enc.PutU64(11);
  enc.PutI64(-13);
  std::vector<uint8_t> blob = {1, 2, 3};
  enc.PutBlob(blob);
  std::vector<uint64_t> pods = {5, 6, 7};
  enc.PutPodVector(pods);
  std::vector<uint8_t> bytes = enc.Take();

  WalDecoder dec(bytes);
  EXPECT_EQ(dec.GetU16(), 7u);
  EXPECT_EQ(dec.GetU32(), 9u);
  EXPECT_EQ(dec.GetU64(), 11u);
  EXPECT_EQ(dec.GetI64(), -13);
  std::span<const uint8_t> got_blob = dec.GetBlob();
  EXPECT_TRUE(std::equal(got_blob.begin(), got_blob.end(), blob.begin(),
                         blob.end()));
  EXPECT_EQ(dec.GetPodVector<uint64_t>(), pods);
  EXPECT_TRUE(dec.ok());
  EXPECT_EQ(dec.remaining(), 0u);

  // Underrun latches !ok() and every later read is zero — a corrupt blob
  // can never read out of bounds.
  WalDecoder trunc(std::span<const uint8_t>(bytes).first(3));
  (void)trunc.GetU32();
  EXPECT_FALSE(trunc.ok());
  EXPECT_EQ(trunc.GetU64(), 0u);
  EXPECT_TRUE(trunc.GetBlob().empty());
}

// ---------------------------------------------------------------------------
// Raw record log
// ---------------------------------------------------------------------------

TEST(WalTest, RecordRoundTripAndTornTail) {
  BlockDevice dev(kPageSize);
  Wal wal(&dev, MakeMemWalStorage());
  std::vector<uint8_t> img = FilledPage(0xAB);

  uint64_t t1 = wal.BeginTxn();
  ASSERT_TRUE(wal.LogAlloc(t1, 3).ok());
  ASSERT_TRUE(wal.LogPageImage(t1, 4, img).ok());
  ASSERT_TRUE(wal.LogFree(t1, 5, img).ok());
  ASSERT_TRUE(wal.CommitTxn(t1).ok());

  std::vector<WalRecord> recs;
  bool torn = true;
  ASSERT_TRUE(wal.ReadRecords(&recs, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 4u);
  EXPECT_EQ(recs[0].type, WalRecordType::kAlloc);
  EXPECT_EQ(recs[0].txn, t1);
  WalDecoder d0(recs[0].payload);
  EXPECT_EQ(d0.GetU64(), 3u);
  EXPECT_EQ(recs[1].type, WalRecordType::kPageImage);
  WalDecoder d1(recs[1].payload);
  EXPECT_EQ(d1.GetU64(), 4u);
  std::span<const uint8_t> got = d1.GetBytes(kPageSize);
  EXPECT_TRUE(std::equal(got.begin(), got.end(), img.begin(), img.end()));
  EXPECT_EQ(recs[2].type, WalRecordType::kFree);
  EXPECT_EQ(recs[3].type, WalRecordType::kCommit);
  EXPECT_EQ(wal.records(), 4u);
  EXPECT_EQ(wal.commits(), 1u);

  // A torn final record fails its CRC and truncates the parse; the
  // wal and the device flip to the crashed ("machine off") state.
  uint64_t t2 = wal.BeginTxn();
  wal.SetCrashAfterRecords(0, Wal::CrashMode::kTorn);
  EXPECT_FALSE(wal.LogPageImage(t2, 6, img).ok());
  EXPECT_TRUE(wal.crashed());
  EXPECT_TRUE(dev.crashed());
  ASSERT_TRUE(wal.ReadRecords(&recs, &torn).ok());
  EXPECT_TRUE(torn);
  EXPECT_EQ(recs.size(), 4u) << "torn tail must not replay";
  // Every further transfer fails until recovery.
  std::vector<uint8_t> buf(kPageSize);
  EXPECT_FALSE(dev.Read(3, buf).ok());
}

// ---------------------------------------------------------------------------
// TxnScope protocols
// ---------------------------------------------------------------------------

TEST(WalTest, ScopeCommitLogsAllocWithoutImageAndZeroRecordScopeIsFree) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);
  EXPECT_EQ(wal.checkpoints(), 1u);  // AttachWal's baseline checkpoint

  // Txn 1: a page allocated inside the txn needs no before-image — undo
  // is the allocation replay alone.
  PageId id;
  {
    TxnScope ws(&pager);
    id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(0x11)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  std::vector<WalRecord> recs;
  ASSERT_TRUE(wal.ReadRecords(&recs, nullptr).ok());
  ASSERT_EQ(recs.size(), 3u);  // checkpoint, alloc, commit — no image
  EXPECT_EQ(recs[0].type, WalRecordType::kCheckpoint);
  EXPECT_EQ(recs[1].type, WalRecordType::kAlloc);
  EXPECT_EQ(recs[2].type, WalRecordType::kCommit);

  // Txn 2: first mutable touch of the now pre-existing page logs its
  // before-image exactly once.
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(id, FilledPage(0x22)).ok());
    ASSERT_TRUE(pager.Write(id, FilledPage(0x33)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  ASSERT_TRUE(wal.ReadRecords(&recs, nullptr).ok());
  ASSERT_EQ(recs.size(), 5u);
  EXPECT_EQ(recs[3].type, WalRecordType::kPageImage);
  WalDecoder dec(recs[3].payload);
  EXPECT_EQ(dec.GetU64(), id);
  std::span<const uint8_t> before = dec.GetBytes(kPageSize);
  EXPECT_EQ(before.front(), 0x11) << "before-image must be txn-1 content";
  EXPECT_EQ(recs[4].type, WalRecordType::kCommit);

  // Zero-record scope abandoned without Commit (a not-found delete, a
  // shared-mode retry): nothing is logged and no abort protocol runs —
  // the no-op path stays free.
  uint64_t before_records = wal.records();
  uint64_t before_commits = wal.commits();
  { TxnScope ws(&pager); }
  EXPECT_EQ(wal.records(), before_records);
  EXPECT_EQ(wal.commits(), before_commits);

  // A zero-record scope that IS committed appends exactly one commit
  // record carrying the registered metas — the WalMetaCommit durability
  // point buffer-only updates rely on.
  {
    TxnScope ws(&pager);
    EXPECT_TRUE(ws.Commit().ok());
  }
  EXPECT_EQ(wal.records(), before_records + 1);
  EXPECT_EQ(wal.commits(), before_commits + 1);

  // Nested scopes fold: one txn, one commit record.
  before_commits = wal.commits();
  {
    TxnScope outer(&pager);
    ASSERT_TRUE(pager.Write(id, FilledPage(0x44)).ok());
    {
      TxnScope inner(&pager);
      ASSERT_TRUE(pager.Write(id, FilledPage(0x55)).ok());
      ASSERT_TRUE(inner.Commit().ok());
    }
    ASSERT_TRUE(outer.Commit().ok());
  }
  EXPECT_EQ(wal.commits(), before_commits + 1);
}

TEST(WalTest, CrashUndoRestoresLastCommittedState) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);  // uncached: uncommitted writes steal to the device
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);

  PageId id;
  {
    TxnScope ws(&pager);
    id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(0x11)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }

  // The overwrite reaches the device, then the machine dies at the
  // commit-record append: recovery must undo it from the before-image.
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(id, FilledPage(0x22)).ok());
    wal.SetCrashAfterRecords(0, Wal::CrashMode::kClean);
    EXPECT_FALSE(ws.Commit().ok());
  }  // dtor abort can't force (device off): the txn stays unresolved

  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_EQ(info->committed_txns, 1u);
  EXPECT_EQ(info->images_restored, 1u);
  EXPECT_FALSE(wal.crashed());
  EXPECT_FALSE(dev.crashed());

  std::vector<uint8_t> out;
  ASSERT_TRUE(ReadPage(&pager, id, &out).ok());
  EXPECT_EQ(out, FilledPage(0x11));

  // The recovery checkpoint re-truncated the log: a second crash with no
  // new txns replays to exactly the same state.
  std::vector<WalRecord> recs;
  ASSERT_TRUE(wal.ReadRecords(&recs, nullptr).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, WalRecordType::kCheckpoint);
  dev.SetCrashed(true);
  auto again = wal.Recover(&pager);
  ASSERT_TRUE(again.ok());
  ASSERT_TRUE(ReadPage(&pager, id, &out).ok());
  EXPECT_EQ(out, FilledPage(0x11));
}

TEST(WalTest, InProcessAbortResolvesSurvivingState) {
  // A failed op's scope aborts while the machine stays up: the surviving
  // pages are forced and an abort record resolves the txn, so a LATER
  // crash keeps them — later committed txns may have built on that state.
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);

  PageId id;
  {
    TxnScope ws(&pager);
    id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(0x11)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(id, FilledPage(0x22)).ok());
    // The op fails here; the scope unwinds without Commit.
  }
  std::vector<WalRecord> recs;
  ASSERT_TRUE(wal.ReadRecords(&recs, nullptr).ok());
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.back().type, WalRecordType::kAbort);

  dev.SetCrashed(true);  // power loss after the abort resolved
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->images_restored, 0u) << "resolved txns are never undone";
  std::vector<uint8_t> out;
  ASSERT_TRUE(ReadPage(&pager, id, &out).ok());
  EXPECT_EQ(out, FilledPage(0x22)) << "aborted op's surviving state kept";
}

TEST(WalTest, PooledPagerCrashDiscardsStaleCache) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 16);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);

  PageId id;
  {
    TxnScope ws(&pager);
    id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(0x11)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(id, FilledPage(0x22)).ok());
    wal.SetCrashAfterRecords(0, Wal::CrashMode::kTorn);
    EXPECT_FALSE(ws.Commit().ok());
  }
  // The pool still holds the uncommitted 0x22 frame; Recover must discard
  // it along with undoing the device copy, or the next read serves
  // pre-crash volatile state.
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(info->torn_tail);
  std::vector<uint8_t> out;
  ASSERT_TRUE(ReadPage(&pager, id, &out).ok());
  EXPECT_EQ(out, FilledPage(0x11));
}

TEST(WalTest, UncommittedFreeIsDeferredAndUndone) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);

  PageId id;
  {
    TxnScope ws(&pager);
    id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(0x11)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  {
    TxnScope ws(&pager);
    // Free of a pre-existing page: logged with its before-image and the
    // device-level free deferred to scope exit, so no concurrent txn can
    // recycle (and overwrite) it while this txn can still abort.
    ASSERT_TRUE(pager.Free(id).ok());
    EXPECT_TRUE(dev.is_live(id)) << "free must be deferred inside the scope";
    wal.SetCrashAfterRecords(0, Wal::CrashMode::kClean);
    EXPECT_FALSE(ws.Commit().ok());
  }
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok());
  EXPECT_TRUE(dev.is_live(id)) << "unresolved free must be rolled back";
  std::vector<uint8_t> out;
  ASSERT_TRUE(ReadPage(&pager, id, &out).ok());
  EXPECT_EQ(out, FilledPage(0x11));
}

TEST(WalTest, UncommittedScopeFreesItsPagesAndRecoveryAgrees) {
  // One scope both logs and rolls back: an abandoned scope frees its
  // allocations in process (imageless free records), resolves by abort,
  // and a later crash recovers to the same allocation state.
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);
  const uint64_t live = dev.live_pages();

  PageId a, b;
  {
    TxnScope ws(&pager);
    a = pager.Allocate();
    ASSERT_TRUE(pager.Write(a, FilledPage(0x11)).ok());
    b = pager.Allocate();
    // The op fails here; the scope unwinds without Commit.
  }
  EXPECT_FALSE(dev.is_live(a));
  EXPECT_FALSE(dev.is_live(b));
  EXPECT_EQ(dev.live_pages(), live);
  std::vector<WalRecord> recs;
  ASSERT_TRUE(wal.ReadRecords(&recs, nullptr).ok());
  ASSERT_FALSE(recs.empty());
  EXPECT_EQ(recs.back().type, WalRecordType::kAbort);
  EXPECT_EQ(std::count_if(recs.begin(), recs.end(),
                          [](const WalRecord& r) {
                            return r.type == WalRecordType::kFree;
                          }),
            2);

  dev.SetCrashed(true);
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(dev.is_live(a));
  EXPECT_FALSE(dev.is_live(b));
  EXPECT_EQ(dev.live_pages(), live);
}

TEST(WalTest, FailedWalCommitKeepsTheAllocations) {
  // Commit() keeps the allocations before it runs the WAL protocol: the
  // caller may already have published the pages, so a failed force or
  // commit record must never free them in process.
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);

  // The force step fails while the log stays healthy — a rollback here
  // would succeed, so only the keep rule holds the page.
  PageId forced;
  {
    TxnScope ws(&pager);
    forced = pager.Allocate();
    ASSERT_TRUE(pager.Write(forced, FilledPage(0x11)).ok());
    dev.SetFailAfter(0);
    EXPECT_FALSE(ws.Commit().ok());
    dev.SetFailAfter(-1);
  }
  EXPECT_TRUE(dev.is_live(forced));
  std::vector<uint8_t> out;
  ASSERT_TRUE(ReadPage(&pager, forced, &out).ok());
  EXPECT_EQ(out, FilledPage(0x11));

  // The machine dies at the commit record: the page stays allocated in
  // process, and recovery undoes the unresolved allocation.
  PageId crashed;
  {
    TxnScope ws(&pager);
    crashed = pager.Allocate();
    ASSERT_TRUE(pager.Write(crashed, FilledPage(0x22)).ok());
    wal.SetCrashAfterRecords(0, Wal::CrashMode::kClean);
    EXPECT_FALSE(ws.Commit().ok());
  }
  EXPECT_TRUE(dev.is_live(crashed));
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok()) << info.status().ToString();
  EXPECT_FALSE(dev.is_live(crashed));
  EXPECT_TRUE(dev.is_live(forced)) << "the abort-resolved txn is kept";
}

// ---------------------------------------------------------------------------
// Meta registry
// ---------------------------------------------------------------------------

TEST(WalTest, MetaRegistryRecoversLastCommittedBlobs) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 0);
  Wal wal(&dev, MakeMemWalStorage());
  uint64_t a = 1, b = 100;
  auto provider = [](uint64_t* v) {
    return [v] {
      WalEncoder enc;
      enc.PutU64(*v);
      return enc.Take();
    };
  };
  wal.SetMetaProvider("a", provider(&a));
  wal.SetMetaProvider("b", provider(&b));
  pager.AttachWal(&wal);  // checkpoint carries a=1, b=100

  PageId id;
  a = 2;
  b = 200;
  {
    TxnScope ws(&pager);
    id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(0x11)).ok());
    ASSERT_TRUE(ws.Commit().ok());  // commit carries a=2, b=200
  }
  a = 3;
  b = 300;
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(id, FilledPage(0x22)).ok());
    wal.SetCrashAfterRecords(0, Wal::CrashMode::kClean);
    EXPECT_FALSE(ws.Commit().ok());  // a=3/b=300 die with the crash
  }
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok());
  auto decode = [&](const std::string& key) -> uint64_t {
    auto it = info->metas.find(key);
    if (it == info->metas.end()) return ~uint64_t{0};
    WalDecoder dec(it->second);
    return dec.GetU64();
  };
  EXPECT_EQ(decode("a"), 2u) << "last committed meta, not the checkpoint's";
  EXPECT_EQ(decode("b"), 200u);
}

// ---------------------------------------------------------------------------
// Checkpoint
// ---------------------------------------------------------------------------

TEST(WalTest, CheckpointTruncatesLogAndRecoveryRestartsFromIt) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 8);
  Wal wal(&dev, MakeMemWalStorage());
  pager.AttachWal(&wal);

  std::vector<PageId> ids;
  for (int i = 0; i < 8; ++i) {
    TxnScope ws(&pager);
    PageId id = pager.Allocate();
    ASSERT_TRUE(pager.Write(id, FilledPage(static_cast<uint8_t>(i))).ok());
    ASSERT_TRUE(ws.Commit().ok());
    ids.push_back(id);
  }
  uint64_t grown = wal.log_bytes();
  ASSERT_TRUE(wal.Checkpoint(&pager).ok());
  EXPECT_LT(wal.log_bytes(), grown) << "checkpoint must truncate the log";
  std::vector<WalRecord> recs;
  ASSERT_TRUE(wal.ReadRecords(&recs, nullptr).ok());
  ASSERT_EQ(recs.size(), 1u);
  EXPECT_EQ(recs[0].type, WalRecordType::kCheckpoint);

  // Post-checkpoint txns recover against the checkpoint base state.
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(ids[0], FilledPage(0xEE)).ok());
    ASSERT_TRUE(ws.Commit().ok());
  }
  {
    TxnScope ws(&pager);
    ASSERT_TRUE(pager.Write(ids[1], FilledPage(0xFF)).ok());
    wal.SetCrashAfterRecords(0, Wal::CrashMode::kClean);
    EXPECT_FALSE(ws.Commit().ok());
  }
  auto info = wal.Recover(&pager);
  ASSERT_TRUE(info.ok());
  std::vector<uint8_t> out;
  ASSERT_TRUE(ReadPage(&pager, ids[0], &out).ok());
  EXPECT_EQ(out, FilledPage(0xEE)) << "committed post-checkpoint txn kept";
  ASSERT_TRUE(ReadPage(&pager, ids[1], &out).ok());
  EXPECT_EQ(out, FilledPage(1)) << "in-flight txn undone to checkpoint state";
  for (size_t i = 2; i < ids.size(); ++i) {
    ASSERT_TRUE(ReadPage(&pager, ids[i], &out).ok());
    EXPECT_EQ(out, FilledPage(static_cast<uint8_t>(i)));
  }
}

// ---------------------------------------------------------------------------
// Group commit
// ---------------------------------------------------------------------------

TEST(WalTest, GroupCommitSharesSyncsAcrossConcurrentCommitters) {
  BlockDevice dev(kPageSize);
  Pager pager(&dev, 64);
  std::string path = ::testing::TempDir() + "ccidx_wal_group.wal";
  std::remove(path.c_str());
  Wal wal(&dev, MakeFileWalStorage(path));
  pager.AttachWal(&wal);

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 64;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        TxnScope ws(&pager);
        PageId id = pager.Allocate();  // distinct pages: no write overlap
        ASSERT_TRUE(pager.Write(id, FilledPage(0x77)).ok());
        ASSERT_TRUE(ws.Commit().ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  EXPECT_EQ(wal.commits(),
            static_cast<uint64_t>(kThreads * kTxnsPerThread));
  // Every commit either led a sync or was covered by another leader's
  // fdatasync; with 4 spinning committers on a real file some must
  // follow (fdatasync dominates the commit path). syncs() alone is not
  // bounded by commits — the WAL-before-data barrier also leads syncs.
  EXPECT_GT(wal.group_follows(), 0u);
  EXPECT_GE(wal.syncs() + wal.group_follows(),
            static_cast<uint64_t>(kThreads * kTxnsPerThread));
  std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// File backend persistence
// ---------------------------------------------------------------------------

// A WalStorage wrapper that injects one IoError on the Nth append (a real
// EIO/ENOSPC, not the simulated power loss — the crash flags stay clear).
class FailNthAppendStorage final : public WalStorage {
 public:
  explicit FailNthAppendStorage(int fail_at)
      : fail_at_(fail_at), inner_(MakeMemWalStorage()) {}
  const char* name() const override { return "failmem"; }
  Status Append(std::span<const uint8_t> bytes) override {
    if (appends_++ == fail_at_) {
      return Status::IoError("injected append failure");
    }
    return inner_->Append(bytes);
  }
  Status Sync() override { return inner_->Sync(); }
  Status ReadAll(std::vector<uint8_t>* out) override {
    return inner_->ReadAll(out);
  }
  Status Reset(std::span<const uint8_t> bytes) override {
    return inner_->Reset(bytes);
  }
  uint64_t size() const override { return inner_->size(); }

 private:
  int fail_at_;
  int appends_ = 0;
  std::unique_ptr<WalStorage> inner_;
};

TEST(WalTest, AppendFailureLatchesWalSoTheTxnCanNeverCommit) {
  BlockDevice dev(kPageSize);
  Wal wal(&dev, std::make_unique<FailNthAppendStorage>(1));
  std::vector<uint8_t> img = FilledPage(0x5A);

  uint64_t t = wal.BeginTxn();
  ASSERT_TRUE(wal.LogAlloc(t, 3).ok());
  // The injected EIO loses this record without crashing the wal...
  EXPECT_EQ(wal.LogAlloc(t, 4).code(), StatusCode::kIoError);
  EXPECT_FALSE(wal.crashed());
  // ...so the sticky failed state must refuse everything after it — above
  // all the commit record, or recovery would rebuild allocation without
  // the unlogged page while committed metas still reference it.
  EXPECT_EQ(wal.LogPageImage(t, 3, img).code(), StatusCode::kIoError);
  EXPECT_EQ(wal.CommitTxn(t).code(), StatusCode::kIoError);
  EXPECT_EQ(wal.commits(), 0u);

  // A (quiesced) checkpoint rewrites the whole log from live state and
  // makes the wal usable again.
  ASSERT_TRUE(wal.Checkpoint(nullptr).ok());
  uint64_t t2 = wal.BeginTxn();
  ASSERT_TRUE(wal.LogAlloc(t2, 5).ok());
  ASSERT_TRUE(wal.CommitTxn(t2).ok());
  EXPECT_EQ(wal.commits(), 1u);
}

TEST(WalTest, RecoveryKeepsFreshestMetaSnapshotUnderConcurrentCommits) {
  BlockDevice dev(kPageSize);
  Wal wal(&dev, MakeMemWalStorage());
  ASSERT_TRUE(wal.Checkpoint(nullptr).ok());
  // With concurrent committers, commit records interleave in the log in
  // arbitrary order relative to when their meta snapshots were collected:
  // a record *later* in the log can carry an *older* snapshot. Recovery
  // must therefore pick by collection ticket, not log position. Each txn
  // bumps a counter before committing; after every txn is acknowledged,
  // the freshest snapshot was collected after all the bumps, so the
  // recovered meta must be exactly the final count — with last-in-log
  // semantics a stale racing snapshot could win and "lose" acknowledged
  // updates.
  std::atomic<uint64_t> seq{0};
  wal.SetMetaProvider("seq", [&] {
    WalEncoder enc;
    enc.PutU64(seq.load(std::memory_order_relaxed));
    return enc.Take();
  });

  constexpr int kThreads = 4;
  constexpr int kTxnsPerThread = 200;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kTxnsPerThread; ++i) {
        uint64_t txn = wal.BeginTxn();
        seq.fetch_add(1, std::memory_order_relaxed);
        ASSERT_TRUE(wal.CommitTxn(txn).ok());
      }
    });
  }
  for (auto& th : threads) th.join();

  auto recovered = wal.Recover(nullptr);
  ASSERT_TRUE(recovered.ok()) << recovered.status().message();
  auto it = recovered->metas.find("seq");
  ASSERT_NE(it, recovered->metas.end());
  WalDecoder val(it->second);
  EXPECT_EQ(val.GetU64(),
            static_cast<uint64_t>(kThreads) * kTxnsPerThread);
  ASSERT_TRUE(val.ok());
}

TEST(WalTest, FileStorageResetStagesThroughTempAndDiscardsOrphans) {
  std::string path = ::testing::TempDir() + "ccidx_wal_reset.wal";
  std::string tmp = path + ".tmp";
  std::remove(path.c_str());
  std::remove(tmp.c_str());

  std::vector<uint8_t> old_log = {1, 2, 3, 4};
  {
    auto storage = MakeFileWalStorage(path);
    ASSERT_TRUE(storage->Append(old_log).ok());
    ASSERT_TRUE(storage->Sync().ok());
  }

  // A crash between staging the new checkpoint and the rename leaves an
  // orphan temp file; the log at the real path is still the intact old
  // one. Opening must discard the orphan and serve the old log.
  {
    FILE* f = std::fopen(tmp.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    std::fputs("torn half-written checkpoint", f);
    std::fclose(f);
  }
  auto storage = MakeFileWalStorage(path);
  EXPECT_EQ(std::fopen(tmp.c_str(), "rb"), nullptr);
  std::vector<uint8_t> got;
  ASSERT_TRUE(storage->ReadAll(&got).ok());
  EXPECT_EQ(got, old_log);

  // Reset replaces the log via rename: afterwards no temp file lingers,
  // appends land in the renamed file, and a fresh open sees everything.
  std::vector<uint8_t> new_log = {9, 8, 7};
  ASSERT_TRUE(storage->Reset(new_log).ok());
  EXPECT_EQ(std::fopen(tmp.c_str(), "rb"), nullptr);
  std::vector<uint8_t> tail = {6, 5};
  ASSERT_TRUE(storage->Append(tail).ok());
  ASSERT_TRUE(storage->Sync().ok());
  storage.reset();

  auto reopened = MakeFileWalStorage(path);
  ASSERT_TRUE(reopened->ReadAll(&got).ok());
  EXPECT_EQ(got, std::vector<uint8_t>({9, 8, 7, 6, 5}));
  std::remove(path.c_str());
}

TEST(WalTest, FileStoragePersistsAcrossWalInstances) {
  BlockDevice dev(kPageSize);
  std::string path = ::testing::TempDir() + "ccidx_wal_persist.wal";
  std::remove(path.c_str());
  std::vector<uint8_t> img = FilledPage(0xCD);
  uint64_t t1;
  {
    Wal wal(&dev, MakeFileWalStorage(path));
    t1 = wal.BeginTxn();
    ASSERT_TRUE(wal.LogAlloc(t1, 9).ok());
    ASSERT_TRUE(wal.LogPageImage(t1, 9, img).ok());
    ASSERT_TRUE(wal.CommitTxn(t1).ok());
  }
  // A fresh Wal over the same file parses the same records — the log
  // survives the process, which is what the file backend is for.
  Wal wal2(&dev, MakeFileWalStorage(path));
  std::vector<WalRecord> recs;
  bool torn = true;
  ASSERT_TRUE(wal2.ReadRecords(&recs, &torn).ok());
  EXPECT_FALSE(torn);
  ASSERT_EQ(recs.size(), 3u);
  EXPECT_EQ(recs[0].type, WalRecordType::kAlloc);
  EXPECT_EQ(recs[0].txn, t1);
  EXPECT_EQ(recs[1].type, WalRecordType::kPageImage);
  EXPECT_EQ(recs[2].type, WalRecordType::kCommit);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace ccidx
