// Write-ahead log of page before-images + checkpoint/recovery
// (DESIGN.md §13).
//
// The engine's update paths are fault-atomic *in process* (TxnScope
// rollback, free-by-id installs), but nothing survives a crash: a B+-tree
// split chain, a Bentley–Saxe level merge, or a corner-structure cascade
// interrupted mid-flight leaves torn multi-page state on the device. The
// WAL converts that story into real crash durability in the generic-xlog
// style (log the before-image of every page a transaction touches, replay
// on open — the mtree_am2 pattern named in ROADMAP.md):
//
//   * Rollback-journal (undo) logging, force-at-commit. Every outermost
//     TxnScope (pager.h) is one transaction. The first mutable touch of a
//     pre-existing page logs its full before-image; page allocations and
//     frees log id records. At commit the txn's touched pages are forced
//     to the device (log first — see the ordering rule below), the device
//     is data-synced, and a commit record (carrying registered metadata
//     blobs) is appended and group-synced. There is no redo: a committed
//     txn's pages are already durable, so recovery never rolls forward.
//   * WAL-before-data: no data page reaches the device before every log
//     record appended so far is synced (hooked into the pager's write-back
//     and uncached-release paths). An uncommitted txn's page writes may
//     therefore reach the device early (steal) — recovery undoes them from
//     the logged before-images, which also repairs torn page writes.
//   * Group commit: concurrent committers elect one sync leader; a commit
//     whose records were already covered by another leader's fdatasync
//     returns without touching the device (followers are counted).
//   * Checkpoint: with writers quiesced (the epoch gate's write side), the
//     pool is flushed, the device data-synced, and the log is rewritten as
//     a single checkpoint record carrying the allocation snapshot and the
//     current metadata — truncating the log to O(1).
//   * Recovery: parse the log (a torn tail is detected by length/CRC and
//     truncated), collect the RESOLVED txn set (committed or in-process
//     aborted — an aborted op's surviving state was forced and later txns
//     may have built on it), rebuild the allocation state from the
//     checkpoint snapshot plus resolved alloc/free records in log order,
//     then restore the before-images of every *unresolved* (in-flight at
//     crash) record in reverse log order. The result is exactly the state
//     after the last committed transaction.
//
// Interleaving correctness: records of concurrent writers interleave in
// the log, tagged by txn id. A later txn's before-image of a shared page
// captures the earlier txn's committed content, so reverse-order undo of
// the uncommitted set lands on the last committed version. (Two *live*
// txns never mutate the same page concurrently — that is the families'
// in-epoch latching contract, DESIGN.md §11.)
//
// Metadata registry: structures register named providers
// (`SetMetaProvider`); every commit appends all registered blobs into its
// commit record and recovery returns the freshest committed blobs. With
// concurrent committers, log order does not equal collection order — a
// commit record later in the log can carry a snapshot collected earlier,
// and a last-in-log overlay would restore stale metas. Each snapshot
// therefore carries a *collection ticket* drawn from a global counter
// before the providers run, and recovery keeps the max-ticket blob per
// key instead of the last one in the log (holding the append lock across
// provider calls instead would invert against structure-latch → append
// paths and deadlock). Provider reads are exact under a single writer and
// at quiesced checkpoints; with concurrent writers a snapshot may still
// observe another txn's mid-flight (internally consistent) state, which
// the quiesced checkpoint supersedes.
//
// Crash injection for tests: SetCrashAfterRecords(k) makes the k-th
// subsequent append vanish (or leave a torn prefix) and flips the wal and
// the BlockDevice into a crashed state where every transfer fails — the
// in-process equivalent of SIGKILL. Recover() clears both and restores
// the committed state.

#ifndef CCIDX_IO_WAL_H_
#define CCIDX_IO_WAL_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "ccidx/common/status.h"
#include "ccidx/io/block_device.h"

namespace ccidx {

class Pager;

// ---------------------------------------------------------------------------
// Flat byte encode/decode helpers (record payloads, family metas)
// ---------------------------------------------------------------------------

/// Append-only little-endian byte encoder for WAL payloads and the family
/// metadata blobs carried in commit/checkpoint records.
class WalEncoder {
 public:
  void PutU16(uint16_t v) { PutRaw(&v, sizeof v); }
  void PutU32(uint32_t v) { PutRaw(&v, sizeof v); }
  void PutU64(uint64_t v) { PutRaw(&v, sizeof v); }
  void PutI64(int64_t v) { PutRaw(&v, sizeof v); }
  void PutBytes(std::span<const uint8_t> b) {
    buf_.insert(buf_.end(), b.begin(), b.end());
  }
  /// Length-prefixed (u32) byte string.
  void PutBlob(std::span<const uint8_t> b) {
    PutU32(static_cast<uint32_t>(b.size()));
    PutBytes(b);
  }
  /// Raw POD array (same-process format: native endianness/layout).
  template <typename T>
  void PutPodVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    PutU64(v.size());
    if (!v.empty()) {
      PutRaw(v.data(), v.size() * sizeof(T));
    }
  }

  const std::vector<uint8_t>& bytes() const { return buf_; }
  std::vector<uint8_t> Take() { return std::move(buf_); }

 private:
  void PutRaw(const void* p, size_t n) {
    const uint8_t* b = static_cast<const uint8_t*>(p);
    buf_.insert(buf_.end(), b, b + n);
  }
  std::vector<uint8_t> buf_;
};

/// Matching decoder. All getters fail soft: `ok()` latches false on
/// underrun and every subsequent value is zero, so a truncated or corrupt
/// blob can never read out of bounds.
class WalDecoder {
 public:
  explicit WalDecoder(std::span<const uint8_t> b) : buf_(b) {}

  uint16_t GetU16() { return GetRaw<uint16_t>(); }
  uint32_t GetU32() { return GetRaw<uint32_t>(); }
  uint64_t GetU64() { return GetRaw<uint64_t>(); }
  int64_t GetI64() { return GetRaw<int64_t>(); }
  std::span<const uint8_t> GetBytes(size_t n) {
    if (!Need(n)) return {};
    std::span<const uint8_t> out = buf_.subspan(pos_, n);
    pos_ += n;
    return out;
  }
  std::span<const uint8_t> GetBlob() {
    uint32_t n = GetU32();
    return GetBytes(n);
  }
  template <typename T>
  std::vector<T> GetPodVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t n = GetU64();
    if (!Need(n * sizeof(T))) return {};
    std::vector<T> out(n);
    if (n > 0) std::memcpy(out.data(), buf_.data() + pos_, n * sizeof(T));
    pos_ += n * sizeof(T);
    return out;
  }

  bool ok() const { return ok_; }
  size_t remaining() const { return buf_.size() - pos_; }

 private:
  bool Need(size_t n) {
    if (!ok_ || buf_.size() - pos_ < n) {
      ok_ = false;
      return false;
    }
    return true;
  }
  template <typename T>
  T GetRaw() {
    T v{};
    if (!Need(sizeof(T))) return v;
    std::memcpy(&v, buf_.data() + pos_, sizeof(T));
    pos_ += sizeof(T);
    return v;
  }
  std::span<const uint8_t> buf_;
  size_t pos_ = 0;
  bool ok_ = true;
};

// ---------------------------------------------------------------------------
// Log storage
// ---------------------------------------------------------------------------

/// Byte-stream backing for the log: an append-only blob with sync and
/// whole-log rewrite (checkpoint truncation). The mem flavor keeps the
/// log in process memory (Sync is a no-op) — it survives the simulated
/// crash because the "disk" of the mem BlockDevice does too. The file
/// flavor appends through a buffered fd and syncs with fdatasync.
class WalStorage {
 public:
  virtual ~WalStorage() = default;
  virtual const char* name() const = 0;
  virtual Status Append(std::span<const uint8_t> bytes) = 0;
  virtual Status Sync() = 0;
  virtual Status ReadAll(std::vector<uint8_t>* out) = 0;
  /// Crash-atomically replaces the whole log with `bytes` (checkpoint
  /// truncation; callers are quiesced). The file flavor stages the new
  /// log in a temp file and rename(2)s it over the old one, so power
  /// loss at any point leaves a complete old or complete new log.
  virtual Status Reset(std::span<const uint8_t> bytes) = 0;
  virtual uint64_t size() const = 0;
};

std::unique_ptr<WalStorage> MakeMemWalStorage();
/// `path` is the log file (created if absent, truncated at Reset).
std::unique_ptr<WalStorage> MakeFileWalStorage(const std::string& path);

// ---------------------------------------------------------------------------
// Wal
// ---------------------------------------------------------------------------

enum class WalRecordType : uint16_t {
  kPageImage = 1,  // [u64 page][page bytes]            before-image
  kAlloc = 2,      // [u64 page]
  kFree = 3,       // [u64 page][u16 has_image][image?] before-image unless
                   //   the page was allocated by this very txn
  kCommit = 4,     // [u64 ticket][u32 n] n x ([u16 klen][key][u32 vlen][bytes])
  kCheckpoint = 5, // [u64 total][u64 nbits][bitmap] + metas as kCommit
  kAbort = 6,      // empty; txn resolved without commit (see below)
};

/// A decoded log record (recovery and tests).
struct WalRecord {
  WalRecordType type{};
  uint64_t txn = 0;
  std::vector<uint8_t> payload;
};

class Wal {
 public:
  enum class CrashMode : uint8_t {
    kClean,  // the record at the kill point simply never reaches the log
    kTorn,   // a partial prefix of it does (torn final record)
  };

  struct RecoveryInfo {
    uint64_t records_scanned = 0;
    uint64_t committed_txns = 0;
    uint64_t images_restored = 0;
    bool torn_tail = false;
    /// Metadata of the last committed state: checkpoint blobs overlaid by
    /// committed txns' commit blobs, freshest collection ticket winning
    /// per key.
    std::map<std::string, std::vector<uint8_t>> metas;
  };

  /// The wal logs for (and recovers) `device`; the log itself lives in
  /// `storage`. Does not write anything — Pager::AttachWal (or an explicit
  /// Checkpoint) establishes the initial checkpoint baseline.
  Wal(BlockDevice* device, std::unique_ptr<WalStorage> storage);

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  // --- transaction API (driven by TxnScope) -------------------------------

  uint64_t BeginTxn() {
    return next_txn_.fetch_add(1, std::memory_order_relaxed);
  }
  Status LogPageImage(uint64_t txn, PageId id,
                      std::span<const uint8_t> image);
  Status LogAlloc(uint64_t txn, PageId id);
  /// `image` empty => the page was allocated within this txn (undo needs
  /// no content, only the allocation replay).
  Status LogFree(uint64_t txn, PageId id, std::span<const uint8_t> image);
  /// Appends the commit record (with every registered meta blob) and
  /// group-syncs it. The caller has already forced the txn's data pages
  /// and data-synced the device (TxnScope::Commit ordering).
  Status CommitTxn(uint64_t txn);

  /// Marks an in-process-aborted txn resolved. The caller (TxnScope's
  /// destructor) has already forced the txn's surviving page state to the
  /// device, so recovery must NOT undo it: a later committed txn may have
  /// built on what the aborted op left behind (the families' documented
  /// pre-or-post-op failure state). Not synced — any later commit's group
  /// sync carries it; if it is lost, the txn is undone from its (already
  /// durable) before-images instead, which is the coherent pre-op state.
  Status AbortTxn(uint64_t txn);

  /// WAL-before-data barrier: returns once every record appended so far
  /// is durable. One relaxed load when nothing is pending; group-synced
  /// otherwise. Called by the pager before any data-page device write.
  Status SyncBeforeData();

  // --- metadata registry -------------------------------------------------

  using MetaProvider = std::function<std::vector<uint8_t>()>;
  /// Registers (or replaces; empty fn erases) the provider for `key`.
  /// Providers run on committing threads with no wal lock held (they may
  /// take structure latches) — keep them cheap and internally
  /// synchronized, and never let them log records or commit.
  void SetMetaProvider(const std::string& key, MetaProvider fn);

  // --- checkpoint / recovery ---------------------------------------------

  /// Rewrites the log as one checkpoint record: current allocation
  /// snapshot + fresh provider metas. Caller must quiesce writers (epoch
  /// gate write side) and pass the pager so dirty pool pages are forced
  /// first (`nullptr` skips the flush when there is no pool to flush).
  Status Checkpoint(Pager* pager);

  /// Crash recovery: discards the pager's (pre-crash, volatile) cache,
  /// clears the crashed flags, and restores the device to the exact state
  /// after the last committed txn (see file comment). Ends with a fresh
  /// checkpoint carrying the recovered metas, so the log is truncated and
  /// a second crash re-recovers to the same state.
  Result<RecoveryInfo> Recover(Pager* pager);

  // --- crash injection ---------------------------------------------------

  /// After `more` further record appends, the next append "crashes": the
  /// record is dropped (kClean) or a torn prefix of it is written (kTorn),
  /// the wal enters the crashed state, and the BlockDevice is crashed too
  /// (every transfer fails until Recover). `more < 0` disarms.
  void SetCrashAfterRecords(int64_t more, CrashMode mode = CrashMode::kClean);
  bool crashed() const { return crashed_.load(std::memory_order_relaxed); }

  // --- introspection -----------------------------------------------------

  uint64_t records() const { return records_.load(std::memory_order_relaxed); }
  uint64_t commits() const { return commits_.load(std::memory_order_relaxed); }
  uint64_t syncs() const { return syncs_.load(std::memory_order_relaxed); }
  /// Commits whose sync was covered by another committer's fdatasync.
  uint64_t group_follows() const {
    return group_follows_.load(std::memory_order_relaxed);
  }
  uint64_t checkpoints() const {
    return checkpoints_.load(std::memory_order_relaxed);
  }
  uint64_t log_bytes() const { return storage_->size(); }
  const char* storage_name() const { return storage_->name(); }
  BlockDevice* device() const { return device_; }

  /// Parses the current log (tests). Stops at a torn tail.
  Status ReadRecords(std::vector<WalRecord>* out, bool* torn_tail);

 private:
  // Encodes outside append_mu_, then appends under it (honoring the crash
  // trigger and the sticky append-failure latch). lsn = running record
  // count.
  Status AppendRecord(WalRecordType type, uint64_t txn,
                      std::span<const uint8_t> payload);
  // Leader-elected sync of everything appended up to now.
  Status GroupSync(uint64_t lsn);
  // A meta snapshot plus the collection ticket drawn (from meta_clock_)
  // before its providers ran — recovery keeps the max ticket per key.
  struct MetaSnapshot {
    uint64_t ticket = 0;
    std::vector<std::pair<std::string, std::vector<uint8_t>>> entries;
  };
  MetaSnapshot CollectMetas();
  static void EncodeMetas(WalEncoder* enc, const MetaSnapshot& metas);
  // Builds the checkpoint record payload from the device's current
  // allocation state and `metas`, and swaps it in as the whole log.
  Status RewriteAsCheckpoint(const MetaSnapshot& metas);

  BlockDevice* device_;
  std::unique_ptr<WalStorage> storage_;

  // Append side: serializes record encoding + storage appends.
  std::mutex append_mu_;
  std::atomic<uint64_t> append_lsn_{0};  // records appended (and their count)
  std::atomic<uint64_t> records_{0};
  int64_t crash_after_ = -1;             // guarded by append_mu_
  CrashMode crash_mode_ = CrashMode::kClean;  // guarded by append_mu_
  std::atomic<bool> crashed_{false};
  // Latched on a real storage append/sync failure (EIO/ENOSPC — not the
  // simulated crash): the log may silently be missing a record, so every
  // later append (and thus any commit) is refused until a checkpoint
  // rewrites the log or recovery replays it.
  std::atomic<bool> append_failed_{false};

  // Group-commit sync state.
  std::mutex sync_mu_;
  std::condition_variable sync_cv_;
  uint64_t synced_lsn_ = 0;        // guarded by sync_mu_
  bool sync_in_progress_ = false;  // guarded by sync_mu_
  std::atomic<uint64_t> synced_lsn_relaxed_{0};  // fast-path mirror

  std::atomic<uint64_t> next_txn_{1};
  std::atomic<uint64_t> commits_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> group_follows_{0};
  std::atomic<uint64_t> checkpoints_{0};

  std::mutex meta_mu_;
  std::map<std::string, MetaProvider> meta_providers_;
  // Collection-ticket source for MetaSnapshot (see CollectMetas).
  std::atomic<uint64_t> meta_clock_{0};
};

}  // namespace ccidx

#endif  // CCIDX_IO_WAL_H_
