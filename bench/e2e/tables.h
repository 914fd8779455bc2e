// The served tables of the end-to-end benchmark and the read requests run
// against them.
//
// Every workload serves the same four families over one device and one
// buffer pool: n = 131072 records per table at B = 64 records per page
// (1552-byte pages). The workloads differ in the pool size, the injected
// read latency, the read mix and whether update batches ride along; see
// WorkloadSpec and README.md for why each exists.
//
// The read requests of a run are drawn from a fixed pool of templates
// made from the seed. Each template's answer is computed before timing by
// calling the family directly (RunDirect), so every served response can be
// checked against it: status, record count and an order-independent
// checksum of the wire records.

#ifndef CCIDX_BENCH_E2E_TABLES_H_
#define CCIDX_BENCH_E2E_TABLES_H_

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "ccidx/bptree/bptree.h"
#include "ccidx/common/status.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/block_device.h"
#include "ccidx/io/pager.h"
#include "ccidx/io/wal.h"
#include "ccidx/serve/catalog.h"
#include "ccidx/serve/frame.h"

namespace ccidx {
namespace e2e {

class Tracer;

inline constexpr uint32_t kBranching = 64;          // B: records per page
inline constexpr size_t kRecordsPerTable = 131072;  // n
inline constexpr Coord kDomain = Coord{1} << 20;    // point / interval coords
inline constexpr unsigned kSessions = 4;            // loopback connections

// Update batches write only keys at or above kUpdateKeyBase, far above the
// bulk-loaded keys [0, 2n) the B+-tree reads scan, so reads never see a
// write and their precomputed answers stay valid. Each session owns its own
// key block, so the final state of the range can be replayed per session.
inline constexpr int64_t kUpdateKeyBase = int64_t{1} << 40;
inline constexpr int64_t kSessionKeyStride = int64_t{1} << 20;
inline constexpr int64_t kUpdateKeysPerSession = 1024;
inline constexpr uint64_t kUpdateValues = 8;
inline constexpr size_t kOpsPerUpdate = 4;

// The write-ahead log is checkpointed whenever it passes this size.
inline constexpr uint64_t kCheckpointLogBytes = uint64_t{64} << 20;

/// One workload: the device and pool it serves from, its traffic mix, and
/// its latency limit and frozen request rates.
struct WorkloadSpec {
  const char* name;
  uint32_t pool_pages;       // buffer-pool frames
  uint32_t read_latency_us;  // injected per device read (0 = none)
  bool scans;                // full-report mix instead of early-stop mix
  double update_frac;        // share of requests that are update batches
  bool wal;                  // serve with a write-ahead log attached
  double slo_us;             // p99 limit of the rate ladder
  double rate_low;           // req/s of the low leg (~0.2x capacity)
  double rate_high;          // req/s of the high leg (~0.5x capacity)
};

const std::vector<WorkloadSpec>& Workloads();
const WorkloadSpec* FindWorkload(std::string_view name);

/// Log storage decorator that times every append and sync of the wrapped
/// storage. The counters are the only view the benchmark has of the log's
/// own cost; they are cumulative, so a leg reads them as differences.
class TimedWalStorage final : public WalStorage {
 public:
  TimedWalStorage(std::unique_ptr<WalStorage> inner, Tracer* tracer)
      : inner_(std::move(inner)), tracer_(tracer) {}

  const char* name() const override { return inner_->name(); }
  Status Append(std::span<const uint8_t> bytes) override;
  Status Sync() override;
  Status ReadAll(std::vector<uint8_t>* out) override {
    return inner_->ReadAll(out);
  }
  Status Reset(std::span<const uint8_t> bytes) override {
    return inner_->Reset(bytes);
  }
  uint64_t size() const override { return inner_->size(); }

  struct Counters {
    uint64_t appends = 0;
    uint64_t append_bytes = 0;
    uint64_t append_ns = 0;
    uint64_t syncs = 0;
    uint64_t sync_ns = 0;
  };
  Counters counters() const;

 private:
  // Every append and sync is counted; one in kTraceEvery is also a span,
  // so a traced run's span buffer is not filled by log traffic alone.
  static constexpr uint64_t kTraceEvery = 16;

  std::unique_ptr<WalStorage> inner_;
  Tracer* const tracer_;
  std::atomic<uint64_t> appends_{0};
  std::atomic<uint64_t> append_bytes_{0};
  std::atomic<uint64_t> append_ns_{0};
  std::atomic<uint64_t> syncs_{0};
  std::atomic<uint64_t> sync_ns_{0};
};

/// The device, pool and four families a workload serves, built from the
/// seed. Construction is the benchmark's set-up; it aborts on a build
/// failure, which no seed produces.
class Tables {
 public:
  Tables(const WorkloadSpec& spec, uint32_t seed, Tracer* tracer);

  Tables(const Tables&) = delete;
  Tables& operator=(const Tables&) = delete;

  serve::ServeTables Serve();

  BlockDevice& device() { return *device_; }
  Pager& pager() { return *pager_; }
  const MetablockTree& metablock() const { return *metablock_; }
  const BPlusTree& btree() const { return *btree_; }
  const IntervalIndex& interval() const { return *interval_; }
  const ThreeSidedTree& three_sided() const { return *three_sided_; }

  /// Null unless the workload serves with a write-ahead log.
  Wal* wal() { return wal_.get(); }
  TimedWalStorage* wal_storage() { return wal_storage_; }

 private:
  // Declaration order is destruction order in reverse: the families use
  // the pager, the pager uses the wal, and both use the device.
  std::unique_ptr<BlockDevice> device_;
  TimedWalStorage* wal_storage_ = nullptr;  // owned by wal_
  std::unique_ptr<Wal> wal_;
  std::unique_ptr<Pager> pager_;
  std::optional<MetablockTree> metablock_;
  std::optional<BPlusTree> btree_;
  std::optional<IntervalIndex> interval_;
  std::optional<ThreeSidedTree> three_sided_;
};

/// A response's identity for the correctness check: the record count (or
/// the count/exists answer) and a checksum of the wire records.
struct Answer {
  uint64_t count = 0;
  uint64_t checksum = 0;

  bool operator==(const Answer&) const = default;
};

/// Order-independent checksum of wire records.
uint64_t RecordChecksum(std::span<const std::array<uint64_t, 3>> records);

/// The answer a served response carries.
Answer AnswerOf(const serve::Response& resp);

/// Runs one read request directly against the family it names, with the
/// sink its result mode asks for — what the server's dispatcher runs, minus
/// the serving path. `*records` receives the number of records the family
/// reported into the sink.
Result<Answer> RunDirect(const Tables& tables, const serve::Request& req,
                         uint64_t* records = nullptr);

/// The read-request templates of a run.
std::vector<serve::Request> MakeQueries(const WorkloadSpec& spec,
                                        uint32_t seed, size_t count);

/// Precomputes every template's answer on `threads` threads.
std::vector<Answer> ComputeAnswers(const Tables& tables,
                                   std::span<const serve::Request> queries,
                                   unsigned threads);

/// Family name of a read request ("metablock", "bptree", "interval",
/// "three_sided"), and its index in that order.
const char* FamilyName(serve::RequestType type);
size_t FamilyIndex(serve::RequestType type);
inline constexpr size_t kFamilies = 4;

}  // namespace e2e
}  // namespace ccidx

#endif  // CCIDX_BENCH_E2E_TABLES_H_
