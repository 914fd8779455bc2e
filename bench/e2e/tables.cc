#include "tables.h"

#include <random>
#include <thread>

#include "ccidx/query/sink.h"
#include "ccidx/testutil/generators.h"
#include "trace.h"

namespace ccidx {
namespace e2e {
namespace {

using serve::Request;
using serve::RequestType;
using serve::ResultMode;

// Rates are frozen at about 0.2x (low) and 0.5x (high) of each workload's
// max_rate_at_slo on the reference machine in a quiet period (README.md).
const std::vector<WorkloadSpec> kWorkloads = {
    // name        pool   lat  scans  upd   wal    slo_us  low     high
    {"point_hot", 65536, 0, false, 0.0, false, 5000, 100000, 240000},
    {"scan_warm", 65536, 0, true, 0.0, false, 10000, 11000, 27000},
    {"scan_cold", 1024, 20, true, 0.0, false, 50000, 900, 2200},
    {"mixed_wal", 65536, 0, false, 0.25, true, 10000, 17000, 42000},
};

uint64_t Mix64(uint64_t k) {
  k += 0x9e3779b97f4a7c15ull;
  k = (k ^ (k >> 30)) * 0xbf58476d1ce4e5b9ull;
  k = (k ^ (k >> 27)) * 0x94d049bb133111ebull;
  return k ^ (k >> 31);
}

template <typename T>
T Check(Result<T> r) {
  CCIDX_CHECK(r.ok());
  return std::move(*r);
}

// Wire records, converted exactly as the server's dispatcher converts them.
std::array<uint64_t, 3> ToWire(const Point& p) {
  return {static_cast<uint64_t>(p.x), static_cast<uint64_t>(p.y), p.id};
}
std::array<uint64_t, 3> ToWire(const BtEntry& e) {
  return {static_cast<uint64_t>(e.key), e.value, static_cast<uint64_t>(e.aux)};
}
std::array<uint64_t, 3> ToWire(const Interval& iv) {
  return {static_cast<uint64_t>(iv.lo), static_cast<uint64_t>(iv.hi), iv.id};
}

template <typename T>
uint64_t Checksum(std::span<const T> records) {
  uint64_t sum = 0;
  for (const T& r : records) {
    const std::array<uint64_t, 3> w = ToWire(r);
    sum += RecordChecksum({&w, 1});
  }
  return sum;
}

// Counts what the family emits before forwarding it to the result sink:
// the `t` of the family's I/O bound, which early-stop sinks cut short.
template <typename T>
class CountingSink final : public ResultSink<T> {
 public:
  explicit CountingSink(ResultSink<T>* inner) : inner_(inner) {}
  SinkState Emit(std::span<const T> batch) override {
    emitted_ += batch.size();
    return inner_->Emit(batch);
  }
  uint64_t emitted() const { return emitted_; }

 private:
  ResultSink<T>* inner_;
  uint64_t emitted_ = 0;
};

// The sink each result mode asks for, as in the server's dispatcher.
template <typename T, typename RunFn>
Result<Answer> RunWithMode(const Request& req, uint64_t* records, RunFn&& run) {
  Answer a;
  auto drive = [&](ResultSink<T>* sink) {
    CountingSink<T> counting(sink);
    Status s = run(&counting);
    if (records != nullptr) *records = counting.emitted();
    return s;
  };
  switch (req.mode) {
    case ResultMode::kRecords: {
      std::vector<T> out;
      VectorSink<T> sink(&out);
      if (Status s = drive(&sink); !s.ok()) return s;
      a.count = out.size();
      a.checksum = Checksum<T>(out);
      return a;
    }
    case ResultMode::kLimit: {
      LimitSink<T> sink(req.limit);
      if (Status s = drive(&sink); !s.ok()) return s;
      a.count = sink.results().size();
      a.checksum = Checksum<T>(sink.results());
      return a;
    }
    case ResultMode::kCount: {
      CountSink<T> sink;
      if (Status s = drive(&sink); !s.ok()) return s;
      a.count = sink.count();
      return a;
    }
    case ResultMode::kExists: {
      ExistsSink<T> sink;
      if (Status s = drive(&sink); !s.ok()) return s;
      a.count = sink.exists() ? 1 : 0;
      return a;
    }
  }
  return Status::InvalidArgument("unknown result mode");
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() { return kWorkloads; }

const WorkloadSpec* FindWorkload(std::string_view name) {
  for (const WorkloadSpec& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

Status TimedWalStorage::Append(std::span<const uint8_t> bytes) {
  const int64_t t0 = NowNs();
  Status s = inner_->Append(bytes);
  const int64_t t1 = NowNs();
  const uint64_t n = appends_.fetch_add(1, std::memory_order_relaxed);
  append_bytes_.fetch_add(bytes.size(), std::memory_order_relaxed);
  append_ns_.fetch_add(static_cast<uint64_t>(t1 - t0),
                       std::memory_order_relaxed);
  if (n % kTraceEvery == 0 && tracer_->armed()) {
    tracer_->Record({"io.wal.append", tracer_->NewId(), 0, 0, t0, t1});
  }
  return s;
}

Status TimedWalStorage::Sync() {
  const int64_t t0 = NowNs();
  Status s = inner_->Sync();
  const int64_t t1 = NowNs();
  const uint64_t n = syncs_.fetch_add(1, std::memory_order_relaxed);
  sync_ns_.fetch_add(static_cast<uint64_t>(t1 - t0),
                     std::memory_order_relaxed);
  if (n % kTraceEvery == 0 && tracer_->armed()) {
    tracer_->Record({"io.wal.sync", tracer_->NewId(), 0, 0, t0, t1});
  }
  return s;
}

TimedWalStorage::Counters TimedWalStorage::counters() const {
  Counters c;
  c.appends = appends_.load(std::memory_order_relaxed);
  c.append_bytes = append_bytes_.load(std::memory_order_relaxed);
  c.append_ns = append_ns_.load(std::memory_order_relaxed);
  c.syncs = syncs_.load(std::memory_order_relaxed);
  c.sync_ns = sync_ns_.load(std::memory_order_relaxed);
  return c;
}

Tables::Tables(const WorkloadSpec& spec, uint32_t seed, Tracer* tracer) {
  // The device is configured here, never from the environment, so every
  // run of a workload serves from the same backend.
  BlockDeviceOptions options;
  options.backend = "mem";
  options.read_latency_us = spec.read_latency_us;
  device_ = std::make_unique<BlockDevice>(PageSizeForBranching(kBranching),
                                          options);
  pager_ = std::make_unique<Pager>(device_.get(), spec.pool_pages);
  Pager* pager = pager_.get();
  const size_t n = kRecordsPerTable;

  metablock_.emplace(Check(MetablockTree::Build(
      pager, RandomPointsAboveDiagonal(n, kDomain, seed))));

  std::vector<BtEntry> entries(n);
  for (size_t k = 0; k < n; ++k) {
    entries[k] = {static_cast<int64_t>(2 * k), k,
                  static_cast<int64_t>(Mix64(seed ^ k) >> 1)};
  }
  btree_.emplace(Check(BPlusTree::BulkLoad(pager, entries)));

  interval_.emplace(Check(IntervalIndex::Build(
      pager,
      RandomIntervals(n, kDomain, IntervalWorkload::kUniform, seed + 1))));
  three_sided_.emplace(
      Check(ThreeSidedTree::Build(pager, RandomPoints(n, kDomain, seed + 2))));

  if (spec.wal) {
    auto storage = std::make_unique<TimedWalStorage>(MakeMemWalStorage(),
                                                     tracer);
    wal_storage_ = storage.get();
    wal_ = std::make_unique<Wal>(device_.get(), std::move(storage));
    // A deployment registers the served tree's root descriptor so a crash
    // can re-attach it; every commit record carries it.
    wal_->SetMetaProvider("btree", [this] { return btree_->SerializeMeta(); });
    pager_->AttachWal(wal_.get());
  }
}

serve::ServeTables Tables::Serve() {
  serve::ServeTables t;
  t.pager = pager_.get();
  t.metablock = &*metablock_;
  t.btree = &*btree_;
  t.interval = &*interval_;
  t.three_sided = &*three_sided_;
  return t;
}

uint64_t RecordChecksum(std::span<const std::array<uint64_t, 3>> records) {
  uint64_t sum = 0;
  for (const auto& r : records) {
    sum += Mix64(r[0] ^ Mix64(r[1] ^ Mix64(r[2])));
  }
  return sum;
}

Answer AnswerOf(const serve::Response& resp) {
  return {resp.count, RecordChecksum(resp.records)};
}

Result<Answer> RunDirect(const Tables& tables, const Request& req,
                         uint64_t* records) {
  switch (req.type) {
    case RequestType::kMetablockDiagonal:
      return RunWithMode<Point>(req, records, [&](ResultSink<Point>* sink) {
        return tables.metablock().Query(DiagonalQuery{req.args[0]}, sink);
      });
    case RequestType::kBtreeRange:
      return RunWithMode<BtEntry>(req, records, [&](ResultSink<BtEntry>* s) {
        return tables.btree().RangeScan(req.args[0], req.args[1], s);
      });
    case RequestType::kIntervalStab:
      return RunWithMode<Interval>(req, records,
                                   [&](ResultSink<Interval>* sink) {
                                     return tables.interval().Stab(
                                         req.args[0], sink);
                                   });
    case RequestType::kThreeSided:
      return RunWithMode<Point>(req, records, [&](ResultSink<Point>* sink) {
        return tables.three_sided().Query(
            ThreeSidedQuery{req.args[0], req.args[1], req.args[2]}, sink);
      });
    default:
      return Status::InvalidArgument("not a read request");
  }
}

std::vector<Request> MakeQueries(const WorkloadSpec& spec, uint32_t seed,
                                 size_t count) {
  std::mt19937_64 rng(Mix64(seed ^ 0x51ed270b27c1f5a1ull));
  auto uniform = [&](int64_t lo, int64_t hi) {  // [lo, hi]
    return std::uniform_int_distribution<int64_t>(lo, hi)(rng);
  };
  const int64_t keys = static_cast<int64_t>(2 * kRecordsPerTable);
  std::vector<Request> out(count);
  for (size_t i = 0; i < count; ++i) {
    Request& r = out[i];
    // Equal shares of the four families; the request stream samples the
    // templates at random, so the family order on the wire is random too.
    switch (i % kFamilies) {
      case 0:
        r.type = RequestType::kMetablockDiagonal;
        r.mode = spec.scans ? ResultMode::kLimit : ResultMode::kExists;
        r.limit = spec.scans ? 256 : 0;
        r.args = {uniform(0, kDomain - 1), 0, 0};
        break;
      case 1: {
        // Keys are 0, 2, 4, ...: a width-w range holds w/2 entries.
        const int64_t width = spec.scans ? 512 : 16;
        const int64_t a = uniform(0, keys - width);
        r.type = RequestType::kBtreeRange;
        r.mode = spec.scans ? ResultMode::kRecords : ResultMode::kCount;
        r.args = {a, a + width - 1, 0};
        break;
      }
      case 2:
        r.type = RequestType::kIntervalStab;
        r.mode = spec.scans ? ResultMode::kLimit : ResultMode::kExists;
        r.limit = spec.scans ? 256 : 0;
        r.args = {uniform(0, kDomain - 1), 0, 0};
        break;
      default: {
        const int64_t width = spec.scans ? 4096 : 192;
        const int64_t a = uniform(0, kDomain - width);
        r.type = RequestType::kThreeSided;
        r.mode = spec.scans ? ResultMode::kRecords : ResultMode::kCount;
        r.args = {a, a + width - 1, spec.scans ? kDomain / 4 : kDomain / 2};
        break;
      }
    }
  }
  return out;
}

std::vector<Answer> ComputeAnswers(const Tables& tables,
                                   std::span<const Request> queries,
                                   unsigned threads) {
  std::vector<Answer> answers(queries.size());
  std::atomic<size_t> next{0};
  std::vector<std::thread> workers;
  for (unsigned t = 0; t < threads; ++t) {
    workers.emplace_back([&] {
      for (size_t i; (i = next.fetch_add(1)) < queries.size();) {
        answers[i] = Check(RunDirect(tables, queries[i]));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  return answers;
}

const char* FamilyName(RequestType type) {
  static constexpr const char* kNames[kFamilies] = {"metablock", "bptree",
                                                    "interval", "three_sided"};
  return kNames[FamilyIndex(type)];
}

size_t FamilyIndex(RequestType type) {
  switch (type) {
    case RequestType::kMetablockDiagonal:
      return 0;
    case RequestType::kBtreeRange:
      return 1;
    case RequestType::kIntervalStab:
      return 2;
    default:
      return 3;
  }
}

}  // namespace e2e
}  // namespace ccidx
