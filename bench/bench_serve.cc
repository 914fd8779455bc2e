// Closed-loop serving load driver (DESIGN.md §12). Plain main() — the
// serving front-end needs multi-client closed-loop arrival, not
// google-benchmark's single-thread iteration loop — reporting through
// the same PrintMetricLine JSON lines the other benches use, so the CI
// driver folds the output into BENCH_serving.json.
//
// Each client is one loopback session issuing one request at a time
// (send, block for the response, repeat) over a mixed cheap-query
// workload; offered load scales with the client count. Legs:
//
//   serve/batch1/cN    dispatch pinned to batch size 1 (fixed_batch=1) —
//                      the no-batching comparison baseline
//   serve/adaptive/cN  adaptive batch formation, swept over client
//                      counts from unsaturated to saturating
//   serve/overload/cN  2x the saturating client count against a low
//                      high-watermark: admission control must shed
//                      (shed > 0) while the bounded queue holds accepted
//                      p99 near the saturated leg's
//
// Per leg: qps, p50/p99/p999 latency (us), ok/shed counts, shed_rate,
// mean/max dispatch batch size, the adaptive target at the end of the
// run, and the queue-depth histogram (log2 buckets). The serving-smoke
// CI job asserts the acceptance criteria over these lines: qps > 0
// everywhere, adaptive >= 1.5x batch1 at saturation, overload sheds and
// keeps accepted p99 within 3x of the unsaturated leg's.
//
// CCIDX_SERVE_BENCH_MS overrides the measured duration per leg (default
// 400 ms — CI smoke length).

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "ccidx/bptree/bptree.h"
#include "ccidx/common/status.h"
#include "ccidx/core/metablock_tree.h"
#include "ccidx/core/three_sided_tree.h"
#include "ccidx/interval/interval_index.h"
#include "ccidx/io/wal.h"
#include "ccidx/serve/server.h"
#include "ccidx/serve/transport.h"
#include "ccidx/testutil/generators.h"

namespace ccidx {
namespace bench {
namespace {

using serve::LoopbackConnection;
using serve::Request;
using serve::RequestType;
using serve::Response;
using serve::ResultMode;
using serve::ServeTables;
using serve::Server;
using serve::ServerOptions;
using serve::ServerStats;
using serve::WireStatus;
using Clock = std::chrono::steady_clock;

constexpr uint32_t kB = 16;
constexpr Coord kDomain = 4000;

struct Fixture {
  explicit Fixture()
      : disk(kB),
        metablock([&] {
          auto r = MetablockTree::Build(
              &disk.pager, RandomPointsAboveDiagonal(4000, kDomain, 11));
          CCIDX_CHECK(r.ok());
          return std::move(*r);
        }()),
        btree([&] {
          std::vector<BtEntry> entries;
          for (int64_t k = 0; k < 3000; ++k) {
            entries.push_back({k * 2, static_cast<uint64_t>(k), 0});
          }
          auto r = BPlusTree::BulkLoad(&disk.pager, entries);
          CCIDX_CHECK(r.ok());
          return std::move(*r);
        }()),
        interval([&] {
          auto r = IntervalIndex::Build(
              &disk.pager, RandomIntervals(3000, kDomain,
                                           IntervalWorkload::kUniform, 13));
          CCIDX_CHECK(r.ok());
          return std::move(*r);
        }()),
        three_sided([&] {
          auto r = ThreeSidedTree::Build(&disk.pager,
                                         RandomPoints(3000, kDomain, 17));
          CCIDX_CHECK(r.ok());
          return std::move(*r);
        }()) {}

  ServeTables Tables() {
    ServeTables t;
    t.pager = &disk.pager;
    t.metablock = &metablock;
    t.btree = &btree;
    t.interval = &interval;
    t.three_sided = &three_sided;
    return t;
  }

  Disk disk;
  MetablockTree metablock;
  BPlusTree btree;
  IntervalIndex interval;
  ThreeSidedTree three_sided;
};

// Cheap early-stop queries (exists / count over short ranges): per-query
// engine time is small, so per-round dispatch overhead — gate entry,
// worker wake, queue pop — dominates at batch size 1. That is the
// regime where batch formation pays, and what serving amortizes.
Request MixedRequest(uint64_t seq) {
  Request req;
  const Coord a = static_cast<Coord>((seq * 467) % kDomain);
  switch (seq % 4) {
    case 0:
      req.type = RequestType::kMetablockDiagonal;
      req.mode = ResultMode::kExists;
      req.args = {a, 0, 0};
      break;
    case 1:
      req.type = RequestType::kBtreeRange;
      req.mode = ResultMode::kCount;
      req.args = {a, a + 16, 0};
      break;
    case 2:
      req.type = RequestType::kIntervalStab;
      req.mode = ResultMode::kExists;
      req.args = {a, 0, 0};
      break;
    default:
      req.type = RequestType::kThreeSided;
      req.mode = ResultMode::kCount;
      req.args = {a, a + 32, kDomain / 2};
      break;
  }
  return req;
}

// As MixedRequest, with every fourth request a small B+-tree update
// batch: the WAL restart leg needs real write txns flowing through the
// serving path (inserts into a disjoint key range; the occasional
// matching delete exercises both the logging and the no-op paths).
Request MixedWithUpdates(uint64_t seq) {
  if (seq % 4 != 3) return MixedRequest(seq);
  Request req;
  req.type = RequestType::kUpdateBatch;
  req.updates.reserve(4);
  for (uint64_t i = 0; i < 4; ++i) {
    const uint64_t n = seq * 4 + i;
    serve::UpdateOp op;
    op.kind = (n % 3 == 2) ? serve::UpdateOp::Kind::kDelete
                           : serve::UpdateOp::Kind::kInsert;
    op.key = static_cast<int64_t>(1000000 + n % 512);
    op.value = n % 64;
    op.aux = 0;
    req.updates.push_back(op);
  }
  return req;
}

struct LegResult {
  double seconds = 0;
  uint64_t ok = 0;
  uint64_t shed = 0;
  uint64_t errors = 0;
  std::vector<double> latencies_us;  // accepted (kOk) requests only
  ServerStats stats;
  double qps() const { return seconds > 0 ? ok / seconds : 0; }
};

double Percentile(std::vector<double>* v, double p) {
  if (v->empty()) return 0;
  std::sort(v->begin(), v->end());
  return (*v)[static_cast<size_t>(p * (v->size() - 1))];
}

LegResult RunLeg(Fixture* fx, const ServerOptions& opts, unsigned clients,
                 std::chrono::milliseconds duration,
                 Request (*mix)(uint64_t) = MixedRequest) {
  Server server(fx->Tables(), opts);
  server.Start();

  std::atomic<bool> stop{false};
  struct PerClient {
    uint64_t ok = 0;
    uint64_t shed = 0;
    uint64_t errors = 0;
    std::vector<double> latencies_us;
  };
  std::vector<PerClient> per_client(clients);
  std::vector<std::thread> threads;
  threads.reserve(clients);
  for (unsigned c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      LoopbackConnection conn(&server);
      PerClient& me = per_client[c];
      uint64_t seq = c;  // de-phase the mixes across clients
      while (!stop.load(std::memory_order_relaxed)) {
        Request req = mix(seq);
        seq += clients;
        auto t0 = Clock::now();
        Response resp = conn.Call(std::move(req));
        std::chrono::duration<double, std::micro> dt = Clock::now() - t0;
        if (resp.status == WireStatus::kOk) {
          ++me.ok;
          me.latencies_us.push_back(dt.count());
        } else if (resp.status == WireStatus::kOverloaded) {
          ++me.shed;
          // Retry-after: a shed client must not hot-spin resubmitting —
          // that converts load shedding back into lock contention on
          // the admission queue (the driver saw exactly that collapse
          // without this backoff: ~1M sheds starving the dispatcher).
          std::this_thread::sleep_for(std::chrono::microseconds(5000));
        } else {
          ++me.errors;
        }
      }
    });
  }

  auto t0 = Clock::now();
  std::this_thread::sleep_for(duration);
  stop.store(true);
  for (std::thread& t : threads) t.join();
  std::chrono::duration<double> elapsed = Clock::now() - t0;
  server.Stop();

  LegResult result;
  result.seconds = elapsed.count();
  for (PerClient& pc : per_client) {
    result.ok += pc.ok;
    result.shed += pc.shed;
    result.errors += pc.errors;
    result.latencies_us.insert(result.latencies_us.end(),
                               pc.latencies_us.begin(),
                               pc.latencies_us.end());
  }
  result.stats = server.stats();
  return result;
}

void Report(const std::string& leg, LegResult* r) {
  PrintMetricLine(leg, "qps", r->qps());
  PrintMetricLine(leg, "ok", static_cast<double>(r->ok));
  PrintMetricLine(leg, "shed", static_cast<double>(r->shed));
  PrintMetricLine(leg, "errors", static_cast<double>(r->errors));
  // Overload-only rate from the server-side split counters: pushes
  // refused because Stop() closed the queue (rejected_closed) are a
  // shutdown artifact, not admission control, and must not inflate the
  // shed rate the CI overload assertion reads.
  const double offered =
      static_cast<double>(r->stats.admitted + r->stats.shed);
  PrintMetricLine(leg, "shed_rate",
                  offered > 0 ? r->stats.shed / offered : 0);
  PrintMetricLine(leg, "rejected_closed",
                  static_cast<double>(r->stats.rejected_closed));
  PrintMetricLine(leg, "p50_us", Percentile(&r->latencies_us, 0.50));
  PrintMetricLine(leg, "p99_us", Percentile(&r->latencies_us, 0.99));
  PrintMetricLine(leg, "p999_us", Percentile(&r->latencies_us, 0.999));
  // Server-side accepted-request latency (admission -> delivery): the
  // series the admission controller bounds, and the one the smoke job's
  // tail assertion reads — client-side sojourn above also counts client
  // scheduling delay, which balloons on oversubscribed CI hosts.
  std::vector<double> accept = r->stats.dispatch.accept_latency_us;
  PrintMetricLine(leg, "accept_p50_us", Percentile(&accept, 0.50));
  PrintMetricLine(leg, "accept_p99_us", Percentile(&accept, 0.99));
  PrintMetricLine(leg, "accept_p999_us", Percentile(&accept, 0.999));
  const auto& d = r->stats.dispatch;
  PrintMetricLine(leg, "batches", static_cast<double>(d.batches));
  PrintMetricLine(leg, "mean_batch",
                  d.batches > 0
                      ? static_cast<double>(d.batch_size_sum) / d.batches
                      : 0);
  PrintMetricLine(leg, "max_batch", static_cast<double>(d.max_batch_seen));
  PrintMetricLine(leg, "deadline_dropped",
                  static_cast<double>(r->stats.deadline_dropped));
  // Queue-depth histogram: bucket i counts admissions that saw queue
  // depth in [2^i, 2^(i+1)). Zero buckets are elided.
  for (size_t i = 0; i < r->stats.queue_depth_hist.size(); ++i) {
    if (r->stats.queue_depth_hist[i] == 0) continue;
    PrintMetricLine(leg, "qdepth_bucket" + std::to_string(i),
                    static_cast<double>(r->stats.queue_depth_hist[i]));
  }
}

int Run() {
  int leg_ms = 400;
  if (const char* env = std::getenv("CCIDX_SERVE_BENCH_MS")) {
    leg_ms = std::atoi(env);
    if (leg_ms <= 0) leg_ms = 400;
  }
  const std::chrono::milliseconds duration{leg_ms};

  Fixture fx;
  // Fault the working set in once so every leg serves warm.
  {
    ServerOptions warm_opts;
    LegResult warm =
        RunLeg(&fx, warm_opts, 4, std::chrono::milliseconds(50));
    CCIDX_CHECK(warm.errors == 0);
  }

  const unsigned kSaturating = 16;
  ServerOptions base;
  base.query_threads = 4;
  base.update_threads = 2;
  base.queue_capacity = 4096;
  // Sweep legs must never shed: the high watermark sits above the
  // largest possible backlog (one outstanding request per client).
  base.high_watermark = 4096;

  // Baseline: dispatch pinned to batch size 1 at the saturating count.
  {
    ServerOptions opts = base;
    opts.fixed_batch = 1;
    LegResult r = RunLeg(&fx, opts, kSaturating, duration);
    Report("serve/batch1/c" + std::to_string(kSaturating), &r);
  }

  // Adaptive batch formation across the arrival-rate sweep.
  for (unsigned clients : {1u, 4u, 8u, kSaturating}) {
    LegResult r = RunLeg(&fx, base, clients, duration);
    Report("serve/adaptive/c" + std::to_string(clients), &r);
  }

  // Overload: 2x the saturating clients against a high watermark below
  // the offered outstanding count, so admission control must shed. The
  // accepted backlog is bounded at the watermark — that bound is what
  // keeps accepted p99 flat while the excess sheds.
  {
    ServerOptions opts = base;
    opts.high_watermark = 4;
    LegResult r = RunLeg(&fx, opts, 2 * kSaturating, duration);
    Report("serve/overload/c" + std::to_string(2 * kSaturating), &r);
  }

  // Clean restart under WAL (CCIDX_WAL=1; the crash-recovery CI job's
  // serving leg): attach a write-ahead log, drive a mixed query + update
  // load, stop, checkpoint under quiescence, then serve the same tables
  // from a fresh Server — DESIGN.md §13's clean-restart path. Runs last
  // so its updates cannot perturb the comparison legs above.
  if (const char* env = std::getenv("CCIDX_WAL");
      env != nullptr && env[0] == '1') {
    Wal wal(&fx.disk.device, MakeMemWalStorage());
    fx.disk.pager.AttachWal(&wal);
    {
      LegResult r = RunLeg(&fx, base, 8, duration, MixedWithUpdates);
      Report("serve/wal_mixed/c8", &r);
      CCIDX_CHECK(r.errors == 0);
    }
    CCIDX_CHECK(wal.Checkpoint(&fx.disk.pager).ok());
    {
      LegResult r = RunLeg(&fx, base, 4, duration);
      Report("serve/wal_restart/c4", &r);
      CCIDX_CHECK(r.errors == 0);
      CCIDX_CHECK(r.ok > 0);
    }
    const std::string leg = "serve/wal_restart/c4";
    PrintMetricLine(leg, "wal_commits", static_cast<double>(wal.commits()));
    PrintMetricLine(leg, "wal_group_follows",
                    static_cast<double>(wal.group_follows()));
    PrintMetricLine(leg, "wal_checkpoints",
                    static_cast<double>(wal.checkpoints()));
    PrintMetricLine(leg, "wal_log_bytes",
                    static_cast<double>(wal.log_bytes()));
  }
  return 0;
}

}  // namespace
}  // namespace bench
}  // namespace ccidx

int main() { return ccidx::bench::Run(); }
