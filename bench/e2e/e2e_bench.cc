// End-to-end served benchmark (see README.md).
//
//   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
//             [--trace-out FILE]
//
// Builds the four served tables from the seed, precomputes the answer of
// every read template, and serves an open-loop load (loadgen.h) through
// serve::Server's OpenSession / OnFrame / session writer. The request
// rates and latency limits are frozen in the workload table (tables.cc).
//
// --trace 0 measures the end-to-end metrics with tracing off: set-up time
// (median of kSetupRepeats builds), then peak memory and space
// amplification after serving a fixed-rate low leg and high leg, whose
// CPU and latency are printed as diagnostics. --trace 1 is the separate
// traced run: an untraced and a traced high leg, a rate ladder that finds
// the highest rate meeting the workload's p99 limit, a single-threaded
// replay of the stream against the families, and the per-layer metrics
// from spans and the modules' stats snapshots.
//
// Every metric is printed as one JSON line; the last line of stdout is the
// run summary {"correct","attempted","failed","metrics"}. The exit code is
// 0 only when every response matched its expected answer.

#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <random>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "ccidx/dynamic/maintenance.h"
#include "ccidx/serve/server.h"
#include "ccidx/simd/simd.h"
#include "loadgen.h"
#include "tables.h"
#include "trace.h"

namespace ccidx {
namespace e2e {
namespace {

// Shares of --seconds. The fixed-rate legs (low, high) each take half;
// warm-up, the ladder and the traced run's replay come on top.
constexpr double kWarmShare = 1.0 / 6;
constexpr double kLowShare = 0.5;
constexpr double kHighShare = 0.5;
constexpr double kStepShare = 0.125;  // one ladder step
constexpr double kReplayShare = 0.2;  // time cap of the family replay

// Server CPU per request is measured per window of a fixed-rate leg, and
// the metric is the median over the windows: a host stall or a noisy
// neighbour that hits one stretch of a leg moves one window, not the
// median.
constexpr int kCpuWindows = 6;

// The ladder starts at rate_high (about half the reference machine's
// max_rate_at_slo) and climbs by kClimbFactor, with no cap on the number of
// steps, until a step fails; if the first step fails it descends the same
// way until one passes. It then bisects (geometric mean) between the
// highest pass and the lowest failure for kBisectSteps more steps. Every
// bisection rate lies between the two, so a pass is always below a
// failure. The climb ends by kMaxLadderSteps in any case, because the
// sender cannot keep up with an unbounded rate and a step it cannot send
// fails; a ladder that never brackets the limit invalidates the run.
constexpr double kClimbFactor = 1.25;
constexpr int kBisectSteps = 4;
constexpr int kMaxLadderSteps = 40;
constexpr double kMaxFailFrac = 0.001;
constexpr double kMinSendRatio = 0.98;

constexpr int kSetupRepeats = 5;
constexpr size_t kQueryTemplates = 8192;
constexpr unsigned kOracleThreads = 4;
constexpr size_t kReplayRequests = 10000;
// The traced leg samples requests so that their spans stay near
// kTracedRequestSpans (about 12 MB of trace file); log and family spans
// fill the rest of the capacity.
constexpr size_t kTraceCapacity = 200'000;
constexpr double kTracedRequestSpans = 100'000;
constexpr double kSpansPerRequest = 4;

// Windows of a windowed percentile hold at least this many samples, so a
// p99 has at least ten samples beyond it.
constexpr size_t kWindowSamples = 1000;
constexpr size_t kMaxWindows = 16;

struct Args {
  std::string workload;
  uint32_t seed = 1;
  double seconds = 12;
  bool trace = false;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return false;
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      a->workload = v;
      continue;
    }
    if (flag == "--trace-out") {
      a->trace_out = v;
      continue;
    }
    const double x = std::strtod(v, &end);
    if (end == v || *end != '\0' || !std::isfinite(x)) return false;
    if (flag == "--seed" && x >= 0 && x <= 4294967295.0) {
      a->seed = static_cast<uint32_t>(x);
    } else if (flag == "--seconds" && x >= 4 && x <= 600) {
      a->seconds = x;
    } else if (flag == "--trace" && (x == 0 || x == 1)) {
      a->trace = x == 1;
    } else {
      return false;
    }
  }
  return !a->workload.empty();
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

// Nearest-rank percentile, p in [0, 1]. Failed requests are +infinity.
double Percentile(std::vector<float> v, double p) {
  if (v.empty()) return 0;
  const size_t k = std::min(
      v.size() - 1, static_cast<size_t>(std::ceil(p * v.size())) - (p > 0));
  std::nth_element(v.begin(), v.begin() + k, v.end());
  return v[k];
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : (v[m - 1] + v[m]) / 2;
}

std::vector<float> Latencies(const std::vector<Sample>& s) {
  std::vector<float> out;
  out.reserve(s.size());
  for (const Sample& x : s) out.push_back(x.latency_us);
  return out;
}

std::vector<Sample> AllOps(const LegResult& leg) {
  std::vector<Sample> all = leg.reads;
  all.insert(all.end(), leg.writes.begin(), leg.writes.end());
  return all;
}

// The p-th percentile as the median of per-window percentiles over
// consecutive windows of due time. A stall that hits one stretch of the
// leg moves one window's figure, not the leg's.
double WindowedPercentile(const std::vector<Sample>& s, const LegResult& leg,
                          double p) {
  if (s.empty()) return 0;
  const size_t windows =
      std::clamp<size_t>(s.size() / kWindowSamples, 1, kMaxWindows);
  std::vector<std::vector<float>> w(windows);
  const double span_ns = leg.seconds * 1e9;
  for (const Sample& x : s) {
    const double at = static_cast<double>(x.due_ns - leg.start_ns) / span_ns;
    const size_t i = std::min(
        windows - 1, static_cast<size_t>(std::max(0.0, at) * windows));
    w[i].push_back(x.latency_us);
  }
  std::vector<double> per_window;
  for (std::vector<float>& v : w) {
    if (!v.empty()) per_window.push_back(Percentile(std::move(v), p));
  }
  return Median(per_window);
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

std::string Hardware() {
  std::string model;
#if defined(__x86_64__) || defined(__i386__)
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf >= 0x80000004u) {
    char brand[49] = {};
    for (unsigned i = 0; i < 3; ++i) {
      unsigned r[4];
      __get_cpuid(0x80000002u + i, &r[0], &r[1], &r[2], &r[3]);
      std::memcpy(brand + 16 * i, r, sizeof r);
    }
    model = brand;
  }
#endif
  model.erase(0, model.find_first_not_of(' '));
  model.erase(model.find_last_not_of(' ') + 1);
  std::string safe;
  for (char c : model) safe.push_back(c == '"' || c == '\\' ? ' ' : c);
  if (safe.empty()) safe = "unknown-cpu";
  return safe + " x" + std::to_string(std::thread::hardware_concurrency());
}

class Reporter {
 public:
  Reporter(std::string workload, uint32_t seed)
      : workload_(std::move(workload)),
        seed_(seed),
        dispatch_(simd::LevelName(simd::ActiveLevel())),
        hardware_(Hardware()) {}

  /// Prints one metric line. `summary` metrics also go into the final
  /// summary line; the others are diagnostics.
  void Metric(const std::string& name, const char* unit, const char* layer,
              double value, bool summary = true) {
    // A failed leg can leave an infinite percentile; JSON has no inf.
    if (!std::isfinite(value)) value = 1e12;
    std::printf(
        "{\"workload\": \"%s\", \"metric\": \"%s\", \"unit\": \"%s\", "
        "\"layer\": \"%s\", \"value\": %.17g, \"seed\": %u, "
        "\"dispatch\": \"%s\", \"hardware\": \"%s\"}\n",
        workload_.c_str(), name.c_str(), unit, layer, value, seed_, dispatch_,
        hardware_.c_str());
    if (summary) summary_.push_back({name, unit, value});
  }

  void Finish(bool correct, uint64_t attempted, uint64_t failed) {
    std::string line = "{\"correct\": ";
    line += correct ? "true" : "false";
    line += ", \"attempted\": " + std::to_string(attempted);
    line += ", \"failed\": " + std::to_string(failed);
    line += ", \"metrics\": {";
    for (size_t i = 0; i < summary_.size(); ++i) {
      char value[64];
      std::snprintf(value, sizeof value, "%.17g", summary_[i].value);
      if (i > 0) line += ", ";
      line += "\"" + summary_[i].name + "\": {\"value\": " + value +
              ", \"unit\": \"" + summary_[i].unit + "\"}";
    }
    line += "}}";
    std::printf("%s\n", line.c_str());
    std::fflush(stdout);
  }

 private:
  struct Entry {
    std::string name;
    std::string unit;
    double value;
  };
  const std::string workload_;
  const uint32_t seed_;
  const char* const dispatch_;
  const std::string hardware_;
  std::vector<Entry> summary_;
};

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double CpuSeconds(clockid_t clock) {
  timespec ts{};
  clock_gettime(clock, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

// ---------------------------------------------------------------------------
// Set-up and serving
// ---------------------------------------------------------------------------

// Builds the tables `repeats` times, keeping the last set; *median_s is
// the median build time. Each previous set is freed before the next build
// so the repeats do not stack memory.
std::unique_ptr<Tables> SetUp(const WorkloadSpec& spec, uint32_t seed,
                              Tracer* tracer, int repeats, double* median_s) {
  std::vector<double> times;
  std::unique_ptr<Tables> tables;
  for (int i = 0; i < repeats; ++i) {
    tables.reset();
    const int64_t t0 = NowNs();
    tables = std::make_unique<Tables>(spec, seed, tracer);
    times.push_back(static_cast<double>(NowNs() - t0) / 1e9);
  }
  *median_s = Median(times);
  return tables;
}

serve::ServerOptions Options() {
  serve::ServerOptions opts;
  opts.query_threads = 2;
  opts.update_threads = 1;
  // The shared virtual machines this runs on stall a vCPU for 5-70 ms
  // several times a minute. At the default shed watermark (512) such a
  // stall sheds requests at any rate above ~32k req/s, so every leg would
  // fail requests for reasons outside the engine. A queue deep enough to
  // ride out a stall turns it into latency, which the windowed p99 absorbs.
  // A watermark of 32768 (a 130 ms stall at point_hot's 240k req/s) still
  // shed in one traced run of ten; 131072 covers half a second.
  opts.queue_capacity = 262144;
  opts.high_watermark = 131072;
  return opts;
}

// Restricts the calling thread, and the threads it creates from now on,
// to CPUs [first, last]. Returns false (and changes nothing) when the
// machine has a single CPU.
bool PinCallingThread(unsigned first, unsigned last) {
  if (std::thread::hardware_concurrency() < 2) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (unsigned c = first; c <= last; ++c) CPU_SET(c, &set);
  return sched_setaffinity(0, sizeof set, &set) == 0;
}

// A running server with its load generator and, when the workload logs,
// the maintenance thread that checkpoints the log whenever it passes
// kCheckpointLogBytes.
//
// The sender spins between closely spaced requests, so it gets a CPU of
// its own: the server's threads are created while the calling thread is
// pinned to the other CPUs (they inherit that mask), then the calling
// thread — the sender — moves to the last CPU. Without the split, where
// the scheduler happens to place the sender against the dispatcher and
// workers shifts every latency of a run by up to a third.
class Serving {
 public:
  Serving(Tables* tables, const WorkloadSpec& spec,
          std::span<const serve::Request> queries,
          std::span<const Answer> answers, uint32_t seed, Tracer* tracer)
      : tables_(tables),
        tracer_(tracer),
        split_(PinCallingThread(0, std::thread::hardware_concurrency() - 2)),
        server_(tables->Serve(), Options()),
        gen_(&server_, spec, queries, answers, seed, tracer) {
    if (tables->wal() != nullptr) {
      maint_.emplace(server_.query_executor()->gate());
      gen_.set_idle_hook([this] { MaybeCheckpoint(); });
    }
    server_.Start();
    if (split_) {
      const unsigned last = std::thread::hardware_concurrency() - 1;
      PinCallingThread(last, last);
    }
  }

  Serving(const Serving&) = delete;
  Serving& operator=(const Serving&) = delete;

  ~Serving() { Stop(); }

  /// Finishes pending checkpoints and stops the server; idempotent.
  void Stop() {
    if (maint_) maint_->Drain();
    server_.Stop();
  }

  serve::Server& server() { return server_; }
  LoadGen& gen() { return gen_; }

  /// [start, end] of every checkpoint taken so far.
  std::vector<std::pair<int64_t, int64_t>> checkpoints() const {
    std::lock_guard lock(ckpt_mu_);
    return checkpoints_;
  }

 private:
  void MaybeCheckpoint() {
    if (ckpt_pending_.load() ||
        tables_->wal()->log_bytes() < kCheckpointLogBytes) {
      return;
    }
    ckpt_pending_.store(true);
    maint_->Schedule([this, job = maint_->CheckpointJob(tables_->wal(),
                                                       &tables_->pager())] {
      const int64_t t0 = NowNs();
      {
        ScopedSpan span(tracer_, "io.wal.checkpoint");
        job();
      }
      const int64_t t1 = NowNs();
      {
        std::lock_guard lock(ckpt_mu_);
        checkpoints_.emplace_back(t0, t1);
      }
      ckpt_pending_.store(false);
    });
  }

  Tables* const tables_;
  Tracer* const tracer_;
  const bool split_;  // initialized before the server: see class comment
  serve::Server server_;
  LoadGen gen_;
  mutable std::mutex ckpt_mu_;
  std::vector<std::pair<int64_t, int64_t>> checkpoints_;  // guarded
  std::atomic<bool> ckpt_pending_{false};
  // Last member: destroyed first, so no checkpoint job outlives the gate,
  // the server or the bookkeeping above.
  std::optional<MaintenanceThread> maint_;
};

// After the server stops: every response matched its expected answer,
// `replay_ok` (the traced run's family replay agreed with the answers),
// and the update key range holds exactly what the per-session replay of
// the acknowledged update batches says. Reports each failure on stderr.
bool Verify(const Tables& tables, const LoadGen& gen, bool replay_ok) {
  std::map<std::pair<int64_t, uint64_t>, int64_t> seen;
  const int64_t hi =
      kUpdateKeyBase + static_cast<int64_t>(kSessions) * kSessionKeyStride - 1;
  Status s = tables.btree().RangeScan(
      kUpdateKeyBase, hi, [&](const BtEntry& e) { ++seen[{e.key, e.value}]; });
  const bool updates_ok = s.ok() && seen == gen.expected_updates();
  if (!gen.correct()) {
    std::fprintf(stderr, "wrong response: %s (%llu mismatches)\n",
                 gen.first_mismatch().c_str(),
                 static_cast<unsigned long long>(gen.mismatches()));
  }
  if (!replay_ok) std::fprintf(stderr, "family replay disagrees with answers\n");
  if (!updates_ok) std::fprintf(stderr, "update range disagrees with replay\n");
  return gen.correct() && replay_ok && updates_ok;
}

// Device bytes over 24 bytes per record, the records being the bulk-loaded
// ones of every table plus the update range's net inserts.
double SpaceAmp(Tables& tables, const LoadGen& gen) {
  double records = 4.0 * kRecordsPerTable;
  for (const auto& [key, mult] : gen.expected_updates()) records += mult;
  return static_cast<double>(tables.device().live_pages()) *
         tables.device().page_size() / (24.0 * records);
}

// A fixed-rate leg run as kCpuWindows consecutive windows, with the server's
// CPU time per response in each: the CPU time of every thread but this one,
// the sender.
struct FixedLeg {
  LegResult leg;  // the windows' samples and counts, merged
  std::vector<double> cpu_us_per_req;
};

FixedLeg RunFixed(LoadGen& gen, double rate, double seconds) {
  FixedLeg out;
  out.leg.rate = rate;
  // Reserved up front: growing the merged buffers window by window would
  // leave peak memory to where the reallocations happen to fall.
  const size_t expect = static_cast<size_t>(rate * seconds * 1.1) + 16;
  out.leg.reads.reserve(expect);
  out.leg.late_us.reserve(expect);
  for (int w = 0; w < kCpuWindows; ++w) {
    const double process0 = CpuSeconds(CLOCK_PROCESS_CPUTIME_ID);
    const double sender0 = CpuSeconds(CLOCK_THREAD_CPUTIME_ID);
    const LegResult part = gen.Run(rate, seconds / kCpuWindows, false);
    const double server_cpu_s =
        (CpuSeconds(CLOCK_PROCESS_CPUTIME_ID) - process0) -
        (CpuSeconds(CLOCK_THREAD_CPUTIME_ID) - sender0);
    out.cpu_us_per_req.push_back(Ratio(server_cpu_s * 1e6, part.responses));
    if (w == 0) out.leg.start_ns = part.start_ns;
    // The windows follow each other with only the drain of the last
    // responses between them; the merged leg spans all of them.
    out.leg.seconds = static_cast<double>(part.start_ns - out.leg.start_ns) /
                          1e9 +
                      part.seconds;
    out.leg.Append(part);
  }
  return out;
}

// ---------------------------------------------------------------------------
// --trace 0: end-to-end metrics
// ---------------------------------------------------------------------------

int RunEndToEnd(const Args& args, const WorkloadSpec& spec) {
  Reporter out(spec.name, args.seed);
  Tracer tracer(0);  // never armed: nothing is traced in this run
  double setup_s = 0;
  std::unique_ptr<Tables> tables =
      SetUp(spec, args.seed, &tracer, kSetupRepeats, &setup_s);
  const std::vector<serve::Request> queries =
      MakeQueries(spec, args.seed, kQueryTemplates);
  const std::vector<Answer> answers =
      ComputeAnswers(*tables, queries, kOracleThreads);

  Serving serving(tables.get(), spec, queries, answers, args.seed, &tracer);
  LoadGen& gen = serving.gen();
  const double s = args.seconds;
  gen.Run(spec.rate_low, kWarmShare * s, false);
  const FixedLeg low = RunFixed(gen, spec.rate_low, kLowShare * s);
  const FixedLeg high = RunFixed(gen, spec.rate_high, kHighShare * s);
  serving.Stop();
  const bool correct = Verify(*tables, gen, true);

  out.Metric("setup_s", "s", "e2e", setup_s);
  out.Metric("peak_rss_mb", "MB", "e2e", PeakRssMb());
  out.Metric("space_amp", "ratio", "e2e", SpaceAmp(*tables, gen));
  // Diagnostics: CPU and latency at the two fixed rates. On a shared
  // virtual machine their run-to-run spread (5-13% for CPU, 12% and up for
  // latency) is too wide for a 10% bound; the traced run reports the high
  // leg's as per-layer metrics.
  for (const FixedLeg* fixed : {&low, &high}) {
    const LegResult& leg = fixed->leg;
    const std::string name = fixed == &low ? "low." : "high.";
    out.Metric(name + "cpu_us_per_req", "us", "e2e",
               Median(fixed->cpu_us_per_req), false);
    for (const auto& [p, tag] : {std::pair{0.5, "p50"}, std::pair{0.9, "p90"},
                                 std::pair{0.99, "p99"}}) {
      out.Metric(name + "read_" + tag + "_us", "us", "e2e",
                 WindowedPercentile(leg.reads, leg, p), false);
      if (!leg.writes.empty()) {
        out.Metric(name + "write_" + tag + "_us", "us", "e2e",
                   WindowedPercentile(leg.writes, leg, p), false);
      }
    }
    out.Metric(name + "samples", "count", "e2e",
               leg.reads.size() + leg.writes.size(), false);
  }
  out.Finish(correct, low.leg.responses + high.leg.responses,
             low.leg.failed() + high.leg.failed());
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --trace 1: per-layer metrics
// ---------------------------------------------------------------------------

// Cumulative counters of every layer, read before and after the traced leg.
struct Snapshot {
  serve::ServerStats server;
  WaitHistogram reader_wait, writer_wait;
  uint64_t reads_contended = 0, reads_uncontended = 0;
  uint64_t writes_contended = 0, writes_uncontended = 0;
  IoStats io;
  uint64_t prefetches = 0;
  uint64_t wal_commits = 0, wal_records = 0, wal_syncs = 0;
  TimedWalStorage::Counters log;
};

Snapshot Snap(Serving& serving, Tables& tables) {
  Snapshot s;
  s.server = serving.server().stats();
  const EpochGate* gate = serving.server().query_executor()->gate();
  s.reader_wait = gate->reader_wait_histogram();
  s.writer_wait = gate->writer_wait_histogram();
  s.reads_contended = gate->contended_reads();
  s.reads_uncontended = gate->uncontended_reads();
  s.writes_contended = gate->contended_writes();
  s.writes_uncontended = gate->uncontended_writes();
  s.io = tables.pager().CombinedStats();
  s.prefetches = tables.pager().prefetches_issued();
  if (Wal* wal = tables.wal()) {
    s.wal_commits = wal->commits();
    s.wal_records = wal->records();
    s.wal_syncs = wal->syncs();
    s.log = tables.wal_storage()->counters();
  }
  return s;
}

WaitHistogram Minus(const WaitHistogram& a, const WaitHistogram& b) {
  WaitHistogram d;
  for (size_t i = 0; i < WaitHistogram::kBuckets; ++i) {
    d.buckets[i] = a.buckets[i] - b.buckets[i];
  }
  d.count = a.count - b.count;
  d.total_ns = a.total_ns - b.total_ns;
  d.max_ns = a.max_ns;
  return d;
}

// Mean and p99 of queue depth from the admission-time log2 histogram
// (bucket i holds depths in [2^i, 2^(i+1))): bucket midpoints for the
// mean, the bucket's upper end for the p99.
std::pair<double, double> QueueDepth(const std::vector<uint64_t>& after,
                                     const std::vector<uint64_t>& before) {
  std::vector<double> d(after.size());
  double total = 0, sum = 0;
  for (size_t i = 0; i < after.size(); ++i) {
    d[i] = static_cast<double>(after[i] - before[i]);
    total += d[i];
    sum += d[i] * (i == 0 ? 1.0 : 1.5 * std::ldexp(1.0, static_cast<int>(i)));
  }
  double seen = 0, p99 = 0;
  for (size_t i = 0; i < d.size(); ++i) {
    seen += d[i];
    if (total > 0 && seen >= 0.99 * total) {
      p99 = std::ldexp(1.0, static_cast<int>(i) + 1) - 1;
      break;
    }
  }
  return {Ratio(sum, total), p99};
}

struct FamilyTotals {
  uint64_t requests = 0;
  uint64_t records = 0;
  uint64_t device_reads = 0;
  double bound = 0;  // sum of log_B n + t/B (+ log2 B for 3-sided)
};

constexpr const char* kFamilySpans[kFamilies] = {
    "family.metablock", "family.bptree", "family.interval",
    "family.three_sided"};

// Single-threaded replay of the request stream's reads straight into the
// families, with the server stopped: per-family self time, records and
// device reads per request, exact because nothing else touches the pool.
bool ReplayFamilies(Tables& tables, std::span<const serve::Request> queries,
                    std::span<const Answer> answers, uint32_t seed,
                    double budget_s, Tracer* tracer,
                    std::array<FamilyTotals, kFamilies>* totals) {
  std::mt19937_64 rng(seed ^ 0x6a09e667f3bcc909ull);
  std::uniform_int_distribution<size_t> pick(0, queries.size() - 1);
  const double log_b_n = std::log(static_cast<double>(kRecordsPerTable)) /
                         std::log(static_cast<double>(kBranching));
  const int64_t deadline = NowNs() + static_cast<int64_t>(budget_s * 1e9);
  bool ok = true;
  for (size_t r = 0; r < kReplayRequests && NowNs() < deadline; ++r) {
    const size_t i = pick(rng);
    const size_t f = FamilyIndex(queries[i].type);
    const IoStats before = tables.pager().CombinedStats();
    uint64_t records = 0;
    Result<Answer> got = Answer{};
    {
      ScopedSpan span(tracer, kFamilySpans[f], 0, i);
      got = RunDirect(tables, queries[i], &records);
    }
    const IoStats io = tables.pager().CombinedStats() - before;
    ok = ok && got.ok() && *got == answers[i];
    FamilyTotals& t = (*totals)[f];
    ++t.requests;
    t.records += records;
    t.device_reads += io.device_reads;
    t.bound += log_b_n + static_cast<double>(records) / kBranching +
               (f == 3 ? std::log2(static_cast<double>(kBranching)) : 0.0);
  }
  return ok;
}

struct Verdict {
  bool pass = false;
  double p99_us = 0;
  double goodput = 0;  // kOk responses per second of schedule
};

Verdict Judge(const LegResult& leg, double slo_us) {
  Verdict v;
  v.p99_us = WindowedPercentile(AllOps(leg), leg, 0.99);
  v.goodput = static_cast<double>(leg.ok) / leg.seconds;
  v.pass = v.p99_us <= slo_us &&
           Ratio(leg.failed(), leg.responses) <= kMaxFailFrac &&
           Ratio(leg.sent, leg.scheduled) >= kMinSendRatio &&
           leg.responses > 0;
  return v;
}

struct Ladder {
  bool bracketed = false;  // a step passed and a step failed
  double max_rate = 0;     // goodput of the highest step that passed
  int steps = 0;
  uint64_t attempted = 0;  // over the steps that passed
  uint64_t failed = 0;
};

// The rate ladder (see kClimbFactor). Steps past capacity probe overload on
// purpose; only steps that met the limit count toward attempted / failed.
Ladder ClimbLadder(LoadGen& gen, const WorkloadSpec& spec, double step_s) {
  Ladder out;
  double rate = spec.rate_high, pass_rate = 0, fail_rate = 0;
  int bisected = 0;
  while (out.steps < kMaxLadderSteps && bisected < kBisectSteps) {
    const LegResult leg = gen.Run(rate, step_s, false);
    const Verdict v = Judge(leg, spec.slo_us);
    std::fprintf(stderr, "ladder step %d: rate %.0f p99 %.0f us %s\n",
                 out.steps, rate, v.p99_us, v.pass ? "pass" : "fail");
    ++out.steps;
    if (out.bracketed) ++bisected;
    if (v.pass) {
      out.attempted += leg.responses;
      out.failed += leg.failed();
      pass_rate = rate;
      out.max_rate = v.goodput;
    } else {
      fail_rate = rate;
    }
    out.bracketed = pass_rate > 0 && fail_rate > 0;
    rate = out.bracketed     ? std::sqrt(pass_rate * fail_rate)
           : fail_rate == 0 ? rate * kClimbFactor
                            : rate / kClimbFactor;
  }
  return out;
}

int RunTraced(const Args& args, const WorkloadSpec& spec) {
  Reporter out(spec.name, args.seed);
  Tracer tracer(kTraceCapacity);
  double setup_s = 0;
  std::unique_ptr<Tables> tables = SetUp(spec, args.seed, &tracer, 1, &setup_s);
  const std::vector<serve::Request> queries =
      MakeQueries(spec, args.seed, kQueryTemplates);
  const std::vector<Answer> answers =
      ComputeAnswers(*tables, queries, kOracleThreads);

  Serving serving(tables.get(), spec, queries, answers, args.seed, &tracer);
  LoadGen& gen = serving.gen();
  const double s = args.seconds;
  gen.Run(spec.rate_low, kWarmShare * s, false);
  const FixedLeg untraced = RunFixed(gen, spec.rate_high, kHighShare * s);
  const LegResult& plain = untraced.leg;

  const Snapshot before = Snap(serving, *tables);
  const uint64_t every = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(spec.rate_high * kHighShare * s *
                                         kSpansPerRequest /
                                         kTracedRequestSpans)));
  tracer.Arm(true);
  const LegResult leg = gen.Run(spec.rate_high, kHighShare * s, true, every);
  tracer.Arm(false);
  const int64_t leg_end = NowNs();
  const Snapshot after = Snap(serving, *tables);
  const Ladder ladder = ClimbLadder(gen, spec, kStepShare * s);
  serving.Stop();
  if (!ladder.bracketed) {
    std::fprintf(stderr, "rate ladder found no limit in %d steps\n",
                 ladder.steps);
    return 1;
  }

  std::array<FamilyTotals, kFamilies> fam{};
  tracer.Arm(true);
  const bool replay_ok = ReplayFamilies(*tables, queries, answers, args.seed,
                                        kReplayShare * s, &tracer, &fam);
  tracer.Arm(false);
  const bool correct = Verify(*tables, gen, replay_ok);

  const std::map<std::string, Tracer::SelfTime> self = tracer.SelfTimes();
  auto self_ns = [&](const char* name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second.mean_self_ns;
  };
  const double requests = static_cast<double>(leg.responses);
  const double leg_s = leg.seconds;

  // Load generator health.
  out.Metric("loadgen.late_p99_us", "us", "loadgen",
             Percentile(leg.late_us, 0.99));
  out.Metric("loadgen.send_rate_ratio", "ratio", "loadgen",
             Ratio(leg.sent, leg.scheduled));

  // Serving front end.
  const auto& sa = after.server;
  const auto& sb = before.server;
  out.Metric("serve.codec.encode_ns", "ns", "serve",
             self_ns("serve.codec.encode"));
  out.Metric("serve.codec.decode_ns", "ns", "serve",
             self_ns("serve.codec.decode"));
  out.Metric("serve.codec.resp_bytes", "B", "serve",
             Ratio(leg.response_bytes, leg.responses));
  out.Metric("serve.admit_ns", "ns", "serve", self_ns("serve.admit"));
  const auto [depth_mean, depth_p99] =
      QueueDepth(sa.queue_depth_hist, sb.queue_depth_hist);
  out.Metric("serve.queue.depth_mean", "count", "serve", depth_mean);
  out.Metric("serve.queue.depth_p99", "count", "serve", depth_p99);
  out.Metric("serve.queue.shed", "count", "serve", sa.shed - sb.shed);
  out.Metric("serve.queue.deadline_dropped", "count", "serve",
             sa.deadline_dropped - sb.deadline_dropped);
  const double batches =
      static_cast<double>(sa.dispatch.batches - sb.dispatch.batches);
  out.Metric("serve.dispatcher.mean_batch", "count", "serve",
             Ratio(sa.dispatch.batch_size_sum - sb.dispatch.batch_size_sum,
                   batches));
  out.Metric("serve.dispatcher.batches_per_s", "1/s", "serve",
             batches / leg_s);
  const std::vector<float> accept(
      sa.dispatch.accept_latency_us.begin() +
          static_cast<ptrdiff_t>(sb.dispatch.accept_latency_us.size()),
      sa.dispatch.accept_latency_us.end());
  const double accept_p50 = Percentile(accept, 0.5);
  out.Metric("serve.dispatcher.accept_p50_us", "us", "serve", accept_p50);
  out.Metric("serve.dispatcher.accept_p99_us", "us", "serve",
             Percentile(accept, 0.99));
  out.Metric("serve.client_overhead_p50_us", "us", "serve",
             Percentile(Latencies(AllOps(leg)), 0.5) - accept_p50);

  // Epoch gate.
  const WaitHistogram rw = Minus(after.reader_wait, before.reader_wait);
  const WaitHistogram ww = Minus(after.writer_wait, before.writer_wait);
  const double rc = static_cast<double>(after.reads_contended -
                                        before.reads_contended);
  const double ru = static_cast<double>(after.reads_uncontended -
                                        before.reads_uncontended);
  const double wc = static_cast<double>(after.writes_contended -
                                        before.writes_contended);
  const double wu = static_cast<double>(after.writes_uncontended -
                                        before.writes_uncontended);
  out.Metric("query.gate.reader_wait_mean_us", "us", "query",
             static_cast<double>(rw.MeanNs()) / 1e3);
  out.Metric("query.gate.reader_wait_p99_us", "us", "query",
             static_cast<double>(rw.PercentileNs(99)) / 1e3);
  out.Metric("query.gate.reader_contended_frac", "ratio", "query",
             Ratio(rc, rc + ru));
  out.Metric("query.gate.writer_wait_p99_us", "us", "query",
             static_cast<double>(ww.PercentileNs(99)) / 1e3);
  out.Metric("query.gate.writer_contended_frac", "ratio", "query",
             Ratio(wc, wc + wu));

  // Families (single-threaded replay).
  for (size_t f = 0; f < kFamilies; ++f) {
    const std::string base = std::string(kFamilySpans[f]) + ".";
    const FamilyTotals& t = fam[f];
    const double n = static_cast<double>(t.requests);
    out.Metric(base + "self_us", "us", "family",
               self_ns(kFamilySpans[f]) / 1e3);
    out.Metric(base + "records", "count", "family", Ratio(t.records, n));
    out.Metric(base + "device_reads", "reads/req", "family",
               Ratio(t.device_reads, n));
    out.Metric(base + "reads_over_bound", "ratio", "family",
               Ratio(t.device_reads, t.bound));
  }

  // Buffer pool and device.
  const IoStats io = after.io - before.io;
  out.Metric("io.pager.hit_rate", "ratio", "io",
             Ratio(io.cache_hits, io.cache_hits + io.cache_misses));
  out.Metric("io.pager.pins_per_req", "pins/req", "io",
             Ratio(io.pin_requests, requests));
  out.Metric("io.pager.misses_per_req", "misses/req", "io",
             Ratio(io.cache_misses, requests));
  out.Metric("io.pager.prefetches_per_req", "pages/req", "io",
             Ratio(after.prefetches - before.prefetches, requests));
  out.Metric("io.device.reads_per_req", "reads/req", "io",
             Ratio(io.device_reads, requests));
  out.Metric("io.device.batches_per_req", "batches/req", "io",
             Ratio(io.read_batches, requests));
  out.Metric("io.device.writes_per_update_op", "writes/op", "io",
             Ratio(io.device_writes, leg.update_ops));

  // Write-ahead log.
  const double commits =
      static_cast<double>(after.wal_commits - before.wal_commits);
  const TimedWalStorage::Counters& la = after.log;
  const TimedWalStorage::Counters& lb = before.log;
  out.Metric("io.wal.commits_per_s", "1/s", "io", commits / leg_s);
  out.Metric("io.wal.bytes_per_update_op", "B/op", "io",
             Ratio(la.append_bytes - lb.append_bytes, leg.update_ops));
  out.Metric("io.wal.records_per_commit", "ratio", "io",
             Ratio(after.wal_records - before.wal_records, commits));
  out.Metric("io.wal.syncs_per_commit", "ratio", "io",
             Ratio(after.wal_syncs - before.wal_syncs, commits));
  out.Metric("io.wal.append_us_mean", "us", "io",
             Ratio(la.append_ns - lb.append_ns, la.appends - lb.appends) /
                 1e3);
  out.Metric("io.wal.sync_us_mean", "us", "io",
             Ratio(la.sync_ns - lb.sync_ns, la.syncs - lb.syncs) / 1e3);
  std::vector<double> ckpt_ms;
  std::vector<std::pair<int64_t, int64_t>> in_leg;
  for (const auto& [t0, t1] : serving.checkpoints()) {
    if (t1 < leg.start_ns || t0 > leg_end) continue;
    in_leg.emplace_back(t0, t1);
    ckpt_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  }
  std::vector<float> during;
  for (const Sample& w : leg.writes) {
    const int64_t done =
        w.due_ns + static_cast<int64_t>(static_cast<double>(w.latency_us) * 1e3);
    for (const auto& [t0, t1] : in_leg) {
      if (w.due_ns <= t1 && done >= t0) {
        during.push_back(w.latency_us);
        break;
      }
    }
  }
  out.Metric("io.wal.checkpoints", "count", "io", ckpt_ms.size());
  out.Metric("io.wal.checkpoint_ms_p50", "ms", "io", Median(ckpt_ms));
  out.Metric("io.wal.checkpoint_ms_max", "ms", "io",
             ckpt_ms.empty() ? 0
                             : *std::max_element(ckpt_ms.begin(),
                                                 ckpt_ms.end()));
  out.Metric("io.wal.write_p99_in_checkpoint_us", "us", "io",
             Percentile(during, 0.99));

  // Tracing cost, and the served results a user sees, demoted from the
  // end-to-end set because their run-to-run spread on a shared virtual
  // machine is wider than a 10% bound (README.md): the untraced high leg's
  // server CPU per request and latencies (read-only workloads report 0 for
  // writes), its failures, and the ladder's capacity.
  const double plain_p50 = Percentile(Latencies(AllOps(plain)), 0.5);
  out.Metric("trace.overhead_frac", "ratio", "trace",
             Ratio(Percentile(Latencies(AllOps(leg)), 0.5) - plain_p50,
                   plain_p50));
  out.Metric("cpu_us_per_req", "us", "e2e", Median(untraced.cpu_us_per_req));
  out.Metric("high.read_p50_us", "us", "e2e",
             WindowedPercentile(plain.reads, plain, 0.5));
  out.Metric("high.read_p90_us", "us", "e2e",
             WindowedPercentile(plain.reads, plain, 0.9));
  out.Metric("high.read_p99_us", "us", "e2e",
             WindowedPercentile(plain.reads, plain, 0.99));
  out.Metric("high.write_p50_us", "us", "e2e",
             WindowedPercentile(plain.writes, plain, 0.5));
  out.Metric("high.write_p99_us", "us", "e2e",
             WindowedPercentile(plain.writes, plain, 0.99));
  const uint64_t attempted = plain.responses + leg.responses;
  const uint64_t failed = plain.failed() + leg.failed();
  out.Metric("fail_frac", "ratio", "e2e", Ratio(failed, attempted));
  out.Metric("max_rate_at_slo", "req/s", "e2e", ladder.max_rate);
  out.Metric("ladder.steps", "count", "e2e", ladder.steps, false);
  out.Metric("trace.spans", "count", "trace", tracer.size(), false);
  out.Metric("trace.dropped", "count", "trace", tracer.dropped(), false);

  if (!args.trace_out.empty() && !tracer.WriteJsonl(args.trace_out)) {
    std::fprintf(stderr, "cannot write %s\n", args.trace_out.c_str());
    return 1;
  }
  out.Finish(correct, attempted + ladder.attempted, failed + ladder.failed);
  return correct ? 0 : 1;
}

int Main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: e2e_bench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--trace-out FILE]\n");
    return 2;
  }
  const WorkloadSpec* spec = FindWorkload(args.workload);
  if (spec == nullptr) {
    std::fprintf(stderr, "unknown workload %s; known:", args.workload.c_str());
    for (const WorkloadSpec& w : Workloads()) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
  }
  return args.trace ? RunTraced(args, *spec) : RunEndToEnd(args, *spec);
}

}  // namespace
}  // namespace e2e
}  // namespace ccidx

int main(int argc, char** argv) { return ccidx::e2e::Main(argc, argv); }
