// EpochGate semantics (DESIGN.md §11): reader batches run concurrently,
// writers are exclusive and FIFO, arriving writers block new readers
// (write preference), queued readers run between writers (phase
// fairness), timed entry cancels its ticket cleanly, and neither side
// starves under sustained load from the other. Run under TSan in CI.

#include <atomic>
#include <chrono>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "ccidx/query/epoch_gate.h"

namespace ccidx {
namespace {

using namespace std::chrono_literals;

// Long enough that a blocked thread is observably blocked on any CI
// machine, short enough to keep the suite fast.
constexpr auto kSettle = 50ms;

TEST(EpochGate, ReadersRunConcurrently) {
  EpochGate gate;
  constexpr int kReaders = 4;
  std::atomic<int> inside{0};
  std::atomic<int> peak{0};
  std::atomic<bool> release{false};
  std::vector<std::thread> readers;
  for (int i = 0; i < kReaders; ++i) {
    readers.emplace_back([&] {
      gate.EnterRead();
      int now = inside.fetch_add(1) + 1;
      int prev = peak.load();
      while (now > prev && !peak.compare_exchange_weak(prev, now)) {
      }
      while (!release.load()) std::this_thread::yield();
      inside.fetch_sub(1);
      gate.ExitRead();
    });
  }
  // All readers must get in simultaneously (no writer anywhere). Wait on
  // `peak`, not `inside`: a reader raises `peak` just after `inside`, so
  // `inside` can reach kReaders before the last reader has recorded it.
  auto deadline = std::chrono::steady_clock::now() + 5s;
  while (peak.load() < kReaders &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::yield();
  }
  EXPECT_EQ(peak.load(), kReaders);
  release.store(true);
  for (auto& t : readers) t.join();
}

TEST(EpochGate, WriterExcludesReadersAndWriters) {
  EpochGate gate;
  gate.EnterWrite();
  std::atomic<bool> reader_in{false};
  std::atomic<bool> writer_in{false};
  std::thread reader([&] {
    gate.EnterRead();
    reader_in.store(true);
    gate.ExitRead();
  });
  std::thread writer([&] {
    gate.EnterWrite();
    writer_in.store(true);
    gate.ExitWrite();
  });
  std::this_thread::sleep_for(kSettle);
  EXPECT_FALSE(reader_in.load());
  EXPECT_FALSE(writer_in.load());
  gate.ExitWrite();
  reader.join();
  writer.join();
  EXPECT_TRUE(reader_in.load());
  EXPECT_TRUE(writer_in.load());
}

TEST(EpochGate, WritePreferenceBlocksNewReaders) {
  EpochGate gate;
  gate.EnterRead();  // r1 holds the gate shared
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    gate.EnterWrite();  // queues behind r1
    writer_in.store(true);
    std::this_thread::sleep_for(kSettle);
    gate.ExitWrite();
  });
  // Wait until the writer's ticket is outstanding.
  std::this_thread::sleep_for(kSettle);
  ASSERT_FALSE(writer_in.load());
  // A new reader must NOT jump the queued writer (write preference).
  std::atomic<bool> r2_in{false};
  std::thread r2([&] {
    gate.EnterRead();
    r2_in.store(true);
    gate.ExitRead();
  });
  std::this_thread::sleep_for(kSettle);
  EXPECT_FALSE(r2_in.load());
  gate.ExitRead();  // r1 leaves; the writer runs, then r2
  writer.join();
  r2.join();
  EXPECT_TRUE(writer_in.load());
  EXPECT_TRUE(r2_in.load());
}

TEST(EpochGate, WritersAcquireInArrivalOrder) {
  EpochGate gate;
  gate.EnterWrite();  // hold so the others queue up
  std::vector<int> order;
  std::mutex order_mu;
  std::vector<std::thread> writers;
  for (int i = 0; i < 4; ++i) {
    writers.emplace_back([&, i] {
      gate.EnterWrite();
      {
        std::lock_guard<std::mutex> lk(order_mu);
        order.push_back(i);
      }
      gate.ExitWrite();
    });
    // Serialize arrival: wait until this writer's ticket is taken before
    // starting the next (tickets are issued inside EnterWrite).
    std::this_thread::sleep_for(kSettle / 2);
  }
  gate.ExitWrite();
  for (auto& t : writers) t.join();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
}

TEST(EpochGate, PhaseFairReadersRunBetweenWriters) {
  EpochGate gate;
  gate.EnterWrite();  // w1 active
  std::atomic<bool> reader_in{false};
  std::atomic<bool> w2_in{false};
  std::atomic<bool> reader_before_w2{false};
  std::thread reader([&] {
    gate.EnterRead();  // queued behind w1
    reader_in.store(true);
    reader_before_w2.store(!w2_in.load());
    std::this_thread::sleep_for(kSettle);
    gate.ExitRead();
  });
  std::this_thread::sleep_for(kSettle);
  std::thread w2([&] {
    gate.EnterWrite();  // queued behind w1, after the reader arrived
    w2_in.store(true);
    gate.ExitWrite();
  });
  std::this_thread::sleep_for(kSettle);
  ASSERT_FALSE(reader_in.load());
  ASSERT_FALSE(w2_in.load());
  // On w1's exit the queued reader batch is admitted BEFORE w2 even
  // though w2's ticket is outstanding — phase fairness.
  gate.ExitWrite();
  reader.join();
  w2.join();
  EXPECT_TRUE(reader_in.load());
  EXPECT_TRUE(reader_before_w2.load());
}

TEST(EpochGate, TryEnterWrite) {
  EpochGate gate;
  ASSERT_TRUE(gate.TryEnterWrite());
  EXPECT_FALSE(gate.TryEnterWrite());
  gate.ExitWrite();
  gate.EnterRead();
  EXPECT_FALSE(gate.TryEnterWrite());
  gate.ExitRead();
  ASSERT_TRUE(gate.TryEnterWrite());
  gate.ExitWrite();
}

TEST(EpochGate, TryEnterReadBlockedByQueuedWriter) {
  EpochGate gate;
  ASSERT_TRUE(gate.TryEnterRead());
  std::atomic<bool> writer_in{false};
  std::thread writer([&] {
    gate.EnterWrite();
    writer_in.store(true);
    gate.ExitWrite();
  });
  std::this_thread::sleep_for(kSettle);
  ASSERT_FALSE(writer_in.load());
  // The queued writer blocks new readers, including the try form.
  EXPECT_FALSE(gate.TryEnterRead());
  gate.ExitRead();
  writer.join();
  EXPECT_TRUE(gate.TryEnterRead());
  gate.ExitRead();
}

TEST(EpochGate, EnterWriteForTimesOutAndCancelsTicket) {
  EpochGate gate;
  gate.EnterRead();  // block the writer
  EXPECT_FALSE(gate.EnterWriteFor(10ms));
  // The cancelled ticket must not wedge the gate: readers can still
  // enter (no ghost writer), and a later writer acquires normally.
  EXPECT_TRUE(gate.TryEnterRead());
  gate.ExitRead();
  gate.ExitRead();
  EXPECT_TRUE(gate.EnterWriteFor(1s));
  gate.ExitWrite();
  gate.EnterRead();
  gate.ExitRead();
}

TEST(EpochGate, CountersAndHistograms) {
  EpochGate gate;
  gate.EnterRead();
  gate.ExitRead();
  EXPECT_EQ(gate.uncontended_reads(), 1u);
  EXPECT_EQ(gate.contended_reads(), 0u);
  gate.EnterWrite();
  EXPECT_EQ(gate.uncontended_writes(), 1u);
  std::atomic<bool> in{false};
  std::thread reader([&] {
    gate.EnterRead();
    in.store(true);
    gate.ExitRead();
  });
  std::this_thread::sleep_for(kSettle);
  ASSERT_FALSE(in.load());
  gate.ExitWrite();
  reader.join();
  EXPECT_EQ(gate.contended_reads(), 1u);
  WaitHistogram rh = gate.reader_wait_histogram();
  EXPECT_EQ(rh.count, 2u);
  // The contended read waited ~kSettle; its wait must dominate the
  // histogram total and register at a sane percentile.
  EXPECT_GE(rh.max_ns, 1'000'000u);  // >= 1ms recorded
  EXPECT_GT(rh.PercentileNs(99.0), 0u);
  WaitHistogram wh = gate.writer_wait_histogram();
  EXPECT_EQ(wh.count, 1u);
}

TEST(EpochGate, NeitherSideStarvesUnderLoad) {
  EpochGate gate;
  std::atomic<bool> stop{false};
  std::atomic<uint64_t> reads{0};
  std::atomic<uint64_t> writes{0};
  std::vector<std::thread> threads;
  for (int i = 0; i < 2; ++i) {
    threads.emplace_back([&] {  // saturating reader
      while (!stop.load(std::memory_order_relaxed)) {
        gate.EnterRead();
        reads.fetch_add(1, std::memory_order_relaxed);
        gate.ExitRead();
      }
    });
    threads.emplace_back([&] {  // saturating writer
      while (!stop.load(std::memory_order_relaxed)) {
        gate.EnterWrite();
        writes.fetch_add(1, std::memory_order_relaxed);
        gate.ExitWrite();
      }
    });
  }
  std::this_thread::sleep_for(300ms);
  stop.store(true);
  for (auto& t : threads) t.join();
  // Both sides must make real progress against saturation from the
  // other: write preference feeds writers, phase fairness feeds readers.
  EXPECT_GT(reads.load(), 10u);
  EXPECT_GT(writes.load(), 10u);
}

}  // namespace
}  // namespace ccidx
