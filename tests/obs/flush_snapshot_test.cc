// The process-wide flush and fence totals in every registry snapshot:
// benches and tools read the persistence cost as "flush.lines_flushed"
// and "flush.fences", next to every other layer's counters.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/flush.h"
#include "obs/metrics.h"

namespace tsp::obs {
namespace {

constexpr int kThreads = 4;
constexpr int kCalls = 5000;

// Every thread flushes a two-line buffer `kCalls` times, all at once.
void FlushConcurrently() {
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&ready] {
      alignas(64) char buf[128] = {};
      ready.fetch_add(1);
      while (ready.load() < kThreads) std::this_thread::yield();
      for (int i = 0; i < kCalls; ++i) {
        FlushRange(buf, sizeof(buf), FlushInstruction::kClflush);
      }
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST(FlushSnapshotTest, SnapshotMovesByTheFlushStatsDeltas) {
  const MetricsSnapshot before = DefaultRegistry().Snapshot();
  const std::uint64_t lines_before = GlobalFlushStats().lines_flushed.load();
  const std::uint64_t fences_before = GlobalFlushStats().fences.load();
  FlushConcurrently();
  const std::uint64_t lines_delta =
      GlobalFlushStats().lines_flushed.load() - lines_before;
  const std::uint64_t fences_delta =
      GlobalFlushStats().fences.load() - fences_before;
  const MetricsSnapshot after = DefaultRegistry().Snapshot();

  EXPECT_EQ(lines_delta, std::uint64_t{2} * kThreads * kCalls);
  EXPECT_EQ(fences_delta, std::uint64_t{kThreads} * kCalls);
  EXPECT_EQ(after.counter("flush.lines_flushed") -
                before.counter("flush.lines_flushed"),
            lines_delta);
  EXPECT_EQ(after.counter("flush.fences") - before.counter("flush.fences"),
            fences_delta);
}

TEST(FlushSnapshotTest, ResetReadsZero) {
  FlushConcurrently();
  ASSERT_GT(DefaultRegistry().Snapshot().counter("flush.lines_flushed"), 0u);
  GlobalFlushStats().Reset();
  const MetricsSnapshot snapshot = DefaultRegistry().Snapshot();
  ASSERT_EQ(snapshot.counters.count("flush.lines_flushed"), 1u);
  ASSERT_EQ(snapshot.counters.count("flush.fences"), 1u);
  EXPECT_EQ(snapshot.counter("flush.lines_flushed"), 0u);
  EXPECT_EQ(snapshot.counter("flush.fences"), 0u);
}

}  // namespace
}  // namespace tsp::obs
