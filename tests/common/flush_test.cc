#include "common/flush.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <thread>
#include <vector>

namespace tsp {
namespace {

TEST(FlushTest, ClflushAlwaysSupportedOnX86_64) {
  EXPECT_TRUE(CpuSupports(FlushInstruction::kClflush));
  EXPECT_TRUE(CpuSupports(FlushInstruction::kNone));
}

TEST(FlushTest, BestInstructionIsSupported) {
  EXPECT_TRUE(CpuSupports(BestFlushInstruction()));
  EXPECT_NE(BestFlushInstruction(), FlushInstruction::kNone);
}

TEST(FlushTest, NamesAreStable) {
  EXPECT_STREQ(FlushInstructionName(FlushInstruction::kNone), "none");
  EXPECT_STREQ(FlushInstructionName(FlushInstruction::kClflush), "clflush");
  EXPECT_STREQ(FlushInstructionName(FlushInstruction::kClflushopt),
               "clflushopt");
  EXPECT_STREQ(FlushInstructionName(FlushInstruction::kClwb), "clwb");
}

TEST(FlushTest, FlushRangeDataIntact) {
  // Flushing must never alter data (clflush evicts, clwb writes back).
  alignas(64) char buf[512];
  for (int i = 0; i < 512; ++i) buf[i] = static_cast<char>(i * 7);
  for (FlushInstruction insn :
       {FlushInstruction::kClflush, FlushInstruction::kClflushopt,
        FlushInstruction::kClwb}) {
    if (!CpuSupports(insn)) continue;
    FlushRange(buf, sizeof(buf), insn);
    for (int i = 0; i < 512; ++i) {
      ASSERT_EQ(buf[i], static_cast<char>(i * 7));
    }
  }
}

TEST(FlushTest, StatsCountLinesAndFences) {
  GlobalFlushStats().Reset();
  alignas(64) char buf[256];
  std::memset(buf, 0, sizeof(buf));
  FlushRange(buf, 256, FlushInstruction::kClflush);
  // 256 bytes aligned to a line boundary = 4 lines, one trailing fence.
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 4u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 1u);
}

TEST(FlushTest, UnalignedRangeCoversStraddledLines) {
  GlobalFlushStats().Reset();
  alignas(64) char buf[256];
  // 2 bytes straddling a line boundary → 2 lines.
  FlushRange(buf + 63, 2, FlushInstruction::kClflush);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 2u);
}

TEST(FlushTest, NoneModeFlushesNothing) {
  GlobalFlushStats().Reset();
  alignas(64) char buf[256];
  FlushRange(buf, sizeof(buf), FlushInstruction::kNone);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 0u);
}

TEST(FlushTest, ZeroLengthRangeIsNoop) {
  GlobalFlushStats().Reset();
  alignas(64) char buf[64];
  FlushRange(buf, 0, FlushInstruction::kClflush);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u);
}

// Each call flushes two lines and issues one fence.
void FlushTwoLines(int calls) {
  alignas(64) char buf[128] = {};
  for (int i = 0; i < calls; ++i) {
    FlushRange(buf, sizeof(buf), FlushInstruction::kClflush);
  }
}

// Starts `threads` threads that all flush at once, then joins them.
void FlushConcurrently(int threads, int calls) {
  std::atomic<int> ready{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    workers.emplace_back([&ready, threads, calls] {
      ready.fetch_add(1);
      while (ready.load() < threads) std::this_thread::yield();
      FlushTwoLines(calls);
    });
  }
  for (std::thread& worker : workers) worker.join();
}

TEST(FlushStatsTest, ConcurrentTotalsAreExact) {
  GlobalFlushStats().Reset();
  constexpr int kThreads = 4;
  constexpr int kCalls = 20000;
  FlushConcurrently(kThreads, kCalls);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(),
            std::uint64_t{2} * kThreads * kCalls);
  EXPECT_EQ(GlobalFlushStats().fences.load(),
            std::uint64_t{kThreads} * kCalls);
}

TEST(FlushStatsTest, ExitedThreadsKeepTheirCounts) {
  GlobalFlushStats().Reset();
  std::thread(FlushTwoLines, 100).join();
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 200u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 100u);
  // The next threads may claim the exited thread's shard; they add to
  // its counts rather than replacing them.
  FlushConcurrently(4, 50);
  FlushTwoLines(1);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 200u + 400u + 2u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 100u + 200u + 1u);
}

TEST(FlushStatsTest, ResetAfterThreadsExitReadsZero) {
  FlushConcurrently(4, 100);
  ASSERT_GT(GlobalFlushStats().lines_flushed.load(), 0u);
  GlobalFlushStats().Reset();
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 0u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 0u);
}

TEST(FlushStatsTest, MoreLiveThreadsThanShardsStayExact) {
  // 80 live threads outnumber the 64 shards, so some share one.
  GlobalFlushStats().Reset();
  FlushConcurrently(80, 200);
  EXPECT_EQ(GlobalFlushStats().lines_flushed.load(), 80u * 200u * 2u);
  EXPECT_EQ(GlobalFlushStats().fences.load(), 80u * 200u);
}

}  // namespace
}  // namespace tsp
