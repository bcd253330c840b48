// Where the flush and fence counters land in memory. Every logged store
// reads TSPSan's and TSPRace's arming flags, and every flush and fence
// writes the calling thread's counter shard; a flag on a shard's cache
// line would make each flush invalidate the line those reads hit.

#include <gtest/gtest.h>

#include <cstdint>
#include <thread>

#include "analysis/race_hooks.h"
#include "common/flush.h"
#include "pheap/sanitizer.h"

namespace tsp {
namespace {

std::uintptr_t LineOf(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) / kCacheLineSize;
}

// The shard the calling thread increments (bound by its first fence).
const FlushCounterShard* CountedShard() {
  StoreFence();
  return internal::t_flush_shard;
}

TEST(FlushPlacementTest, LiveThreadsIncrementPrivateLinesAwayFromFlags) {
  static_assert(sizeof(FlushCounterShard) == kCacheLineSize);
  static_assert(alignof(FlushCounterShard) == kCacheLineSize);

  const FlushCounterShard* mine = CountedShard();
  const FlushCounterShard* other = nullptr;
  std::thread([&other] { other = CountedShard(); }).join();
  ASSERT_NE(mine, nullptr);
  ASSERT_NE(other, nullptr);
  EXPECT_NE(LineOf(mine), LineOf(other));

  for (const FlushCounterShard* shard : {mine, other}) {
    EXPECT_NE(LineOf(shard), LineOf(&pheap::tspsan_internal::g_active));
    EXPECT_NE(LineOf(shard), LineOf(&analysis::analysis_internal::g_active));
  }
}

}  // namespace
}  // namespace tsp
