#include "common/flush.h"

#include <cpuid.h>

#include <bit>

namespace tsp {
namespace {

struct CpuFeatures {
  bool clflush = false;
  bool clflushopt = false;
  bool clwb = false;
};

CpuFeatures DetectCpuFeatures() {
  CpuFeatures f;
  unsigned int eax = 0, ebx = 0, ecx = 0, edx = 0;
  if (__get_cpuid(1, &eax, &ebx, &ecx, &edx)) {
    f.clflush = (edx & (1u << 19)) != 0;
  }
  if (__get_cpuid_count(7, 0, &eax, &ebx, &ecx, &edx)) {
    f.clflushopt = (ebx & (1u << 23)) != 0;
    f.clwb = (ebx & (1u << 24)) != 0;
  }
  return f;
}

// Each live thread claims a shard of its own at its first flush or fence
// and releases it when it exits; the counts stay in the shard. Past
// kFlushShards live threads, the extra ones share the last shard: the
// increments are atomic, so that costs contention but never exactness.
constexpr int kFlushShards = 64;
FlushCounterShard g_flush_shards[kFlushShards];
std::atomic<std::uint64_t> g_claimed_shards{0};  // bit i: shard i owned

struct ShardClaim {
  int index;  // -1: no shard of its own
  ~ShardClaim() {
    if (index >= 0) {
      g_claimed_shards.fetch_and(~(std::uint64_t{1} << index),
                                 std::memory_order_relaxed);
    }
  }
};

const CpuFeatures& Features() {
  static const CpuFeatures features = DetectCpuFeatures();
  return features;
}

}  // namespace

bool CpuSupports(FlushInstruction insn) {
  switch (insn) {
    case FlushInstruction::kNone:
      return true;
    case FlushInstruction::kClflush:
      return Features().clflush;
    case FlushInstruction::kClflushopt:
      return Features().clflushopt;
    case FlushInstruction::kClwb:
      return Features().clwb;
  }
  return false;
}

FlushInstruction BestFlushInstruction() {
  if (Features().clwb) return FlushInstruction::kClwb;
  if (Features().clflushopt) return FlushInstruction::kClflushopt;
  return FlushInstruction::kClflush;
}

const char* FlushInstructionName(FlushInstruction insn) {
  switch (insn) {
    case FlushInstruction::kNone:
      return "none";
    case FlushInstruction::kClflush:
      return "clflush";
    case FlushInstruction::kClflushopt:
      return "clflushopt";
    case FlushInstruction::kClwb:
      return "clwb";
  }
  return "unknown";
}

namespace internal {

constinit thread_local FlushCounterShard* t_flush_shard = nullptr;

FlushCounterShard* BindFlushShard() {
  std::uint64_t claimed = g_claimed_shards.load(std::memory_order_relaxed);
  int index = -1;
  while (claimed != ~std::uint64_t{0}) {
    const int bit = std::countr_one(claimed);
    if (g_claimed_shards.compare_exchange_weak(
            claimed, claimed | (std::uint64_t{1} << bit),
            std::memory_order_relaxed)) {
      index = bit;
      break;
    }
  }
  // Constructed once per thread; its destructor releases the claim at
  // thread exit. t_flush_shard keeps pointing at the shard, so a flush
  // from a later thread-exit destructor still counts exactly.
  thread_local ShardClaim claim{index};
  t_flush_shard = &g_flush_shards[index >= 0 ? index : kFlushShards - 1];
  return t_flush_shard;
}

}  // namespace internal

std::uint64_t FlushStats::Total::load() const {
  std::uint64_t total = 0;
  for (const FlushCounterShard& shard : g_flush_shards) {
    total += (shard.*field_).load(std::memory_order_relaxed);
  }
  return total;
}

void FlushStats::Reset() {
  for (FlushCounterShard& shard : g_flush_shards) {
    shard.lines_flushed.store(0, std::memory_order_relaxed);
    shard.fences.store(0, std::memory_order_relaxed);
  }
}

FlushStats& GlobalFlushStats() {
  static FlushStats stats;
  return stats;
}

void FlushRange(const void* p, std::size_t n, FlushInstruction insn) {
  if (insn == FlushInstruction::kNone || n == 0) return;
  auto addr = reinterpret_cast<std::uintptr_t>(p);
  const std::uintptr_t first = addr & ~(kCacheLineSize - 1);
  const std::uintptr_t last = (addr + n - 1) & ~(kCacheLineSize - 1);
  for (std::uintptr_t line = first; line <= last; line += kCacheLineSize) {
    FlushLine(reinterpret_cast<const void*>(line), insn);
  }
  // clflush is strongly ordered with respect to other clflushes and
  // stores to the same line, but we still fence so that callers get the
  // same "durable when this returns" contract for every instruction.
  StoreFence();
}

void FlushRange(const void* p, std::size_t n) {
  FlushRange(p, n, BestFlushInstruction());
}

}  // namespace tsp
