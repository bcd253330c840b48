// Copyright 2026 The TSP Authors.
// CPU cache-line flush primitives and instrumentation.
//
// These are the operations whose *failure-free* cost Timely Sufficient
// Persistence avoids: a non-TSP design synchronously flushes undo-log
// entries (and fences) on the store path; a TSP design relies on a
// failure-time rescue instead (see core/persistence_policy.h).

#ifndef TSP_COMMON_FLUSH_H_
#define TSP_COMMON_FLUSH_H_

#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/macros.h"

namespace tsp {

/// Which x86 instruction a flush uses. kClflush is universally available
/// on x86-64; kClflushopt (weakly ordered, needs sfence) and kClwb
/// (writes back without evicting) need CPU support; kNone turns flushing
/// into a no-op while preserving the surrounding code shape.
enum class FlushInstruction : std::uint8_t {
  kNone = 0,
  kClflush,
  kClflushopt,
  kClwb,
};

/// Returns true if the running CPU supports `insn`.
bool CpuSupports(FlushInstruction insn);

/// Returns the best supported write-back instruction: clwb if available,
/// else clflushopt, else clflush.
FlushInstruction BestFlushInstruction();

/// Returns a stable lowercase name ("clflush", "clwb", ...).
const char* FlushInstructionName(FlushInstruction insn);

/// One thread's flush and fence counts. Each shard has a cache line to
/// itself, so the increment on every flush and fence stays core-local
/// instead of bouncing one shared line between all flushing threads.
struct alignas(kCacheLineSize) FlushCounterShard {
  std::atomic<std::uint64_t> lines_flushed{0};
  std::atomic<std::uint64_t> fences{0};
};

/// Global counters for persistence-related hardware operations. Used by
/// tests to prove the zero-overhead claims ("the TSP variant issued zero
/// flushes") and by benchmarks to report flush rates. Writers increment
/// their own thread's shard; readers sum every shard, so the totals are
/// exact and keep the counts of threads that have exited.
class FlushStats {
 public:
  /// One counter summed over every shard.
  class Total {
   public:
    explicit constexpr Total(
        std::atomic<std::uint64_t> FlushCounterShard::*field)
        : field_(field) {}
    std::uint64_t load() const;

   private:
    std::atomic<std::uint64_t> FlushCounterShard::*field_;
  };

  Total lines_flushed{&FlushCounterShard::lines_flushed};
  Total fences{&FlushCounterShard::fences};

  /// Zeroes every thread's shard.
  void Reset();
};

/// Process-wide instrumentation counters.
FlushStats& GlobalFlushStats();

namespace internal {

TSP_ALWAYS_INLINE void RawClflush(const void* p) {
  asm volatile("clflush %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}

TSP_ALWAYS_INLINE void RawClflushopt(const void* p) {
  // 66 0F AE /7 — encoded as a prefixed clflush so the code assembles on
  // toolchains without -mclflushopt.
  asm volatile(".byte 0x66; clflush %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}

TSP_ALWAYS_INLINE void RawClwb(const void* p) {
  // 66 0F AE /6 — encoded as a prefixed xsaveopt (same idiom as PMDK).
  asm volatile(".byte 0x66; xsaveopt %0"
               : "+m"(*static_cast<volatile char*>(const_cast<void*>(p))));
}

/// The shard this thread increments; null until its first flush or
/// fence. constinit keeps the inlined access a plain TLS load, with no
/// dynamic-initialization guard at each call site.
extern constinit thread_local FlushCounterShard* t_flush_shard;

/// Binds the calling thread to a shard. Cold: once per thread.
FlushCounterShard* BindFlushShard();

TSP_ALWAYS_INLINE FlushCounterShard& ThisThreadFlushShard() {
  FlushCounterShard* shard = t_flush_shard;
  if (TSP_PREDICT_FALSE(shard == nullptr)) shard = BindFlushShard();
  return *shard;
}

}  // namespace internal

/// Store fence: ensures previously issued flushes/stores are globally
/// ordered before later stores. Counted in GlobalFlushStats.
TSP_ALWAYS_INLINE void StoreFence() {
  asm volatile("sfence" ::: "memory");
  internal::ThisThreadFlushShard().fences.fetch_add(
      1, std::memory_order_relaxed);
}

/// Flushes the cache line containing `p` with `insn`. kNone is a no-op.
TSP_ALWAYS_INLINE void FlushLine(const void* p, FlushInstruction insn) {
  switch (insn) {
    case FlushInstruction::kNone:
      return;
    case FlushInstruction::kClflush:
      internal::RawClflush(p);
      break;
    case FlushInstruction::kClflushopt:
      internal::RawClflushopt(p);
      break;
    case FlushInstruction::kClwb:
      internal::RawClwb(p);
      break;
  }
  internal::ThisThreadFlushShard().lines_flushed.fetch_add(
      1, std::memory_order_relaxed);
}

/// Flushes every cache line overlapping [p, p + n) and, for the weakly
/// ordered instructions, issues a trailing StoreFence so the flushes are
/// complete when this returns. This is the "synchronous flush" a non-TSP
/// Atlas build performs per undo-log entry.
void FlushRange(const void* p, std::size_t n, FlushInstruction insn);

/// FlushRange with the process-default instruction (BestFlushInstruction).
void FlushRange(const void* p, std::size_t n);

}  // namespace tsp

#endif  // TSP_COMMON_FLUSH_H_
