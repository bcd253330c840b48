#include "pheap/gc.h"

#include <algorithm>
#include <chrono>
#include <utility>
#include <vector>

#include "common/logging.h"
#include "obs/metrics.h"
#include "pheap/granule_bitmap.h"

namespace tsp::pheap {
namespace {

constexpr std::size_t kPrefetchDistance = 16;  // header loads in flight

// Validates that `payload` points at the payload of a plausible
// allocated block and returns its header offset, or 0.
std::uint64_t ValidateBlock(const MappedRegion* region, const void* payload) {
  const RegionHeader* rh = region->header();
  if (payload == nullptr || !region->Contains(payload)) return 0;
  const std::uint64_t payload_offset = region->ToOffset(payload);
  if (payload_offset < rh->arena_offset + sizeof(BlockHeader)) return 0;
  const std::uint64_t header_offset = payload_offset - sizeof(BlockHeader);
  if (header_offset % kGranule != 0) return 0;
  const auto* block = static_cast<const BlockHeader*>(
      region->FromOffset(header_offset));
  if (block->magic != BlockHeader::kAllocatedMagic) return 0;
  // Allocated headers pack an advisory magazine owner tag into the high
  // bits; every size computation must go through size().
  const std::uint64_t size = block->size();
  if (Allocator::SizeClassOf(size) < 0) return 0;  // exact class sizes only
  const std::uint64_t arena_end = rh->arena_offset + rh->arena_size;
  if (header_offset + size > arena_end) return 0;
  return header_offset;
}

[[maybe_unused]] std::uint64_t MicrosSince(
    std::chrono::steady_clock::time_point start) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

// Sets a bit in `marked` for every block reachable from the root.
void Mark(const MappedRegion* region, const TypeRegistry& registry,
          GranuleBitmap* marked, GcStats* stats) {
  std::vector<const void*> pending;
  const std::uint64_t root =
      region->header()->root_offset.load(std::memory_order_relaxed);
  if (root != 0) pending.push_back(region->FromOffset(root));
  const PointerVisitor visit = [&pending](const void* p) {
    if (p != nullptr) pending.push_back(p);
  };
  // Objects come in runs of one type (chains, bucket lists): remember
  // the last lookup instead of hashing per object.
  std::uint32_t cached_type = 0;
  const TypeInfo* cached_info = nullptr;

  // Buffered prefetching (Cher, Hosking & Vijaykumar, ASPLOS 2004): a
  // popped payload's header is prefetched and parked in a FIFO, and the
  // walk visits the oldest parked one, so independent misses overlap
  // and a chain's next link waits its turn behind them.
  const void* fifo[kPrefetchDistance];
  std::size_t fifo_head = 0, fifo_size = 0;
  for (;;) {
    while (fifo_size < kPrefetchDistance && !pending.empty()) {
      const void* popped = pending.back();
      pending.pop_back();
      // A bogus or foreign address prefetches harmlessly.
      __builtin_prefetch(reinterpret_cast<const void*>(
          reinterpret_cast<std::uintptr_t>(popped) - sizeof(BlockHeader)));
      fifo[(fifo_head + fifo_size++) % kPrefetchDistance] = popped;
    }
    if (fifo_size == 0) break;
    const void* payload = fifo[fifo_head];
    fifo_head = (fifo_head + 1) % kPrefetchDistance;
    --fifo_size;
    const std::uint64_t header_offset = ValidateBlock(region, payload);
    if (header_offset == 0) {
      // Pointers may legitimately reference non-heap memory (e.g. static
      // data); count only in-region failures as suspicious.
      if (payload != nullptr && region->Contains(payload)) {
        ++stats->invalid_pointers;
      }
      continue;
    }
    if (!marked->Insert(header_offset)) continue;

    const auto* block =
        static_cast<const BlockHeader*>(region->FromOffset(header_offset));
    ++stats->live_objects;
    stats->live_bytes += block->size();

    if (block->type_id != 0) {
      if (block->type_id != cached_type) {
        cached_type = block->type_id;
        cached_info = registry.Find(cached_type);
      }
      if (cached_info != nullptr && cached_info->trace) {
        cached_info->trace(block + 1, visit);
      } else if (cached_info == nullptr) {
        TSP_LOG(WARNING) << "GC: unregistered type id " << block->type_id
                         << "; treating object as a leaf";
      }
    }
  }
}

}  // namespace

GcStats RunMarkSweepGc(Allocator* allocator, const TypeRegistry& registry) {
  MappedRegion* region = allocator->region();
  RegionHeader* rh = region->header();
  GcStats stats;
  TSP_COUNTER_INC("gc.runs");

  [[maybe_unused]] const auto mark_start = std::chrono::steady_clock::now();
  const std::uint64_t arena_end = rh->arena_offset + rh->arena_size;
  GranuleBitmap marked(rh->arena_offset, arena_end);  // live headers
  Mark(region, registry, &marked, &stats);

  // --- sweep: rebuild allocator metadata from the complement ---
  [[maybe_unused]] const auto sweep_start = std::chrono::steady_clock::now();
  TSP_HISTOGRAM_OBSERVE("gc.mark_us", MicrosSince(mark_start));
  // Live headers come in address order; the gaps between them are free.
  std::vector<std::pair<std::uint64_t, std::uint64_t>> gaps;  // [start, end)
  std::uint64_t cursor = rh->arena_offset;
  marked.ForEach([&](std::uint64_t offset) {
    if (offset > cursor) gaps.push_back({cursor, offset});
    const auto* block =
        static_cast<const BlockHeader*>(region->FromOffset(offset));
    cursor = std::max(cursor, offset + block->size());
  });
  // The new bump pointer is the end of the last live block: the space
  // after it returns to the bump region, with no trailing gap to carve.
  const std::uint64_t old_bump = std::min<std::uint64_t>(
      rh->bump_offset.load(std::memory_order_relaxed), arena_end);
  stats.tail_reclaimed_bytes = old_bump > cursor ? old_bump - cursor : 0;

  // Discards every advisory structure at once: free lists, bump pointer,
  // remote-free inboxes, and (via the epoch bump) all per-thread
  // magazines. Recovery itself needs nothing beyond this — magazines are
  // DRAM-only and were never authoritative, so a crash with parked
  // blocks just makes those bytes unreachable, and the sweep below
  // re-carves them.
  allocator->ResetMetadata(cursor);

  for (const auto& [start, end] : gaps) {
    std::uint64_t at = start;
    while (end - at >= 2 * kGranule) {
      // Largest class block that fits the remaining gap.
      std::size_t best = 0;
      for (int c = Allocator::kNumSizeClasses - 1; c >= 0; --c) {
        const std::size_t block_size = Allocator::ClassBlockSize(c);
        if (block_size <= end - at) {
          best = block_size;
          break;
        }
      }
      if (best == 0) break;
      allocator->PushFreeBlock(at, best);
      ++stats.free_blocks;
      stats.free_bytes += best;
      at += best;
    }
    stats.sliver_bytes += end - at;
  }
  TSP_HISTOGRAM_OBSERVE("gc.sweep_us", MicrosSince(sweep_start));
  return stats;
}

}  // namespace tsp::pheap
