// Copyright 2026 The TSP Authors.
// Recovery-time mark-sweep garbage collector.
//
// Crashes can leak persistent memory (objects allocated but not yet
// linked into the data structure, blocks reserved but never
// initialized, free lists torn mid-update). Following Atlas — which
// "recently incorporated a recovery-time garbage collector to reclaim
// leaked memory" — recovery discards all allocator metadata, marks
// every object reachable from the heap root via registered trace
// functions, and rebuilds the free lists from the unreachable gaps.
//
// Recovery time is mostly this pass, and mostly DRAM misses. Mark
// keeps several of them in flight on one thread: each payload popped
// off the mark stack has its header prefetched and waits in a
// 16-entry FIFO, and the walk visits the oldest waiting one (buffered
// prefetching), so even a chain's next link is loaded behind
// independent work rather than on the critical path. Mark also caches
// the last type-registry lookup, since objects come in runs of one
// type. It records each live header as one bit per granule in a lazily
// zeroed bitmap (granule_bitmap.h); the sweep reads the live blocks
// back from it in address order, up to the highest set word, with no
// sort, and carves each gap, lowest first, into the largest class
// blocks that fit.
//
// Must run single-threaded, with no concurrent heap mutators (it is a
// recovery/quiesced-state operation). GCs of different heaps may run at
// once (atlas::RecoverHeapsParallel): all mark state is local to a call.

#ifndef TSP_PHEAP_GC_H_
#define TSP_PHEAP_GC_H_

#include <cstdint>

#include "pheap/allocator.h"
#include "pheap/region.h"
#include "pheap/type_registry.h"

namespace tsp::pheap {

/// Result of a mark-sweep pass.
struct GcStats {
  /// Objects reachable from the root.
  std::uint64_t live_objects = 0;
  /// Bytes in live blocks (headers included).
  std::uint64_t live_bytes = 0;
  /// Free blocks pushed onto rebuilt free lists.
  std::uint64_t free_blocks = 0;
  /// Bytes in those free blocks.
  std::uint64_t free_bytes = 0;
  /// Bytes returned to the bump region (tail after the last live block).
  std::uint64_t tail_reclaimed_bytes = 0;
  /// Granule-sized slivers that could not be formed into a class block.
  std::uint64_t sliver_bytes = 0;
  /// Pointers encountered that failed validation (non-null, in-region,
  /// but not a valid allocated block) — should be 0 after a correct
  /// rollback.
  std::uint64_t invalid_pointers = 0;
};

/// Runs mark-sweep over `allocator`'s region: marks from the root using
/// `registry` trace functions, then resets the allocator metadata and
/// rebuilds free lists from unreachable space.
GcStats RunMarkSweepGc(Allocator* allocator, const TypeRegistry& registry);

}  // namespace tsp::pheap

#endif  // TSP_PHEAP_GC_H_
