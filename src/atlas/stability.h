// Copyright 2026 The TSP Authors.
// Log-pruning stability analysis.
//
// A committed OCS may still be rolled back after a crash if it
// transitively depends (via lock release→acquire edges) on an OCS that
// the crash interrupted (paper §4.2 / Atlas §2.3). Its log entries must
// therefore be retained until it becomes *stable*: committed and
// transitively dependent only on stable OCSes. Stability is a global
// fixed point (committed OCSes can form dependency cycles through
// nested locks), so — like Atlas's asynchronous log pruner — a helper
// computes it out of the application's critical path and advances each
// ring's head past stabilized OCSes.

#ifndef TSP_ATLAS_STABILITY_H_
#define TSP_ATLAS_STABILITY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <vector>

#include "atlas/log_layout.h"

namespace tsp::atlas {

/// Record published by a thread when an OCS commits.
struct CommittedOcs {
  std::uint64_t ocs_id = 0;
  /// Ring tail just past this OCS's outermost kRelease entry (its
  /// commit record); the ring head can move here once the OCS is stable.
  std::uint64_t end_tail = 0;
  /// Packed (thread, ocs) dependencies recorded at acquire time.
  std::vector<std::uint64_t> deps;
  /// Heap payloads the OCS logically freed. Applied when the OCS
  /// becomes stable: freeing earlier would corrupt the heap if a
  /// cascade rolled the OCS back and resurrected the data. Only
  /// slow-path (published) OCSes carry frees here; a fast-path commit
  /// is stable at commit and frees its own blocks after the unlock.
  std::vector<void*> deferred_frees;
};

/// Tracks committed-but-unstable OCSes and advances per-ring stable/head
/// frontiers. Publish is cheap (per-thread mutex, uncontended except
/// against the pruner); RunPass does the global fixed point.
class StabilityManager {
 public:
  /// `free_fn` releases deferred-freed payloads (normally heap->Free);
  /// may be null when the runtime never defers frees.
  StabilityManager(AtlasArea area, std::uint32_t max_threads,
                   std::function<void(void*)> free_fn);

  /// Called by the owning thread right after its OCS commits.
  void Publish(std::uint16_t thread_id, CommittedOcs record);

  /// One stability pass: resolves which published OCSes are stable and
  /// advances their rings' stable_ocs/head. Returns the number of OCSes
  /// stabilized. Safe to call from any thread.
  std::size_t RunPass();

  /// Committed-but-unstable backlog (for tests/metrics).
  std::size_t PendingCount() const;

 private:
  AtlasArea area_;
  std::uint32_t max_threads_;
  std::function<void(void*)> free_fn_;

  mutable std::mutex pass_mutex_;  // serializes RunPass
  /// Per-thread queues of committed OCS records, each with its own lock.
  struct PerThread {
    std::mutex mutex;
    std::deque<CommittedOcs> queue;
  };
  std::vector<PerThread> pending_;
};

}  // namespace tsp::atlas

#endif  // TSP_ATLAS_STABILITY_H_
