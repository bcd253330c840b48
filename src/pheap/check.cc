#include "pheap/check.h"

#include <algorithm>

// Header-only use: pheap cannot link tsp_atlas (atlas depends on
// pheap), so the undo-log checks below validate the area's magic and
// geometry themselves instead of calling AtlasArea::Validate.
#include "atlas/log_layout.h"
#include "common/process_id.h"
#include "pheap/allocator.h"
#include "pheap/granule_bitmap.h"
#include "pheap/layout.h"

namespace tsp::pheap {
namespace {

constexpr std::size_t kMaxProblems = 16;

void AddProblem(CheckReport* report, std::string problem) {
  ++report->problems_total;
  if (report->problems.size() < kMaxProblems) {
    report->problems.push_back(std::move(problem));
  }
}

struct Extent {
  std::uint64_t offset;
  std::uint64_t size;
};

}  // namespace

std::string CheckReport::ToString() const {
  std::string out = ok ? "heap check OK" : "heap check FAILED";
  out += ": " + std::to_string(reachable_objects) + " live objects (" +
         std::to_string(reachable_bytes) + " B), " +
         std::to_string(free_blocks) + " free blocks (" +
         std::to_string(free_bytes) + " B), " +
         std::to_string(unaccounted_bytes) + " B unaccounted";
  if (log_rings_scanned > 0) {
    out += ", " + std::to_string(log_entries_scanned) +
           " log entries in " + std::to_string(log_rings_scanned) + " rings";
  }
  if (slots_claimed > 0) {
    out += ", " + std::to_string(slots_claimed) + " slots claimed";
  }
  if (robust_locks_held > 0 || wedged_locks > 0) {
    out += ", " + std::to_string(robust_locks_held) +
           " robust locks held (" + std::to_string(wedged_locks) +
           " wedged)";
  }
  for (const std::string& problem : problems) {
    out += "\n  - " + problem;
  }
  if (problems_total > problems.size()) {
    out += "\n  (+" + std::to_string(problems_total - problems.size()) +
           " more problems not shown)";
  }
  return out;
}

void CheckReport::AppendTo(report::FindingSink* sink) const {
  for (const std::string& problem : problems) {
    std::string rule = "heap";
    std::string message = problem;
    // Problems may be tagged "rule-slug: message".
    const std::size_t colon = problem.find(": ");
    if (colon != std::string::npos && colon > 0 &&
        problem.find(' ') > colon) {
      rule = problem.substr(0, colon);
      message = problem.substr(colon + 2);
    }
    sink->AddError("heap-check", rule, "", message);
  }
}

CheckReport CheckHeap(const PersistentHeap& heap,
                      const TypeRegistry& registry) {
  CheckReport report;
  const MappedRegion* region = heap.region();
  const RegionHeader* header = region->header();

  // --- header sanity ---
  if (header->magic != kRegionMagic) {
    AddProblem(&report, "bad region magic");
    return report;
  }
  const std::uint64_t arena_start = header->arena_offset;
  const std::uint64_t arena_end = arena_start + header->arena_size;
  const std::uint64_t bump =
      header->bump_offset.load(std::memory_order_relaxed);
  if (arena_end > header->region_size ||
      header->runtime_area_offset + header->runtime_area_size !=
          arena_start) {
    AddProblem(&report, "region layout offsets are inconsistent");
  }
  if (bump < arena_start || bump > arena_end) {
    AddProblem(&report, "bump pointer outside the arena");
    return report;
  }

  std::vector<Extent> extents;

  // --- free lists ---
  const std::uint64_t max_blocks = (bump - arena_start) / (2 * kGranule) + 1;
  for (std::size_t size_class = 0; size_class < Allocator::kNumSizeClasses;
       ++size_class) {
    const std::size_t expected_size =
        Allocator::ClassBlockSize(static_cast<int>(size_class));
    std::uint64_t offset =
        OffsetOf(header->free_list_head(size_class).load(
            std::memory_order_relaxed));
    std::uint64_t walked = 0;
    while (offset != 0) {
      if (offset < arena_start || offset + expected_size > bump ||
          offset % kGranule != 0) {
        AddProblem(&report, "free block outside arena in class " +
                                std::to_string(size_class));
        break;
      }
      const auto* block =
          static_cast<const BlockHeader*>(region->FromOffset(offset));
      if (block->magic != BlockHeader::kFreeMagic) {
        AddProblem(&report, "free-list block without free magic in class " +
                                std::to_string(size_class));
        break;
      }
      if (block->block_size != expected_size) {
        // Raw comparison on purpose: Free clears the owner tag, so a
        // tagged word on a free list means a torn or foreign block.
        AddProblem(&report,
                   "free block of wrong size in class " +
                       std::to_string(size_class) + ": " +
                       std::to_string(block->block_size));
        break;
      }
      extents.push_back({offset, expected_size});
      ++report.free_blocks;
      report.free_bytes += expected_size;
      if (++walked > max_blocks) {
        AddProblem(&report, "free-list cycle in class " +
                                std::to_string(size_class));
        break;
      }
      offset = static_cast<const FreeBlockPayload*>(
                   region->FromOffset(offset + sizeof(BlockHeader)))
                   ->next_offset;
    }
  }

  // --- reachability walk (mark without sweep) ---
  // Covers every header offset an in-region payload can name, past the
  // arena too, so such a pointer is still reported by the checks below.
  GranuleBitmap visited(arena_start, region->size());
  std::vector<const void*> pending;
  const std::uint64_t root =
      header->root_offset.load(std::memory_order_relaxed);
  if (root != 0) pending.push_back(region->FromOffset(root));
  const PointerVisitor visit = [&pending](const void* p) {
    if (p != nullptr) pending.push_back(p);
  };
  while (!pending.empty()) {
    const void* payload = pending.back();
    pending.pop_back();
    if (!region->Contains(payload)) continue;  // foreign pointers are legal
    const std::uint64_t payload_offset = region->ToOffset(payload);
    if (payload_offset < arena_start + sizeof(BlockHeader) ||
        payload_offset % kGranule != 0) {
      AddProblem(&report, "reachable pointer is not a valid payload at " +
                              std::to_string(payload_offset));
      continue;
    }
    const std::uint64_t block_offset = payload_offset - sizeof(BlockHeader);
    if (!visited.Insert(block_offset)) continue;
    const auto* block =
        static_cast<const BlockHeader*>(region->FromOffset(block_offset));
    if (block->magic != BlockHeader::kAllocatedMagic) {
      AddProblem(&report, "reachable block without allocated magic at " +
                              std::to_string(block_offset));
      continue;
    }
    if (Allocator::SizeClassOf(block->size()) < 0 ||
        block_offset + block->size() > bump) {
      AddProblem(&report, "reachable block with bad size at " +
                              std::to_string(block_offset));
      continue;
    }
    extents.push_back({block_offset, block->size()});
    ++report.reachable_objects;
    report.reachable_bytes += block->size();
    if (block->type_id != 0) {
      const TypeInfo* info = registry.Find(block->type_id);
      if (info != nullptr && info->trace) info->trace(block + 1, visit);
    }
  }

  // --- overlap + accounting ---
  std::sort(extents.begin(), extents.end(),
            [](const Extent& a, const Extent& b) {
              return a.offset < b.offset;
            });
  std::uint64_t covered = 0;
  std::uint64_t cursor = arena_start;
  for (const Extent& extent : extents) {
    if (extent.offset < cursor) {
      AddProblem(&report,
                 "extents overlap at " + std::to_string(extent.offset) +
                     " (free list and live data collide, or duplicate "
                     "free blocks)");
    }
    covered += extent.size;
    cursor = std::max(cursor, extent.offset + extent.size);
  }
  // Not a problem by itself: besides GC slivers and crash leaks (both
  // reclaimed by the next GC), bytes parked in live thread magazines or
  // remote-free inboxes are intentionally on no list and unreachable.
  const std::uint64_t used = bump - arena_start;
  report.unaccounted_bytes = used > covered ? used - covered : 0;

  // --- undo-log well-formedness ---
  // Only when the runtime area holds a formatted Atlas log (pheap-only
  // heaps and never-initialized runtimes are silently skipped).
  const std::uint64_t area_size = header->runtime_area_size;
  if (area_size >= sizeof(atlas::AtlasAreaHeader)) {
    const char* area_base = static_cast<const char*>(
        region->FromOffset(header->runtime_area_offset));
    const auto* area =
        reinterpret_cast<const atlas::AtlasAreaHeader*>(area_base);
    if (area->magic == atlas::kAtlasMagic) {
      const std::uint64_t slots_bytes =
          static_cast<std::uint64_t>(area->max_threads) *
          sizeof(atlas::ThreadLogHeader);
      const std::uint64_t entries_bytes =
          static_cast<std::uint64_t>(area->max_threads) *
          area->entries_per_thread * sizeof(atlas::LogEntry);
      const std::uint64_t counter_bytes =
          static_cast<std::uint64_t>(area->max_threads) *
          area->counter_slots_per_thread * sizeof(atlas::CounterSlot);
      if (area->version > atlas::kAtlasFormatVersion) {
        // A newer producer may have moved the geometry or added record
        // kinds; guessing would report phantom corruption. Surface the
        // version mismatch itself and skip the detailed scan.
        AddProblem(&report,
                   "undo-log: log format version " +
                       std::to_string(area->version) +
                       " is newer than this tool understands (max " +
                       std::to_string(atlas::kAtlasFormatVersion) +
                       "); re-run with a newer build");
      } else if (area->max_threads == 0 || area->entries_per_thread == 0 ||
          area->slots_offset + slots_bytes > area_size ||
          area->entries_offset + entries_bytes > area_size ||
          (area->counter_slots_per_thread > 0 &&
           area->counter_slots_offset + counter_bytes > area_size)) {
        AddProblem(&report, "undo-log: Atlas area geometry exceeds the "
                            "runtime area");
      } else {
        const auto* slots = reinterpret_cast<const atlas::ThreadLogHeader*>(
            area_base + area->slots_offset);
        const auto* entries = reinterpret_cast<const atlas::LogEntry*>(
            area_base + area->entries_offset);
        for (std::uint32_t t = 0; t < area->max_threads; ++t) {
          const atlas::ThreadLogHeader& slot = slots[t];
          const std::uint64_t head =
              slot.head.load(std::memory_order_relaxed);
          const std::uint64_t tail =
              slot.tail.load(std::memory_order_relaxed);
          if (head == tail) continue;
          ++report.log_rings_scanned;
          if (head > tail || tail - head > area->entries_per_thread) {
            AddProblem(&report, "undo-log: ring " + std::to_string(t) +
                                    " indices are corrupt (head " +
                                    std::to_string(head) + ", tail " +
                                    std::to_string(tail) + ")");
            continue;
          }
          const atlas::LogEntry* ring =
              entries + static_cast<std::uint64_t>(t) *
                            area->entries_per_thread;
          std::uint64_t last_store_seq = 0;
          std::int64_t acquire_depth = 0;
          for (std::uint64_t i = head; i < tail; ++i) {
            const atlas::LogEntry& entry =
                ring[i % area->entries_per_thread];
            ++report.log_entries_scanned;
            switch (entry.kind) {
              case atlas::EntryKind::kStoreRange: {
                if (entry.seq <= last_store_seq) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " stamp not monotone at entry " +
                                 std::to_string(i));
                }
                last_store_seq = entry.seq;
                const std::uint64_t len = entry.payload;
                if (len == 0 || len % 8 != 0 ||
                    entry.addr_offset % 8 != 0 ||
                    entry.aux != atlas::RangeContinuationCount(len) ||
                    i + entry.aux >= tail ||
                    entry.addr_offset < arena_start ||
                    entry.addr_offset + len > arena_end) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " malformed range record at entry " +
                                 std::to_string(i));
                  break;
                }
                // The following `aux` entries are raw old bytes, not
                // LogEntries; skip them.
                report.log_entries_scanned += entry.aux;
                i += entry.aux;
                break;
              }
              case atlas::EntryKind::kStore:
                // Leased stamp blocks are per-thread and monotone, so
                // stamps strictly increase along one ring.
                if (entry.seq <= last_store_seq) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " stamp not monotone at entry " +
                                 std::to_string(i) + " (" +
                                 std::to_string(entry.seq) + " after " +
                                 std::to_string(last_store_seq) + ")");
                }
                last_store_seq = entry.seq;
                if (entry.size == 0 || entry.size > 8 ||
                    entry.addr_offset < arena_start ||
                    entry.addr_offset + entry.size > arena_end) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " store record at entry " +
                                 std::to_string(i) +
                                 " targets outside the arena");
                }
                break;
              case atlas::EntryKind::kAcquire:
                ++acquire_depth;
                break;
              case atlas::EntryKind::kRelease:
                // A crash can truncate trailing acquires, but a release
                // without a prior acquire in the retained window means
                // the trim protocol dropped the wrong entries.
                if (--acquire_depth < 0) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " release without matching acquire at "
                                 "entry " +
                                 std::to_string(i));
                  acquire_depth = 0;
                }
                break;
              case atlas::EntryKind::kAlloc:
                if (entry.addr_offset <
                        arena_start + sizeof(BlockHeader) ||
                    entry.addr_offset > bump) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " alloc record at entry " +
                                 std::to_string(i) +
                                 " payload outside the arena");
                }
                break;
              case atlas::EntryKind::kOcsBegin:
              case atlas::EntryKind::kOcsCommit:
                break;
              default:
                if (static_cast<std::uint8_t>(entry.kind) >
                    atlas::kMaxKnownEntryKind) {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " record kind " +
                                 std::to_string(static_cast<int>(
                                     entry.kind)) +
                                 " at entry " + std::to_string(i) +
                                 " is newer than this tool understands "
                                 "(max " +
                                 std::to_string(static_cast<int>(
                                     atlas::kMaxKnownEntryKind)) +
                                 "); re-run with a newer build");
                } else {
                  AddProblem(&report,
                             "undo-log: ring " + std::to_string(t) +
                                 " invalid entry kind " +
                                 std::to_string(static_cast<int>(
                                     entry.kind)) +
                                 " at entry " + std::to_string(i));
                }
                break;
            }
          }
        }
        // Armed FliT counter slots are undo records too; a consistent
        // (even-version) slot must point at an aligned word inside the
        // arena.
        if (area->counter_slots_per_thread > 0) {
          const auto* counter_base =
              reinterpret_cast<const atlas::CounterSlot*>(
                  area_base + area->counter_slots_offset);
          for (std::uint32_t t = 0; t < area->max_threads; ++t) {
            const atlas::CounterSlot* counters =
                counter_base + static_cast<std::uint64_t>(t) *
                                   area->counter_slots_per_thread;
            for (std::uint32_t s = 0;
                 s < area->counter_slots_per_thread; ++s) {
              const atlas::CounterSlot& cs = counters[s];
              if (cs.addr_offset == 0 ||
                  cs.version.load(std::memory_order_relaxed) % 2 != 0) {
                continue;
              }
              if (cs.addr_offset % 8 != 0 ||
                  cs.addr_offset < arena_start ||
                  cs.addr_offset + 8 > arena_end) {
                AddProblem(&report,
                           "undo-log: counter slot " + std::to_string(s) +
                               " of thread " + std::to_string(t) +
                               " targets outside the arena");
              }
            }
          }
        }
        // --- slot-claim identity uniqueness (version >= 3) ---
        // Two claimed slots stamped with the same (pid, tid, birth)
        // would mean one thread incarnation owns two undo rings — the
        // tid-reuse hazard the birth epoch exists to prevent. pid == 0
        // stamps (mid-claim or pre-identity areas) are skipped.
        struct SlotClaim {
          std::uint32_t slot;
          std::uint32_t pid;
          std::uint32_t tid;
          std::uint64_t birth;
        };
        std::vector<SlotClaim> claims;
        for (std::uint32_t t = 0; t < area->max_threads; ++t) {
          const atlas::ThreadLogHeader& slot = slots[t];
          if (slot.in_use.load(std::memory_order_relaxed) ==
              atlas::kSlotFree) {
            continue;
          }
          const std::uint32_t pid =
              slot.owner_pid.load(std::memory_order_relaxed);
          if (pid == 0) continue;
          ++report.slots_claimed;
          const SlotClaim claim{
              t, pid, slot.owner_tid,
              slot.owner_birth.load(std::memory_order_relaxed)};
          for (const SlotClaim& other : claims) {
            if (other.pid == claim.pid && other.tid == claim.tid &&
                other.birth == claim.birth) {
              AddProblem(&report,
                         "slot-claim: slots " + std::to_string(other.slot) +
                             " and " + std::to_string(t) +
                             " are both claimed by pid " +
                             std::to_string(pid) + " tid " +
                             std::to_string(claim.tid) + " birth " +
                             std::to_string(claim.birth));
            }
          }
          claims.push_back(claim);
        }
        // --- robust lock table (version >= 3) ---
        // A held word's owner token must resolve to a claimed slot with
        // a live claimant; anything else is a wedged lock no process
        // can ever release (the per-slot harvest missed it, or the
        // token is garbage).
        if (area->robust_lock_count > 0) {
          const std::uint64_t table_bytes =
              sizeof(atlas::RobustTableHeader) +
              static_cast<std::uint64_t>(area->robust_lock_count) *
                  sizeof(atlas::RobustLockWord);
          if (area->robust_locks_offset + table_bytes > area_size) {
            AddProblem(&report, "robust-lock: table geometry exceeds the "
                                "runtime area");
          } else {
            const auto* words =
                reinterpret_cast<const atlas::RobustLockWord*>(
                    area_base + area->robust_locks_offset +
                    sizeof(atlas::RobustTableHeader));
            for (std::uint32_t w = 0; w < area->robust_lock_count; ++w) {
              const std::uint64_t token =
                  words[w].owner.load(std::memory_order_relaxed);
              if (token == 0) continue;
              ++report.robust_locks_held;
              if (token > area->max_threads) {
                ++report.wedged_locks;
                AddProblem(&report,
                           "robust-lock: word " + std::to_string(w) +
                               " owner token " + std::to_string(token) +
                               " exceeds the slot count");
                continue;
              }
              const atlas::ThreadLogHeader& slot =
                  slots[static_cast<std::uint32_t>(token - 1)];
              if (slot.in_use.load(std::memory_order_relaxed) ==
                  atlas::kSlotFree) {
                ++report.wedged_locks;
                AddProblem(&report,
                           "robust-lock: word " + std::to_string(w) +
                               " is held by freed slot " +
                               std::to_string(token - 1));
                continue;
              }
              const std::uint32_t pid =
                  slot.owner_pid.load(std::memory_order_relaxed);
              const std::uint64_t birth =
                  slot.owner_birth.load(std::memory_order_relaxed);
              if (pid != 0 &&
                  CheckLiveness(pid, birth) != Liveness::kAlive) {
                ++report.wedged_locks;
                AddProblem(&report,
                           "robust-lock: word " + std::to_string(w) +
                               " is held by slot " +
                               std::to_string(token - 1) +
                               " whose claimant pid " +
                               std::to_string(pid) + " is " +
                               LivenessName(CheckLiveness(pid, birth)));
              }
            }
          }
        }
      }
    }
  }

  report.ok = report.problems_total == 0;
  return report;
}

}  // namespace tsp::pheap
