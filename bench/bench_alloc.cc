// Allocation-path microbenchmark for the magazine layer (tentpole of
// the per-thread magazine PR): alloc/free throughput of 64-byte
// persistent blocks at 1..8 threads, shared-CAS baseline vs per-thread
// magazines, for two access patterns:
//
//   churn     — each thread allocates and frees its own blocks through
//               a sliding window (the magazine hit path);
//   xthread   — each thread allocates and hands blocks to its neighbor,
//               which frees them (the remote-free inbox path; in the
//               baseline every such free is a contended shared-list CAS).
//
// The shared baseline is the same allocator with magazines disabled via
// Allocator::set_magazines_enabled(false) — exactly what the
// TSP_ALLOC_MAGAZINES=0 escape hatch selects — so the comparison
// isolates the magazine layer, not an unrelated code path.
//
// Flags: --iters N       operations per thread      (default 200000)
//        --window N      live blocks per thread     (default 64)
//        --json PATH     (default results/alloc.json; "" disables)

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "pheap/heap.h"

namespace {

using tsp::pheap::PersistentHeap;
using tsp::pheap::RegionOptions;

constexpr std::size_t kPayload = 48;  // 64-byte class with the header
constexpr int kThreadCounts[] = {1, 2, 4, 8};

struct BenchConfig {
  std::uint64_t iters_per_thread = 200000;
  std::size_t window = 64;
};

struct RunResult {
  double mops = 0.0;  // millions of alloc+free pairs per second
  /// Registry snapshot taken while the heap was open: its alloc.*
  /// counters (magazine and shared-path allocs, remote frees, ...).
  tsp::obs::MetricsSnapshot metrics = {};
};

std::unique_ptr<PersistentHeap> MakeHeap(const std::string& path,
                                         bool magazines) {
  unlink(path.c_str());
  RegionOptions options;
  options.size = 512u << 20;
  options.runtime_area_size = 1u << 20;
  auto heap = PersistentHeap::Create(path, options);
  if (!heap.ok()) {
    std::fprintf(stderr, "%s\n", heap.status().ToString().c_str());
    std::exit(1);
  }
  (*heap)->allocator()->set_magazines_enabled(magazines);
  return std::move(*heap);
}

/// Start barrier: all workers begin timed work together. Waiters yield
/// rather than spin — on machines with fewer cores than threads a hard
/// spin burns whole scheduler quanta while the remaining workers are
/// still being created, which distorts short runs.
class Barrier {
 public:
  explicit Barrier(int parties) : parties_(parties) {}
  void Arrive() {
    arrived_.fetch_add(1, std::memory_order_acq_rel);
    while (arrived_.load(std::memory_order_acquire) < parties_) {
      std::this_thread::yield();
    }
  }

 private:
  const int parties_;
  std::atomic<int> arrived_{0};
};

/// Same-thread churn: a sliding window of live blocks; every iteration
/// allocates one and frees the oldest.
void ChurnWorker(PersistentHeap* heap, const BenchConfig& config,
                 Barrier* barrier) {
  std::vector<void*> window(config.window, nullptr);
  barrier->Arrive();
  for (std::uint64_t i = 0; i < config.iters_per_thread; ++i) {
    void* fresh = heap->Alloc(kPayload, 0);
    if (fresh == nullptr) std::exit(2);
    void*& slot = window[i % config.window];
    if (slot != nullptr) heap->Free(slot);
    slot = fresh;
  }
  for (void* block : window) {
    if (block != nullptr) heap->Free(block);
  }
}

/// Cross-thread handoff: thread i pushes the blocks it allocates into
/// ring (i+1)%T and frees whatever lands in ring i. Every free of a
/// handed-off block is a remote free.
struct HandoffRing {
  static constexpr std::size_t kCapacity = 256;
  alignas(64) std::atomic<void*> slots[kCapacity];
};

void XThreadWorker(PersistentHeap* heap, const BenchConfig& config,
                   int index, int threads, std::vector<HandoffRing>* rings,
                   Barrier* barrier) {
  HandoffRing& out = (*rings)[(index + 1) % threads];
  HandoffRing& in = (*rings)[index];
  std::size_t out_pos = 0;
  std::size_t in_pos = 0;
  barrier->Arrive();
  for (std::uint64_t i = 0; i < config.iters_per_thread; ++i) {
    void* fresh = heap->Alloc(kPayload, 0);
    if (fresh == nullptr) std::exit(2);
    // Hand off; if the neighbor is behind, free locally rather than
    // spin (keeps the loop allocation-bound, not handoff-bound).
    void* expected = nullptr;
    if (!out.slots[out_pos % HandoffRing::kCapacity]
             .compare_exchange_strong(expected, fresh,
                                      std::memory_order_acq_rel)) {
      heap->Free(fresh);
    } else {
      ++out_pos;
    }
    void* handed =
        in.slots[in_pos % HandoffRing::kCapacity].exchange(
            nullptr, std::memory_order_acq_rel);
    if (handed != nullptr) {
      heap->Free(handed);  // remote: allocated by the neighbor
      ++in_pos;
    }
  }
  // Drain whatever the neighbor left for us.
  for (auto& slot : in.slots) {
    void* handed = slot.exchange(nullptr, std::memory_order_acq_rel);
    if (handed != nullptr) heap->Free(handed);
  }
}

RunResult RunOne(const std::string& pattern, bool magazines, int threads,
                 const BenchConfig& config) {
  const std::string path = "/dev/shm/tsp_bench_alloc_" +
                           std::to_string(getpid()) + ".heap";
  auto heap = MakeHeap(path, magazines);
  Barrier barrier(threads + 1);  // +1: main arrives last and starts the clock
  std::vector<HandoffRing> rings(pattern == "xthread" ? threads : 0);
  for (auto& ring : rings) {
    for (auto& slot : ring.slots) slot.store(nullptr);
  }

  std::vector<std::thread> workers;
  for (int t = 0; t < threads; ++t) {
    if (pattern == "churn") {
      workers.emplace_back(ChurnWorker, heap.get(), config, &barrier);
    } else {
      workers.emplace_back(XThreadWorker, heap.get(), config, t, threads,
                           &rings, &barrier);
    }
  }
  barrier.Arrive();
  const auto start = std::chrono::steady_clock::now();
  for (auto& worker : workers) worker.join();
  const auto elapsed = std::chrono::duration<double>(
                           std::chrono::steady_clock::now() - start)
                           .count();

  RunResult result;
  result.mops = static_cast<double>(threads) *
                static_cast<double>(config.iters_per_thread) / elapsed /
                1e6;
  result.metrics = tsp::obs::DefaultRegistry().Snapshot();
  heap->CloseClean();
  heap.reset();
  unlink(path.c_str());
  return result;
}

std::string JsonLine(const std::string& pattern, int threads,
                     const RunResult& shared, const RunResult& magazine) {
  return tsp::bench::JsonObject()
      .Str("pattern", pattern)
      .Int("threads", threads)
      .Num("shared_mops", shared.mops)
      .Num("magazine_mops", magazine.mops)
      .Num("speedup", magazine.mops / shared.mops)
      .Raw("metrics", magazine.metrics.ToJson())
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  BenchConfig config;
  std::string json_path = "results/alloc.json";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--iters") {
      config.iters_per_thread = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--window") {
      config.window = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--json") {
      json_path = value;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 1;
    }
  }
  if (config.window == 0) config.window = 1;

  std::printf("Persistent-heap allocation throughput, %zu-byte payloads "
              "(Mops = millions of alloc+free pairs/s)\n\n",
              kPayload);
  std::vector<std::string> json_lines;
  for (const std::string pattern : {"churn", "xthread"}) {
    std::printf("  pattern %-8s %8s %12s %12s %9s %14s\n", pattern.c_str(),
                "threads", "shared", "magazines", "speedup", "remote frees");
    for (const int threads : kThreadCounts) {
      const RunResult shared = RunOne(pattern, false, threads, config);
      const RunResult magazine = RunOne(pattern, true, threads, config);
      std::printf("  %16s %8d %9.3f M %9.3f M %8.2fx %14llu\n", "", threads,
                  shared.mops, magazine.mops, magazine.mops / shared.mops,
                  static_cast<unsigned long long>(
                      magazine.metrics.counter("alloc.remote_frees")));
      json_lines.push_back(JsonLine(pattern, threads, shared, magazine));
    }
    std::printf("\n");
  }
  if (!json_path.empty()) {
    tsp::bench::WriteJson(
        json_path, "alloc",
        tsp::bench::JsonObject()
            .Int("payload_bytes", kPayload)
            .Int("iterations_per_thread", config.iters_per_thread)
            .Int("window", config.window)
            .Raw("runs", tsp::bench::JsonArray(json_lines)));
  }
  return 0;
}
