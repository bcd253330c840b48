// E4: the §4.1 zero-overhead claim. The lock-free skip list runs
// directly on the persistent heap with no logging and no flushing, so
// its cost is purely algorithmic. For scale, volatile-DRAM baselines
// (std::map and std::unordered_map under a mutex) are included — the
// persistent skip list competes with them despite being crash-proof.
//
// The thread scaling of the lock-free variants on the §5.1 map workload
// is bench_table1 run at each --threads count (E8b).

#include <benchmark/benchmark.h>
#include <unistd.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>

#include "bench_util.h"
#include "common/flush.h"
#include "common/random.h"
#include "lockfree/skiplist.h"
#include "pheap/heap.h"

namespace {

using tsp::lockfree::SkipListMap;
using tsp::lockfree::SkipListRoot;
using tsp::pheap::PersistentHeap;

struct Env {
  std::unique_ptr<PersistentHeap> heap;
  std::unique_ptr<SkipListMap> map;
  std::string path;

  Env() {
    path =
        "/dev/shm/tsp_bench_skip_" + std::to_string(getpid()) + ".heap";
    unlink(path.c_str());
    tsp::pheap::RegionOptions options;
    options.size = 1024u << 20;
    auto heap_or = PersistentHeap::Create(path, options);
    heap = std::move(heap_or).value();
    SkipListRoot* root = SkipListMap::CreateRoot(heap.get());
    heap->set_root(root);
    map = std::make_unique<SkipListMap>(heap.get(), root);
  }
  ~Env() {
    map.reset();
    heap.reset();
    unlink(path.c_str());
  }
};

void BM_SkipListInsert(benchmark::State& state) {
  Env env;
  std::uint64_t key = 0;
  for (auto _ : state) {
    env.map->Insert(key, key + 1);
    ++key;
  }
  state.SetItemsProcessed(state.iterations());
  env.map->epoch()->UnregisterCurrentThread();
}
BENCHMARK(BM_SkipListInsert);

void BM_SkipListGet(benchmark::State& state) {
  Env env;
  const std::uint64_t count = static_cast<std::uint64_t>(state.range(0));
  for (std::uint64_t i = 0; i < count; ++i) env.map->Insert(i, i);
  tsp::Random rng(1);
  for (auto _ : state) {
    benchmark::DoNotOptimize(env.map->Get(rng.Uniform(count)));
  }
  state.SetItemsProcessed(state.iterations());
  env.map->epoch()->UnregisterCurrentThread();
}
BENCHMARK(BM_SkipListGet)->Arg(1000)->Arg(100000)->Arg(1000000);

void BM_SkipListIncrement(benchmark::State& state) {
  Env env;
  tsp::Random rng(2);
  for (auto _ : state) {
    env.map->IncrementBy(rng.Uniform(1 << 16), 1);
  }
  state.SetItemsProcessed(state.iterations());
  env.map->epoch()->UnregisterCurrentThread();
}
BENCHMARK(BM_SkipListIncrement);

// The §4.1 proof-by-counter: an entire benchmark run issues zero
// persistence operations.
void BM_SkipListZeroFlushAudit(benchmark::State& state) {
  Env env;
  tsp::GlobalFlushStats().Reset();
  tsp::Random rng(3);
  for (auto _ : state) {
    env.map->IncrementBy(rng.Uniform(4096), 1);
  }
  if (tsp::GlobalFlushStats().lines_flushed.load() != 0) {
    state.SkipWithError("the non-blocking map flushed a cache line!");
  }
  env.map->epoch()->UnregisterCurrentThread();
}
BENCHMARK(BM_SkipListZeroFlushAudit);

// Volatile baselines (no crash resilience at all).
void BM_StdMapMutexIncrement(benchmark::State& state) {
  std::map<std::uint64_t, std::uint64_t> map;
  std::mutex mutex;
  tsp::Random rng(4);
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(mutex);
    map[rng.Uniform(1 << 16)] += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdMapMutexIncrement);

void BM_StdUnorderedMapMutexIncrement(benchmark::State& state) {
  std::unordered_map<std::uint64_t, std::uint64_t> map;
  std::mutex mutex;
  tsp::Random rng(5);
  for (auto _ : state) {
    std::lock_guard<std::mutex> lock(mutex);
    map[rng.Uniform(1 << 16)] += 1;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StdUnorderedMapMutexIncrement);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::AddCustomContext("build_type", tsp::bench::BuildType());
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
