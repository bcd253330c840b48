// E1: regenerates Table 1 of the paper — throughput (millions of
// worker iterations/second) of the §5.1 map workload for the four
// variants:
//
//          Mutex-Based
//   no Atlas | log only | log + flush | Non-Blocking
//
// plus the derived rows the paper reports in §5.2: the overhead of
// Atlas fortification in TSP mode (log-only vs native), the overhead
// without TSP (log+flush vs native), and the TSP gain (log-only vs
// log+flush; the paper measured +49% desktop / +42% server).
//
// Absolute numbers depend on the host; the *shape* — native > log-only
// > log+flush, with a substantial TSP gain — is the reproduced result.
//
// A shard-count sweep (--shards 1,4) repeats the whole table with the
// map split across N shard heaps (total arena size held constant), to
// show the Table-1 shape survives sharding and to expose any routing
// overhead. The JSON output carries one entry per shard count in
// "runs".
//
// Besides the text table, the run is dumped as JSON through the shared
// bench emitter: per variant its throughput plus the metrics registry
// snapshot (Atlas, allocator, epoch and flush counters, summed across
// shard heaps), then the derived percentages and the shape verdict.
// A thread sweep is a shell loop over --threads.
//
// Flags: --threads N    (default 8, as in the paper)
//        --iters N      (per thread, default 150000)
//        --high N       (|H|, default 2^20 as in a "much larger" range)
//        --shards LIST  (comma-separated shard counts, default "1")
//        --json PATH    (default results/table1.json; "" disables)
//        --max-log-overhead-pct P  (exit nonzero if the canonical
//                        single-heap log-only overhead vs native
//                        exceeds P percent; <=0 disables, default off)
//        --procs N      (N > 1 switches to the E14 multi-process kill
//                        drill: N processes attach one log-only domain
//                        (first --shards entry) and churn it while
//                        random workers are SIGKILLed and replaced;
//                        writes robust-lock/harvest counters to
//                        results/mproc.json — --json overrides — and
//                        exits nonzero unless the final attach verifies
//                        clean. --threads is split across the workers.)
//        --kills N      (SIGKILLs in the --procs drill; default 3N)
// Both `--flag value` and `--flag=value` forms are accepted.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/flush.h"
#include "faultsim/crash_harness.h"
#include "obs/metrics.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace {

using tsp::bench::JsonArray;
using tsp::bench::JsonObject;
using tsp::obs::MetricsSnapshot;
using tsp::workload::MapSession;
using tsp::workload::MapVariant;
using tsp::workload::MapVariantName;
using tsp::workload::RunMapWorkload;
using tsp::workload::WorkloadOptions;

struct Row {
  const char* label;
  MapVariant variant;
  double miters = 0;
  /// Registry snapshot taken while the variant's session was still open
  /// (the pull sources unregister at close). Same-named counters of the
  /// shard runtimes and heaps are summed.
  MetricsSnapshot metrics = {};
};

/// One full table at a given shard count: the paper's four variants
/// plus the two extra non-blocking implementations (in-heap sharded
/// skip list, Harris-Michael hash map). The paper-shape check and the
/// derived §5.2 percentages only look at the first four rows.
struct RunSet {
  int shards = 1;
  Row rows[6] = {
      {"no Atlas (native)", MapVariant::kMutexNative},
      {"log only (TSP)", MapVariant::kMutexLogOnly},
      {"log + flush (non-TSP)", MapVariant::kMutexLogFlush},
      {"non-blocking skip list", MapVariant::kLockFreeSkipList},
      {"nb skip list (sharded)", MapVariant::kLockFreeSkipListSharded},
      {"nb hash map", MapVariant::kLockFreeHashMap},
  };
  double native() const { return rows[0].miters; }
  double log_only() const { return rows[1].miters; }
  double log_flush() const { return rows[2].miters; }
  double log_only_overhead_pct() const {
    return (1 - log_only() / native()) * 100;
  }
  double log_flush_overhead_pct() const {
    return (1 - log_flush() / native()) * 100;
  }
  double tsp_gain_pct() const { return (log_only() / log_flush() - 1) * 100; }
  bool shape_holds() const {
    return native() > log_only() && log_only() > log_flush();
  }
};

constexpr std::uint64_t kTotalArenaBytes = 1536ULL * 1024 * 1024;

void RunVariant(const WorkloadOptions& workload, int shards, Row* row) {
  const std::string path =
      "/dev/shm/tsp_table1_" + std::to_string(getpid()) + ".heap";

  MapSession::Config config;
  config.variant = row->variant;
  config.path = path;
  // Hold the TOTAL arena constant across shard counts so the sweep
  // compares routing/locality, not memory budget.
  config.heap_size = kTotalArenaBytes / static_cast<unsigned>(shards);
  config.runtime_area_size = 64 * 1024 * 1024;
  config.shards = shards;
  config.hash_options.bucket_count = (1 << 20) / static_cast<unsigned>(shards);
  config.hash_options.buckets_per_lock = 1000;  // the paper's granularity

  for (const std::string& shard_path : MapSession::ShardPaths(config)) {
    unlink(shard_path.c_str());
  }

  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }

  tsp::GlobalFlushStats().Reset();
  tsp::obs::DefaultRegistry().ResetOwned();
  row->miters =
      RunMapWorkload((*session)->map(), workload).millions_iter_per_sec;
  row->metrics = tsp::obs::DefaultRegistry().Snapshot();

  (*session)->CloseClean();
  session->reset();
  for (const std::string& shard_path : MapSession::ShardPaths(config)) {
    unlink(shard_path.c_str());
  }
}

void WriteJson(const std::string& json_path, const WorkloadOptions& workload,
               const std::vector<RunSet>& runs) {
  std::vector<std::string> run_records;
  for (const RunSet& run : runs) {
    std::vector<std::string> variants;
    for (const Row& row : run.rows) {
      variants.push_back(JsonObject()
                             .Str("variant", MapVariantName(row.variant))
                             .Str("label", row.label)
                             .Num("miters_per_sec", row.miters)
                             .Raw("metrics", row.metrics.ToJson())
                             .str());
    }
    const JsonObject derived =
        JsonObject()
            .Num("log_only_overhead_pct", run.log_only_overhead_pct())
            .Num("log_flush_overhead_pct", run.log_flush_overhead_pct())
            .Num("tsp_gain_pct", run.tsp_gain_pct());
    run_records.push_back(JsonObject()
                              .Int("shards", run.shards)
                              .Raw("variants", JsonArray(variants))
                              .Raw("derived", derived.str())
                              .Bool("shape_holds", run.shape_holds())
                              .str());
  }
  tsp::bench::WriteJson(
      json_path, "table1",
      JsonObject()
          .Int("threads", workload.threads)
          .Int("iterations_per_thread", workload.iterations_per_thread)
          .Int("high_range", workload.high_range)
          .Raw("runs", JsonArray(run_records)));
}

/// E14: the multi-process kill drill. N workers attach one log-only
/// domain and churn it while random workers are SIGKILLed and replaced;
/// the persistent robust-table counters (steals, dead-owner rollbacks,
/// slot harvests) plus the final verification verdict land in
/// `json_path`. Returns the process exit code.
int RunMproc(int procs, int kills, int shards,
             const WorkloadOptions& workload, const std::string& json_path) {
  tsp::faultsim::MultiProcessCrashOptions options;
  options.session.variant = MapVariant::kMutexLogOnly;
  options.session.path =
      "/dev/shm/tsp_mproc_" + std::to_string(getpid()) + ".heap";
  options.session.heap_size = 256 * 1024 * 1024;
  options.session.runtime_area_size = 64 * 1024 * 1024;
  options.session.shards = shards;
  options.workload = workload;
  // --threads is the total budget; split it across the workers.
  options.workload.threads = workload.threads / procs > 0
                                 ? workload.threads / procs
                                 : 1;
  options.workers = procs;
  options.kills = kills > 0 ? kills : 3 * procs;

  std::printf("Multi-process kill drill: %d attached workers x %d "
              "threads, %d shard%s, %d SIGKILLs\n",
              options.workers, options.workload.threads, shards,
              shards == 1 ? "" : "s", options.kills);
  const tsp::faultsim::MultiProcessCrashReport report =
      tsp::faultsim::RunMultiProcessCrashCycles(options);
  std::printf("%s\n", report.ToString().c_str());
  for (const std::string& path : MapSession::ShardPaths(options.session)) {
    unlink(path.c_str());
  }

  if (!json_path.empty()) {
    const JsonObject atlas =
        JsonObject()
            .Int("robust_steals", report.robust_steals)
            .Int("dead_owner_rollbacks", report.dead_owner_rollbacks)
            .Int("slots_harvested", report.slots_harvested)
            .Int("nested_release_hazards", report.nested_release_hazards);
    if (!tsp::bench::WriteJson(
            json_path, "mproc",
            JsonObject()
                .Int("procs", options.workers)
                .Int("threads_per_proc", options.workload.threads)
                .Int("shards", shards)
                .Int("kills", report.kills_delivered)
                .Int("workers_spawned", report.workers_spawned)
                .Raw("atlas", atlas.str())
                .Int("wedged_locks", report.wedged_locks)
                .Int("completed_iterations",
                     report.final_completed_iterations)
                .Bool("all_ok", report.all_ok))) {
      return 1;
    }
  }
  return report.all_ok ? 0 : 1;
}

std::vector<int> ParseShardList(const std::string& list) {
  std::vector<int> shards;
  std::size_t start = 0;
  while (start <= list.size()) {
    std::size_t comma = list.find(',', start);
    if (comma == std::string::npos) comma = list.size();
    const std::string token = list.substr(start, comma - start);
    if (!token.empty()) {
      const int n = std::atoi(token.c_str());
      if (n >= 1) shards.push_back(n);
    }
    start = comma + 1;
  }
  if (shards.empty()) shards.push_back(1);
  return shards;
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadOptions workload;
  workload.threads = 8;
  workload.iterations_per_thread = 150000;
  workload.high_range = 1 << 20;
  std::string json_path = "results/table1.json";
  bool json_path_set = false;
  std::string shard_list = "1";
  double max_log_overhead_pct = 0;  // <=0: no gate
  int procs = 1;
  int kills = 0;  // 0: default 3 * procs
  for (int i = 1; i < argc; ++i) {
    // Accept `--flag value` and `--flag=value`.
    std::string flag = argv[i];
    std::string value;
    const std::size_t eq = flag.find('=');
    if (eq != std::string::npos) {
      value = flag.substr(eq + 1);
      flag = flag.substr(0, eq);
    } else if (i + 1 < argc) {
      value = argv[++i];
    } else {
      std::fprintf(stderr, "missing value for %s\n", flag.c_str());
      return 2;
    }
    if (flag == "--threads") {
      workload.threads = std::atoi(value.c_str());
    } else if (flag == "--iters") {
      workload.iterations_per_thread = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--high") {
      workload.high_range = std::strtoull(value.c_str(), nullptr, 0);
    } else if (flag == "--shards") {
      shard_list = value;
    } else if (flag == "--json") {
      json_path = value;
      json_path_set = true;
    } else if (flag == "--max-log-overhead-pct") {
      max_log_overhead_pct = std::atof(value.c_str());
    } else if (flag == "--procs") {
      procs = std::atoi(value.c_str());
    } else if (flag == "--kills") {
      kills = std::atoi(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  if (procs > 1) {
    return RunMproc(procs, kills, ParseShardList(shard_list).front(),
                    workload,
                    json_path_set ? json_path : "results/mproc.json");
  }

  std::printf("Table 1 reproduction: map workload, %d worker threads, "
              "|H|=%llu, %llu iterations/thread\n",
              workload.threads,
              static_cast<unsigned long long>(workload.high_range),
              static_cast<unsigned long long>(
                  workload.iterations_per_thread));
  std::printf("(each iteration = 3 atomic map operations; flush insn: %s; "
              "build: %s; nproc: %ld)\n",
              tsp::FlushInstructionName(tsp::BestFlushInstruction()),
              tsp::bench::BuildType(), sysconf(_SC_NPROCESSORS_ONLN));

  std::vector<RunSet> runs;
  for (const int shards : ParseShardList(shard_list)) {
    RunSet run;
    run.shards = shards;
    std::printf("\n--- %d shard heap%s (total arena %llu MB) ---\n", shards,
                shards == 1 ? "" : "s",
                static_cast<unsigned long long>(kTotalArenaBytes >> 20));
    std::printf("  %-26s %14s %16s %14s %12s %14s\n", "variant", "Miter/s",
                "lines flushed", "seq leases", "resyncs", "mag allocs");
    for (Row& row : run.rows) {
      RunVariant(workload, shards, &row);
      const MetricsSnapshot& m = row.metrics;
      std::printf("  %-26s %14.3f %16llu %14llu %12llu %14llu\n", row.label,
                  row.miters,
                  static_cast<unsigned long long>(
                      m.counter("flush.lines_flushed")),
                  static_cast<unsigned long long>(
                      m.counter("atlas.seq_blocks_leased")),
                  static_cast<unsigned long long>(
                      m.counter("atlas.seq_resyncs")),
                  static_cast<unsigned long long>(
                      m.counter("alloc.magazine_allocs")));
    }
    const MetricsSnapshot& logged = run.rows[1].metrics;
    std::printf("\nUndo-log diet (log-only run): %llu ring records "
                "(%llu ranges), %llu slot arms, %llu fresh-store elisions, "
                "%llu line-dedup hits\n",
                static_cast<unsigned long long>(
                    logged.counter("atlas.undo_records")),
                static_cast<unsigned long long>(
                    logged.counter("atlas.range_records")),
                static_cast<unsigned long long>(
                    logged.counter("atlas.flit_rearms")),
                static_cast<unsigned long long>(
                    logged.counter("atlas.elided_fresh")),
                static_cast<unsigned long long>(
                    logged.counter("atlas.line_dedup_hits")));
    std::printf("\nDerived (paper §5.2 reports desktop/server):\n");
    std::printf("  Atlas log-only overhead vs native:   %5.1f%%  "
                "(paper: ~35%% / ~30%%)\n",
                run.log_only_overhead_pct());
    std::printf("  Atlas log+flush overhead vs native:  %5.1f%%  "
                "(paper: ~57%% / ~50%%)\n",
                run.log_flush_overhead_pct());
    std::printf("  TSP gain (log-only vs log+flush):    %5.1f%%  "
                "(paper: +49%% / +42%%)\n",
                run.tsp_gain_pct());
    std::printf("\nshape check (native > log-only > log+flush): %s\n",
                run.shape_holds() ? "HOLDS" : "VIOLATED");
    runs.push_back(run);
  }

  if (!json_path.empty()) WriteJson(json_path, workload, runs);
  // Gate on the canonical single-heap run; sharded runs are reported
  // but their shape depends on core count.
  const RunSet& canonical = runs.front();
  if (max_log_overhead_pct > 0) {
    const double overhead = canonical.log_only_overhead_pct();
    if (overhead > max_log_overhead_pct) {
      std::fprintf(stderr,
                   "FAIL: log-only overhead %.1f%% exceeds the "
                   "--max-log-overhead-pct %.1f%% budget\n",
                   overhead, max_log_overhead_pct);
      return 1;
    }
    std::printf("log-only overhead gate: %.1f%% <= %.1f%% budget\n",
                overhead, max_log_overhead_pct);
  }
  return canonical.shape_holds() ? 0 : 1;
}
