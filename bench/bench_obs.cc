// E13: cost of the flight recorder on the Atlas hot path.
//
// Runs the §5.1 map workload in the log-only (TSP) variant twice per
// repetition — recorder off, recorder on — on fresh heaps, and compares
// best-of-N throughput. The recorder adds two ring events per OCS
// (begin/commit: plain stores plus one release-store of the ring tail),
// so the measured overhead bounds the cost of leaving tracing on in
// production; the acceptance budget is <= 5% and CI gates at 10% to
// absorb shared-runner noise (--max-overhead-pct).
//
// The JSON output also carries the unified metrics registry snapshot of
// the final traced run, exercising the one-call export path the other
// benches use.
//
// Flags: --threads N            (default 8)
//        --iters N              (per thread, default 100000)
//        --reps N               (best-of, default 3)
//        --json PATH            (default results/obs.json; "" disables)
//        --max-overhead-pct P   (exit 1 if overhead exceeds P; <0 = off)
// Both `--flag value` and `--flag=value` forms are accepted.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/recorder.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace {

using tsp::workload::MapSession;
using tsp::workload::MapVariant;
using tsp::workload::RunMapWorkload;
using tsp::workload::WorkloadOptions;

struct ArmResult {
  double best_miters = 0;
  std::uint64_t events_recorded = 0;  // from the recorder's ring tails
  std::string metrics_json = "{}";    // registry snapshot of the last run
};

/// One fresh-heap run of the log-only workload with tracing set to
/// `traced`. The toggle is consulted at heap-open (recorder attach)
/// time, so flipping it between sessions is a clean A/B.
void RunOnce(const WorkloadOptions& workload, bool traced, ArmResult* arm) {
  tsp::obs::SetTraceEnabled(traced);
  const std::string path =
      "/dev/shm/tsp_bench_obs_" + std::to_string(getpid()) + ".heap";

  MapSession::Config config;
  config.variant = MapVariant::kMutexLogOnly;
  config.path = path;
  config.heap_size = 1024ULL * 1024 * 1024;
  config.runtime_area_size = 64 * 1024 * 1024;
  config.hash_options.bucket_count = 1 << 20;
  config.hash_options.buckets_per_lock = 1000;

  unlink(path.c_str());
  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok()) {
    std::fprintf(stderr, "session failed: %s\n",
                 session.status().ToString().c_str());
    std::exit(1);
  }

  tsp::obs::DefaultRegistry().ResetOwned();
  const double miters =
      RunMapWorkload((*session)->map(), workload).millions_iter_per_sec;
  if (miters > arm->best_miters) arm->best_miters = miters;
  const tsp::obs::Recorder* recorder = (*session)->heap()->recorder();
  arm->events_recorded = recorder != nullptr ? recorder->EventsRecorded() : 0;
  arm->metrics_json = tsp::obs::DefaultRegistry().Snapshot().ToJson();

  (*session)->CloseClean();
  session->reset();
  unlink(path.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  WorkloadOptions workload;
  workload.threads = 8;
  workload.iterations_per_thread = 100000;
  int reps = 3;
  std::string json_path = "results/obs.json";
  double max_overhead_pct = -1;
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
    } else if (flag == "--reps") {
      reps = std::atoi(value.c_str());
    } else if (flag == "--json") {
      json_path = value;
    } else if (flag == "--max-overhead-pct") {
      max_overhead_pct = std::atof(value.c_str());
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return 2;
    }
  }

  std::printf("flight-recorder overhead: log-only map workload, %d threads, "
              "%llu iterations/thread, best of %d\n",
              workload.threads,
              static_cast<unsigned long long>(workload.iterations_per_thread),
              reps);

  ArmResult off, on;
  for (int rep = 0; rep < reps; ++rep) {
    RunOnce(workload, /*traced=*/false, &off);
    RunOnce(workload, /*traced=*/true, &on);
  }

  const double overhead_pct =
      off.best_miters > 0 ? (1 - on.best_miters / off.best_miters) * 100 : 0;
  std::printf("  recorder off: %10.3f Miter/s\n", off.best_miters);
  std::printf("  recorder on:  %10.3f Miter/s  (%llu events recorded)\n",
              on.best_miters,
              static_cast<unsigned long long>(on.events_recorded));
  std::printf("  overhead:     %+9.2f%%  (budget: <=5%%)\n", overhead_pct);
  if (on.events_recorded == 0) {
    std::fprintf(stderr, "traced arm recorded no events — recorder did not "
                         "attach (runtime area too small?)\n");
    return 1;
  }

  if (!json_path.empty()) {
    tsp::bench::WriteJson(
        json_path, "obs_overhead",
        tsp::bench::JsonObject()
            .Int("threads", workload.threads)
            .Int("iterations_per_thread", workload.iterations_per_thread)
            .Int("reps", reps)
            .Num("miters_recorder_off", off.best_miters)
            .Num("miters_recorder_on", on.best_miters)
            .Num("overhead_pct", overhead_pct)
            .Int("events_recorded", on.events_recorded)
            .Raw("metrics", on.metrics_json));
  }
  if (max_overhead_pct >= 0 && overhead_pct > max_overhead_pct) {
    std::fprintf(stderr, "overhead %.2f%% exceeds the %.2f%% gate\n",
                 overhead_pct, max_overhead_pct);
    return 1;
  }
  return 0;
}
