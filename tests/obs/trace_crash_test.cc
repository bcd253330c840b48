// The tentpole end-to-end property: the flight recorder survives
// SIGKILL like the undo log does. A worker process dies mid-OCS; the
// parent decodes the rings from a read-only mapping BEFORE running
// recovery (reopening recycles rings as the new session's threads claim
// slots) and cross-references the recorder's open OCS spans against the
// OCSes recovery actually rolls back.
//
// The child kills itself from inside an OCS that has already published,
// so every cycle has at least one open span to compare. The other
// workers die wherever they are, and one can die in the few-instruction
// window between an undo-log append and the matching trace emit (each
// side publishes with its own release-store), so a cycle where the two
// disagree is not evidence of a bug — such cycles are skipped and the
// loop retries until it observes a cycle with exact agreement.

#include <errno.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "atlas/pmutex.h"
#include "atlas/runtime.h"
#include "obs/trace_layout.h"
#include "obs/trace_reader.h"
#include "pheap/heap.h"
#include "pheap/test_util.h"
#include "workload/map_session.h"
#include "workload/workload.h"

namespace tsp::obs {
namespace {

using pheap::testing::ScopedRegionFile;
using pheap::testing::UniqueBaseAddress;
using workload::MapSession;
using workload::MapVariant;

/// Runs the map workload in a child. Writes one byte to `ready_fd` once
/// the heap is open (and therefore dirty); after `run_ms` of workload it
/// SIGKILLs its own process from inside an OCS whose undo record has
/// already published, so that OCS's kOcsBegin is in the trace ring.
[[noreturn]] void RunChildWorker(const MapSession::Config& config,
                                 int ready_fd, int run_ms) {
  auto session = MapSession::OpenOrCreate(config);
  if (!session.ok()) _exit(4);
  atlas::AtlasRuntime* runtime = (*session)->runtime();
  auto* word = (*session)->heap()->New<std::uint64_t>(0);
  if (runtime == nullptr || word == nullptr) _exit(5);
  const char ready = 1;
  if (write(ready_fd, &ready, 1) != 1) _exit(6);
  close(ready_fd);

  const std::atomic<bool> stop{false};  // never set: run until killed
  std::thread workers([&] {
    workload::WorkloadOptions workload;
    workload.threads = 4;
    workload.high_range = 256;  // high contention: long lock waits mid-OCS
    workload.seed = 0x0B5;
    RunMapWorkload((*session)->map(), workload, &stop);
  });
  usleep(run_ms * 1000);
  atlas::PMutex mutex(runtime);
  mutex.lock();
  runtime->CurrentThread()->Store(word, std::uint64_t{1});  // publishes
  raise(SIGKILL);
  _exit(3);  // unreachable
}

TEST(TraceCrashTest, OpenSpansMatchRecoveredRollbacks) {
  ScopedRegionFile file("trace_crash");
  MapSession::Config config;
  config.variant = MapVariant::kMutexLogOnly;
  config.path = file.path();
  config.heap_size = 256 * 1024 * 1024;
  config.base_address = UniqueBaseAddress();
  config.runtime_area_size = 16 * 1024 * 1024;

  constexpr int kMaxCycles = 20;
  bool exercised = false;
  int cycles = 0;

  for (; cycles < kMaxCycles && !exercised; ++cycles) {
    // Fresh heap every cycle: rings are recycled lazily (only when a
    // new thread claims the slot), so a stale ring from a previous
    // cycle's extra thread would contribute phantom open spans.
    unlink(config.path.c_str());

    int ready_pipe[2];
    ASSERT_EQ(pipe(ready_pipe), 0);
    const pid_t pid = fork();
    ASSERT_GE(pid, 0) << "fork failed";
    if (pid == 0) {
      close(ready_pipe[0]);
      // Vary the run time across cycles so the other workers die in
      // different OCS phases.
      RunChildWorker(config, ready_pipe[1], 10 + (cycles * 7) % 50);
    }
    close(ready_pipe[1]);
    char ready = 0;
    ssize_t got;
    while ((got = read(ready_pipe[0], &ready, 1)) < 0 && errno == EINTR) {
    }
    close(ready_pipe[0]);
    int status = 0;
    ASSERT_EQ(waitpid(pid, &status, 0), pid);
    ASSERT_EQ(got, 1) << "worker died before its heap was open, status "
                      << status;
    ASSERT_TRUE(WIFSIGNALED(status)) << "worker exited, status " << status;
    ASSERT_EQ(WTERMSIG(status), SIGKILL);

    // Post-mortem read, strictly before recovery touches the heap.
    std::vector<TraceEvent> merged;
    std::vector<std::uint64_t> span_ocses;
    {
      auto heap = pheap::PersistentHeap::OpenReadOnly(config.path);
      ASSERT_TRUE(heap.ok()) << heap.status().ToString();
      ASSERT_TRUE((*heap)->needs_recovery())
          << "SIGKILLed heap should be unclean";
      const TraceReader reader((*heap)->runtime_area(),
                               (*heap)->runtime_area_size());
      ASSERT_TRUE(reader.valid()) << "trace area not formatted";
      merged = reader.MergedEvents();
      for (const OpenOcsSpan& span : reader.OpenOcsSpans()) {
        span_ocses.push_back(span.packed_ocs);
      }
    }

    // Now recover, and compare notes with the recorder.
    auto session = MapSession::OpenOrCreate(config);
    ASSERT_TRUE(session.ok()) << session.status().ToString();
    ASSERT_TRUE((*session)->recovered());
    const atlas::RecoveryStats stats = (*session)->recovery_stats();
    std::vector<std::uint64_t> rolled = stats.rolled_back_incomplete;
    (*session)->CloseClean();
    session->reset();

    ASSERT_GE(stats.ocses_incomplete, 1u)
        << "the worker killed itself inside a published OCS";
    ASSERT_LE(stats.ocses_incomplete,
              atlas::RecoveryStats::kMaxReportedRollbacks)
        << "identity list capped; comparison would be partial";

    std::sort(span_ocses.begin(), span_ocses.end());
    std::sort(rolled.begin(), rolled.end());
    if (span_ocses != rolled) continue;  // kill split a log/trace pair

    // An agreeing cycle: the recorder's post-crash story matches what
    // recovery actually did.
    exercised = true;
    EXPECT_FALSE(merged.empty())
        << "workers ran long enough to roll back an OCS but left no "
           "events";
    EXPECT_TRUE(std::is_sorted(
        merged.begin(), merged.end(),
        [](const TraceEvent& a, const TraceEvent& b) {
          return a.stamp < b.stamp;
        }))
        << "MergedEvents must be stamp-ordered";
    // Every open span must have a begin event in the surviving stream.
    for (const std::uint64_t packed : span_ocses) {
      const bool has_begin = std::any_of(
          merged.begin(), merged.end(), [packed](const TraceEvent& e) {
            return e.code == static_cast<std::uint16_t>(EventCode::kOcsBegin) &&
                   e.arg0 == packed;
          });
      EXPECT_TRUE(has_begin) << "open span without a begin event";
    }
  }

  EXPECT_TRUE(exercised)
      << "recorder and recovery never agreed across " << cycles
      << " rollback cycles — more than the rare publication race "
         "explains";
}

}  // namespace
}  // namespace tsp::obs
