// Copyright 2026 The TSP Authors.
// perfbench: the repository benchmark driver.
//
// One run = one workload over the five map variants (native, log_only,
// log_flush, skiplist, lf_hash). Each variant's share of --seconds is
// driven closed-loop by kThreads workers on fresh heaps, one session at
// a time, the variants taking turns; each session is measured in slices
// and verified against the per-thread models, and the last one is
// closed cleanly and re-checked.
// The log_only and lf_hash variants are then crashed: a forked writer
// replays the same streams and SIGKILLs itself at a seeded call, and
// the parent times open + recovery + attach + the first verified Get on
// byte copies of the crashed heap.
//
// --trace 0 reports the end-to-end metrics; --trace 1 splits each
// variant's share into an untraced and a traced half (every map call
// timed) and reports the per-layer metrics. The last stdout line is one
// JSON object; see README.md for every metric's meaning and unit.
//
// Only public library APIs are used: MapSession, maps::Map,
// CheckMapInvariants, CheckHeap, the runtime/allocator/flush stats
// accessors, the obs registry snapshot and the recovery that
// MapSession::OpenOrCreate runs.

#include <sched.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "common/flush.h"
#include "latency.h"
#include "memfd_backend.h"
#include "obs/metrics.h"
#include "pheap/check.h"
#include "workload/map_session.h"
#include "workload/workload.h"
#include "workloads.h"

namespace tsp::perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using workload::MapSession;
using workload::MapVariant;

// One arena size for every workload and variant. t1-paper's live set
// is bounded by |H| = 2^20 keys and read-mostly's by its 2^21-key space,
// so 1 GiB keeps the largest (skip list) heap far from the allocator's
// heap-exhaustion abort.
constexpr std::size_t kArenaBytes = 1ULL << 30;
constexpr std::size_t kRuntimeAreaBytes = 64ULL << 20;
// The paper's Table-1 map: 2^20 buckets, 1000 buckets per lock.
constexpr std::uint64_t kBucketCount = 1ULL << 20;
constexpr std::uint64_t kBucketsPerLock = 1000;
// Untraced latency: every kSampleEvery-th call of each thread is timed.
constexpr std::uint64_t kSampleEvery = 16;
// At least this many fresh heaps are set up per variant; set-up
// metrics are medians over all of a variant's set-ups.
constexpr int kSetupRepeats = 3;
// Time-bound sessions are measured in slices of this length.
constexpr double kSliceSeconds = 0.25;
// Slices and set-ups in which the hypervisor stole more than this share
// of the CPUs' time ran on fewer CPUs than the benchmark states; the
// medians leave them out (see Counted).
constexpr double kMaxSteal = 0.05;
// Recoveries per crashed variant, each of a byte copy of the one
// crashed image; recover_ms is their median. Cheap recoveries (small
// live sets) are repeated up to kMaxRecoveries within kRecoverySeconds.
constexpr int kRecoveries = 7;
constexpr int kMaxRecoveries = 75;
constexpr double kRecoverySeconds = 3;

struct VariantInfo {
  const char* key;
  MapVariant variant;
};

constexpr std::array<VariantInfo, 5> kVariants = {{
    {"native", MapVariant::kMutexNative},
    {"log_only", MapVariant::kMutexLogOnly},
    {"log_flush", MapVariant::kMutexLogFlush},
    {"skiplist", MapVariant::kLockFreeSkipList},
    {"lf_hash", MapVariant::kLockFreeHashMap},
}};

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool smoke = false;
  bool perturb = false;
  std::string rev = "unknown";
};

// ---------------------------------------------------------------------
// Small JSON writer (flat objects; values are pre-rendered).

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

class JsonObject {
 public:
  JsonObject& Raw(const std::string& key, const std::string& json) {
    fields_.emplace_back(key, json);
    return *this;
  }
  JsonObject& Add(const std::string& key, double v) { return Raw(key, Num(v)); }
  JsonObject& Add(const std::string& key, std::uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Add(const std::string& key, int v) {
    return Raw(key, std::to_string(v));
  }
  JsonObject& Add(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  JsonObject& Add(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  JsonObject& Add(const std::string& key, const char* v) {
    return Raw(key, Quote(v));
  }
  std::string Str() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i > 0) out += ", ";
      out += Quote(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

// ---------------------------------------------------------------------
// Failure accounting: every call and every check counts against the
// run; a failure is never dropped.

class Tally {
 public:
  /// Attributes what follows to `variant` (its per-variant counts).
  void set_variant(const std::string& variant) { variant_ = variant; }
  void Attempt(std::uint64_t n) {
    attempted_ += n;
    by_variant_[variant_].first += n;
  }
  void Fail(const std::string& where, const std::string& what,
            std::uint64_t count = 1) {
    failed_ += count;
    by_variant_[variant_].second += count;
    if (messages_.size() < 32) messages_.push_back(where + ": " + what);
    std::fprintf(stderr, "perfbench: FAILED %s: %s\n", where.c_str(),
                 what.c_str());
  }
  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  /// {attempted, failed} attributed to `variant`.
  std::pair<std::uint64_t, std::uint64_t> of(const std::string& variant) const {
    const auto it = by_variant_.find(variant);
    return it == by_variant_.end() ? std::pair<std::uint64_t, std::uint64_t>{}
                                   : it->second;
  }
  std::string MessagesJson() const {
    std::string out = "[";
    for (std::size_t i = 0; i < messages_.size(); ++i) {
      out += (i > 0 ? ", " : "") + Quote(messages_[i]);
    }
    return out + "]";
  }

 private:
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::string variant_;
  std::map<std::string, std::pair<std::uint64_t, std::uint64_t>> by_variant_;
  std::vector<std::string> messages_;
};

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2;
}

double Seconds(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

void RunThreads(const std::function<void(int)>& body) {
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) threads.emplace_back(body, t);
  for (std::thread& thread : threads) thread.join();
}

std::vector<Stream> MakeStreams(const WorkloadSpec& spec, std::uint64_t seed) {
  std::vector<Stream> streams;
  streams.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) streams.emplace_back(spec, seed, t);
  return streams;
}

MapSession::Config SessionConfig(const VariantInfo& info,
                                 std::shared_ptr<MemfdBackend> backend) {
  MapSession::Config config;
  config.variant = info.variant;
  config.path = "perfbench." + std::to_string(getpid()) + "." + info.key;
  config.heap_size = kArenaBytes;
  config.runtime_area_size = kRuntimeAreaBytes;
  config.hash_options.bucket_count = kBucketCount;
  config.hash_options.buckets_per_lock = kBucketsPerLock;
  config.backend = std::move(backend);
  return config;
}

void Prepopulate(maps::Map* map, const std::vector<Stream>& streams) {
  RunThreads([&](int t) {
    for (const std::uint64_t key : streams[t].PrepopulateKeys()) {
      map->Put(key, Stream::PrepopulateValue(key));
    }
    map->OnThreadExit();
  });
}

std::uint64_t MemAvailableBytes() {
  std::ifstream meminfo("/proc/meminfo");
  std::string line;
  while (std::getline(meminfo, line)) {
    unsigned long long kb = 0;
    if (std::sscanf(line.c_str(), "MemAvailable: %llu kB", &kb) == 1) {
      return kb * 1024;
    }
  }
  return 0;
}

// ---------------------------------------------------------------------
// Measured phase.

// Nanoseconds the calling thread has spent runnable but waiting for a
// CPU (the second field of /proc/thread-self/schedstat); 0 if unknown.
std::uint64_t RunQueueWaitNs() {
  std::ifstream schedstat("/proc/thread-self/schedstat");
  std::uint64_t cpu_ns = 0;
  std::uint64_t wait_ns = 0;
  schedstat >> cpu_ns >> wait_ns;
  return schedstat ? wait_ns : 0;
}

// {steal, total} jiffies of all CPUs so far (/proc/stat): steal is time
// the hypervisor ran something else while a virtual CPU wanted to run.
std::pair<std::uint64_t, std::uint64_t> HostStealJiffies() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && stat >> field; ++i) {
    total += field;
    if (i == 7) steal = field;
  }
  return {steal, total};
}

// The samples a median is taken over, given each one's host steal
// share: those with at most kMaxSteal, or, when fewer than a
// quarter of them qualify, the quarter with the least steal. Steal is
// time the host withheld from this virtual machine's CPUs; it does not
// include CPU the program's own threads take.
std::vector<std::size_t> Counted(const std::vector<double>& steal) {
  std::vector<std::size_t> order(steal.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return steal[a] < steal[b]; });
  std::size_t keep = (order.size() + 3) / 4;
  while (keep < order.size() && steal[order[keep]] <= kMaxSteal) ++keep;
  order.resize(keep);
  return order;
}

// Median of the counted samples of `v`.
double CountedMedian(const std::vector<double>& v, const std::vector<double>& steal) {
  std::vector<double> kept;
  for (const std::size_t i : Counted(steal)) kept.push_back(v[i]);
  return Median(kept);
}

struct alignas(64) WorkerState {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
  std::uint64_t wait_ns = 0;
  LatencyHistogram sampled;
  std::array<LatencyHistogram, kOpCount> per_op;
};

struct Phase {
  std::uint64_t calls = 0;
  std::uint64_t failures = 0;
  double seconds = 0;
  double wait_seconds = 0;  // workers' run-queue wait, summed
  std::uint64_t steal_jiffies = 0;  // host steal over all CPUs
  std::uint64_t cpu_jiffies = 0;
  double ns_per_tick = 1;
  LatencyHistogram sampled;                       // untraced, 1 in N
  std::array<LatencyHistogram, kOpCount> per_op;  // traced, every call
  std::uint64_t pending_unstable_peak = 0;

  void Add(const Phase& other) {
    calls += other.calls;
    failures += other.failures;
    seconds += other.seconds;
    wait_seconds += other.wait_seconds;
    steal_jiffies += other.steal_jiffies;
    cpu_jiffies += other.cpu_jiffies;
    ns_per_tick = other.ns_per_tick;  // the TSC rate is invariant
    sampled.Merge(other.sampled);
    for (int op = 0; op < kOpCount; ++op) per_op[op].Merge(other.per_op[op]);
    pending_unstable_peak =
        std::max(pending_unstable_peak, other.pending_unstable_peak);
  }
  double steal_share() const {
    return Ratio(static_cast<double>(steal_jiffies), static_cast<double>(cpu_jiffies));
  }
  // Completed calls per second of wall-clock time.
  double mops() const { return Ratio(static_cast<double>(calls), seconds) / 1e6; }
  // Report-only: calls per second of the time the workers were not
  // waiting for a CPU. It nets out other tenants' load and the program's
  // own background threads alike, so it is not the throughput metric.
  double net_mops() const {
    const double run = seconds - wait_seconds / kThreads;
    return Ratio(static_cast<double>(calls), run > 0 ? run : seconds) / 1e6;
  }
  double SampledNs(double q) const { return sampled.Quantile(q) * ns_per_tick; }
  double OpNs(Op op, double q) const {
    return per_op[static_cast<int>(op)].Quantile(q) * ns_per_tick;
  }
};

// Drives `streams` closed-loop on kThreads workers. With `budget_calls`
// the phase ends when the workers have issued that many calls between
// them (claimed in chunks, so all finish within a chunk of each other);
// otherwise after `seconds`.
Phase Measure(maps::Map* map, std::vector<Stream>& streams, double seconds,
              std::uint64_t budget_calls, bool traced,
              atlas::AtlasRuntime* runtime) {
  constexpr std::uint64_t kChunk = 3 * 1024;  // whole §5.1 iterations
  const TickClock tick_clock;
  std::vector<std::unique_ptr<WorkerState>> states;
  for (int t = 0; t < kThreads; ++t) {
    states.push_back(std::make_unique<WorkerState>());
  }
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> claimed{0};
  std::atomic<int> running{kThreads};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      WorkerState& state = *states[t];
      Stream& stream = streams[t];
      std::uint64_t left = 0;
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      const std::uint64_t wait_start = RunQueueWaitNs();
      while (!stop.load(std::memory_order_relaxed)) {
        if (budget_calls > 0 && left == 0) {
          const std::uint64_t at = claimed.fetch_add(kChunk);
          if (at >= budget_calls) break;
          left = std::min(kChunk, budget_calls - at);
        }
        --left;
        const Step step = stream.Draw();
        bool ok;
        if (traced) {
          const std::uint64_t start = Ticks();
          ok = Execute(map, step);
          state.per_op[static_cast<int>(step.op)].Record(Ticks() - start);
        } else if (state.calls % kSampleEvery == 0) {
          const std::uint64_t start = Ticks();
          ok = Execute(map, step);
          state.sampled.Record(Ticks() - start);
        } else {
          ok = Execute(map, step);
        }
        stream.Apply(step);
        ++state.calls;
        if (!ok) ++state.failures;
      }
      state.wait_ns = RunQueueWaitNs() - wait_start;
      map->OnThreadExit();
      running.fetch_sub(1);
    });
  }

  Phase phase;
  const auto [steal_start, cpu_start] = HostStealJiffies();
  const auto start = Clock::now();
  const auto deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  go.store(true, std::memory_order_release);
  auto more = [&] {
    return running.load() > 0 && (budget_calls > 0 || Clock::now() < deadline);
  };
  if (traced && runtime != nullptr) {
    // The pruner backlog is a gauge; sample it for its peak.
    while (more()) {
      phase.pending_unstable_peak = std::max(
          phase.pending_unstable_peak, runtime->GetStats().pending_unstable);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  } else if (budget_calls == 0) {
    std::this_thread::sleep_until(deadline);
  }
  if (budget_calls == 0) stop.store(true, std::memory_order_relaxed);
  for (std::thread& thread : threads) thread.join();
  phase.seconds = Seconds(start, Clock::now());
  const auto [steal_end, cpu_end] = HostStealJiffies();
  phase.steal_jiffies = steal_end - steal_start;
  phase.cpu_jiffies = cpu_end - cpu_start;
  phase.ns_per_tick = tick_clock.NsPerTick();
  for (const auto& state : states) {
    phase.calls += state->calls;
    phase.failures += state->failures;
    phase.wait_seconds += static_cast<double>(state->wait_ns) / 1e9;
    phase.sampled.Merge(state->sampled);
    for (int op = 0; op < kOpCount; ++op) {
      phase.per_op[op].Merge(state->per_op[op]);
    }
  }
  return phase;
}

// ---------------------------------------------------------------------
// Layer counters: the obs registry snapshot (Atlas runtime, allocator
// and epoch pull sources) plus the process-wide flush counters.

using Counters = std::map<std::string, double>;

Counters ReadCounters() {
  Counters counters;
  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  for (const auto& [name, value] : snapshot.counters) {
    counters[name] = static_cast<double>(value);
  }
  counters["flush.lines_flushed"] =
      static_cast<double>(GlobalFlushStats().lines_flushed.load());
  counters["flush.fences"] = static_cast<double>(GlobalFlushStats().fences.load());
  return counters;
}

// Adds after - before to *sum; high-water marks (*_peak) take the max.
void AddDelta(const Counters& before, const Counters& after, Counters* sum) {
  for (const auto& [name, value] : after) {
    const auto it = before.find(name);
    double& total = (*sum)[name];
    if (name.ends_with("_peak")) {
      total = std::max(total, value);
    } else {
      total += value - (it == before.end() ? 0 : it->second);
    }
  }
}

// ---------------------------------------------------------------------
// Heap checks.

const pheap::TypeRegistry& Registry() {
  static const pheap::TypeRegistry* registry = [] {
    auto* r = new pheap::TypeRegistry();
    MapSession::RegisterAllTypes(r);
    return r;
  }();
  return *registry;
}

void CheckHeapOrFail(MapSession* session, Tally* tally, const std::string& where) {
  const pheap::CheckReport report = pheap::CheckHeap(*session->heap(), Registry());
  tally->Attempt(1);
  if (!report.ok) tally->Fail(where, "CheckHeap: " + report.ToString());
}

// Reopens a cleanly closed heap and checks it.
void ReopenAndCheck(const MapSession::Config& config, Tally* tally,
                    const std::string& where) {
  auto reopened = MapSession::OpenOrCreate(config);
  tally->Attempt(1);
  if (!reopened.ok()) {
    tally->Fail(where, "reopen: " + reopened.status().ToString());
    return;
  }
  if ((*reopened)->recovered()) {
    tally->Fail(where, "a cleanly closed heap needed recovery");
  }
  CheckHeapOrFail(reopened->get(), tally, where);
  (*reopened)->CloseClean();
}

// ---------------------------------------------------------------------
// Per-variant measurement.

struct SetupTimes {
  std::vector<double> open_s, prepopulate_s, close_s, total_s;
  std::vector<double> steal;  // host steal share over each set-up
  // Medians over the counted set-ups, like the slice metrics.
  double OpenS() const { return CountedMedian(open_s, steal); }
  double PrepopulateS() const { return CountedMedian(prepopulate_s, steal); }
  double TotalS() const { return CountedMedian(total_s, steal); }
};

// One share of a variant's measurement: sessions on fresh heaps (one
// per round on t1-paper, else WorkloadSpec::sessions), cut into slices.
struct Measured {
  Phase phase;                // all slices together
  std::vector<Phase> slices;  // rounds (t1-paper) or kSliceSeconds each
  Counters counters;          // summed over the measured slices
  int sessions = 0;
  // From the last session, after its last slice.
  std::uint64_t live_keys = 0;
  double arena_bytes_used = 0;
  double arena_fill = 0;

  std::vector<double> SliceSteal() const {
    std::vector<double> steal;
    for (const Phase& slice : slices) steal.push_back(slice.steal_share());
    return steal;
  }
  /// Median over the counted slices of `f(slice)`.
  template <typename F>
  double SliceMedian(F f) const {
    std::vector<double> v;
    for (const Phase& slice : slices) v.push_back(f(slice));
    return CountedMedian(v, SliceSteal());
  }
  double mops() const {
    return SliceMedian([](const Phase& p) { return p.mops(); });
  }
  double SampledNs(double q) const {
    return SliceMedian([q](const Phase& p) { return p.SampledNs(q); });
  }
};

struct CrashResult {
  double recover_ms = 0;
  double step_ms = 0;  // copy, recovery and every check
  int cpu = 0;  // the CPU the recovery ran on
  std::uint64_t kill_at = 0;
  std::uint64_t calls_before_kill = 0;
  atlas::RecoveryStats recovery;
  pheap::GcStats gc;
  std::map<std::string, double> phase_us;
};

struct VariantReport {
  const VariantInfo* info = nullptr;
  SetupTimes setup;
  std::optional<Measured> untraced;  // the end-to-end measurement
  std::optional<Measured> traced;    // --trace 1 only
  std::vector<CrashResult> crashes;
  int heaps_built = 0;  // fresh heaps so far (seeds the next one)
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
};

// A SIGKILLed writer's heap and what recovering it must show.
struct CrashImage {
  VariantReport* report = nullptr;
  std::string where;
  std::shared_ptr<MemfdBackend> backend;
  // Every stream replayed to its worker's completed calls.
  std::vector<Stream> streams;
  // The first Get after recovery and the value it must read.
  std::uint64_t first_key = 0;
  std::optional<std::uint64_t> first_expect;
  std::uint64_t kill_at = 0;
  std::uint64_t calls_before_kill = 0;
  int target = 0;     // recoveries to make
  int recovered = 0;  // recoveries made
  bool failed = false;
};

// A freshly created, set-up heap and the streams that drive it.
struct Fresh {
  MapSession::Config config;
  std::unique_ptr<MapSession> session;
  std::vector<Stream> streams;
};

class Bench {
 public:
  Bench(Options options, WorkloadSpec spec)
      : options_(std::move(options)), spec_(std::move(spec)) {}

  /// Measures, sets up and crashes every variant of `reports`.
  void Run(std::vector<VariantReport>* reports);
  std::string Report(const std::vector<VariantReport>& reports) const;

 private:
  std::optional<Fresh> SetUp(const VariantInfo& info, std::uint64_t seed,
                             SetupTimes* times, const std::string& where);
  /// One variant's share in progress: its open session, if any, and
  /// what it has measured so far.
  struct Lane {
    VariantReport* report = nullptr;
    Measured measured;
    std::optional<Fresh> fresh;
    double session_seconds = 0;  // measured on the open session
    bool done = false;
  };
  /// Runs one slice of `lane`, setting up and ending sessions as needed.
  void RunSlice(Lane* lane, double share, bool traced);
  /// Measures `share` seconds of every variant, in turns. After each
  /// session, `between` is called with the share of the work done.
  std::vector<Measured> MeasureShares(std::vector<VariantReport>* reports,
                                      double share, bool traced,
                                      const std::function<void(double)>& between);
  /// Kills a forked writer at a seeded call and returns its heap.
  std::optional<CrashImage> Crash(VariantReport* report, int repeat, bool early);
  /// Recovers a byte copy of `image` and checks it; appends the result
  /// to the variant's crashes. Returns how long the whole step took.
  double Recover(CrashImage* image);

  double VariantSeconds() const { return options_.seconds / kVariants.size(); }
  std::uint64_t SessionSeed(int session) const {
    return options_.seed + static_cast<std::uint64_t>(session) * 0x9E3779B97F4A7C15ULL;
  }

  Options options_;
  WorkloadSpec spec_;
  Tally tally_;
};

std::optional<Fresh> Bench::SetUp(const VariantInfo& info, std::uint64_t seed,
                                  SetupTimes* times, const std::string& where) {
  auto backend = MemfdBackend::Create("perfbench-" + std::string(info.key));
  tally_.Attempt(1);
  if (!backend.ok()) {
    tally_.Fail(where, backend.status().ToString());
    return std::nullopt;
  }
  Fresh fresh;
  fresh.config = SessionConfig(info, *backend);
  const auto [steal_start, cpu_start] = HostStealJiffies();
  const auto t0 = Clock::now();
  auto opened = MapSession::OpenOrCreate(fresh.config);
  const auto t1 = Clock::now();
  if (!opened.ok()) {
    tally_.Fail(where, "open: " + opened.status().ToString());
    return std::nullopt;
  }
  fresh.session = std::move(*opened);
  fresh.streams = MakeStreams(spec_, seed);
  const auto t2 = Clock::now();
  Prepopulate(fresh.session->map(), fresh.streams);
  const auto t3 = Clock::now();
  const auto [steal_end, cpu_end] = HostStealJiffies();
  times->steal.push_back(Ratio(static_cast<double>(steal_end - steal_start),
                               static_cast<double>(cpu_end - cpu_start)));
  times->open_s.push_back(Seconds(t0, t1));
  times->prepopulate_s.push_back(Seconds(t2, t3));
  times->total_s.push_back(Seconds(t0, t1) + Seconds(t2, t3));
  return fresh;
}

void Bench::RunSlice(Lane* lane, double share, bool traced) {
  VariantReport* report = lane->report;
  const VariantInfo& info = *report->info;
  tally_.set_variant(info.key);
  Measured& m = lane->measured;
  const std::string where = spec_.name + "/" + info.key + "/session" +
                            std::to_string(m.sessions) + (traced ? "-traced" : "");
  if (!lane->fresh) {
    lane->fresh = SetUp(info, SessionSeed(report->heaps_built++), &report->setup, where);
    lane->session_seconds = 0;
    if (!lane->fresh) {
      lane->done = true;
      return;
    }
  }
  MapSession* session = lane->fresh->session.get();

  // One slice: a whole round on t1-paper, else up to kSliceSeconds of a
  // session that lasts a spec_.sessions-th of the share.
  const double session_share = share / spec_.sessions;
  const double length = std::min({kSliceSeconds, share - m.phase.seconds,
                                  session_share - lane->session_seconds});
  const Counters before = ReadCounters();
  const Phase slice = Measure(session->map(), lane->fresh->streams, length,
                              spec_.round_calls, traced, session->runtime());
  AddDelta(before, ReadCounters(), &m.counters);
  m.phase.Add(slice);
  m.slices.push_back(slice);
  lane->session_seconds += slice.seconds;
  tally_.Attempt(slice.calls);
  if (slice.failures > 0) {
    tally_.Fail(where, "calls returned results the model rejects", slice.failures);
  }
  const bool share_used = m.phase.seconds >= share;
  if (spec_.round_calls == 0 && !share_used &&
      lane->session_seconds < session_share) {
    return;  // the session goes on
  }

  // The session ends: verify it, then discard it or, at the end of the
  // share, close it cleanly and check the reopened heap.
  ++m.sessions;
  const Verdict verdict = VerifyMap(*session->map(), spec_, lane->fresh->streams,
                                    /*inflight=*/false, options_.perturb);
  session->map()->OnThreadExit();
  tally_.Attempt(1);
  if (verdict.failures > 0) {
    tally_.Fail(where, "clean-run verification: " + verdict.first_error,
                verdict.failures);
  }
  m.live_keys = verdict.live_keys;
  const pheap::RegionHeader* header = session->heap()->region()->header();
  m.arena_bytes_used = static_cast<double>(
      session->heap()->GetAllocatorStats().bump_offset - header->arena_offset);
  m.arena_fill = m.arena_bytes_used / static_cast<double>(header->arena_size);
  if (share_used) {
    const auto closing = Clock::now();
    session->CloseClean();
    report->setup.close_s.push_back(Seconds(closing, Clock::now()));
    lane->fresh->session.reset();
    ReopenAndCheck(lane->fresh->config, &tally_, where);
    lane->done = true;
  }
  lane->fresh.reset();
}

std::vector<Measured> Bench::MeasureShares(
    std::vector<VariantReport>* reports, double share, bool traced,
    const std::function<void(double)>& between) {
  std::vector<Lane> lanes(reports->size());
  for (std::size_t v = 0; v < lanes.size(); ++v) lanes[v].report = &(*reports)[v];
  // Variants take turns session by session, so a stretch of load from
  // other tenants of the host falls on every variant alike instead of on
  // all sessions of one. Only one session is open at a time: an open
  // Atlas session's pruner would otherwise take CPU from the variant
  // being measured, and the layer counters are registry totals.
  for (bool pending = true; pending;) {
    pending = false;
    for (Lane& lane : lanes) {
      if (lane.done) continue;
      do {
        RunSlice(&lane, share, traced);
      } while (lane.fresh && !lane.done);
      pending |= !lane.done;
      double measured = 0;
      for (const Lane& l : lanes) {
        measured += l.done ? share : std::min(share, l.measured.phase.seconds);
      }
      between(measured / (share * static_cast<double>(lanes.size())));
    }
  }
  std::vector<Measured> measured;
  for (Lane& lane : lanes) measured.push_back(std::move(lane.measured));
  return measured;
}

void Bench::Run(std::vector<VariantReport>* reports) {
  // The crashes come first, so that their recoveries can be spread over
  // the measurement: a burst of recoveries at the end of the run would
  // sample the host's speed of a few seconds only.
  std::vector<CrashImage> images;
  for (VariantReport& report : *reports) {
    tally_.set_variant(report.info->key);
    std::vector<std::optional<CrashImage>> crashed;
    if (options_.smoke) {
      // Every variant, crashed once early and once late in the writer's run.
      crashed.push_back(Crash(&report, 0, /*early=*/true));
      crashed.push_back(Crash(&report, 1, /*early=*/false));
    } else if (report.info->variant == MapVariant::kMutexLogOnly ||
               report.info->variant == MapVariant::kLockFreeHashMap) {
      crashed.push_back(Crash(&report, 0, /*early=*/false));
    }
    for (std::optional<CrashImage>& image : crashed) {
      if (image) images.push_back(std::move(*image));
    }
  }
  // The first recovery of each image sets how many it gets: kRecoveries,
  // or as many as fit in kRecoverySeconds, up to kMaxRecoveries.
  for (CrashImage& image : images) {
    const double step_seconds = Recover(&image);
    image.target = options_.smoke ? 2
                                  : std::clamp(static_cast<int>(kRecoverySeconds /
                                                                std::max(step_seconds, 1e-3)),
                                               kRecoveries, kMaxRecoveries);
  }
  auto recover_until = [&](double done) {
    for (CrashImage& image : images) {
      while (!image.failed && image.recovered < std::ceil(image.target * done)) {
        Recover(&image);
      }
    }
  };

  const double share = VariantSeconds();
  if (!options_.trace) {
    std::vector<Measured> measured = MeasureShares(reports, share, false, recover_until);
    for (std::size_t v = 0; v < reports->size(); ++v) {
      (*reports)[v].untraced = std::move(measured[v]);
    }
  } else {
    // A traced run splits each share into an untraced and a traced half.
    std::vector<Measured> untraced = MeasureShares(reports, share / 2, false, recover_until);
    std::vector<Measured> traced = MeasureShares(reports, share / 2, true, [](double) {});
    for (std::size_t v = 0; v < reports->size(); ++v) {
      (*reports)[v].untraced = std::move(untraced[v]);
      (*reports)[v].traced = std::move(traced[v]);
    }
  }
  recover_until(1);

  for (VariantReport& report : *reports) {
    const VariantInfo& info = *report.info;
    tally_.set_variant(info.key);
    // Set-up time is a median over at least kSetupRepeats fresh heaps;
    // the extra ones are discarded without a clean close.
    while (report.setup.total_s.size() < kSetupRepeats) {
      const std::string where = spec_.name + "/" + info.key + "/setup";
      if (!SetUp(info, SessionSeed(report.heaps_built++), &report.setup, where)) break;
    }
    std::tie(report.attempted, report.failed) = tally_.of(info.key);
  }
}

// A page shared with the forked writer: each worker publishes how many
// calls it completed, so the parent can rebuild the expected map.
struct alignas(64) Progress {
  std::atomic<std::uint64_t> done{0};
  std::atomic<std::uint64_t> failures{0};
};

class SharedProgress {
 public:
  SharedProgress() {
    void* p = mmap(nullptr, sizeof(Progress) * kThreads, PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    slots_ = p == MAP_FAILED ? nullptr : new (p) Progress[kThreads];
  }
  ~SharedProgress() {
    if (slots_ != nullptr) munmap(slots_, sizeof(Progress) * kThreads);
  }
  SharedProgress(const SharedProgress&) = delete;
  SharedProgress& operator=(const SharedProgress&) = delete;

  bool ok() const { return slots_ != nullptr; }
  Progress& operator[](int t) { return slots_[t]; }

 private:
  Progress* slots_ = nullptr;
};

// The forked writer: builds the workload state from the seed, runs the
// streams, and worker 0 SIGKILLs the process instead of issuing call
// `kill_at`. Never returns.
[[noreturn]] void WriterMain(const WorkloadSpec& spec, std::uint64_t seed,
                             const MapSession::Config& config,
                             std::uint64_t kill_at, SharedProgress* progress) {
  auto opened = MapSession::OpenOrCreate(config);
  if (!opened.ok()) {
    std::fprintf(stderr, "perfbench writer: open: %s\n",
                 opened.status().ToString().c_str());
    _exit(20);
  }
  maps::Map* map = (*opened)->map();
  std::vector<Stream> streams = MakeStreams(spec, seed);
  Prepopulate(map, streams);
  // The workers advance in near lockstep (no worker runs more than
  // kLead calls ahead of the slowest), so the calls completed before the
  // kill, and with them the recovery work, follow from `kill_at`.
  constexpr std::uint64_t kLead = 4096;
  auto slowest = [&] {
    std::uint64_t least = UINT64_MAX;
    for (int t = 0; t < kThreads; ++t) {
      least = std::min(least, (*progress)[t].done.load(std::memory_order_relaxed));
    }
    return least;
  };
  RunThreads([&](int t) {
    Stream& stream = streams[t];
    Progress& slot = (*progress)[t];
    for (;;) {
      if (stream.done() % 64 == 0) {
        while (stream.done() > slowest() + kLead) std::this_thread::yield();
      }
      const Step step = stream.Draw();
      if (t == 0 && stream.done() + 1 == kill_at) kill(getpid(), SIGKILL);
      if (!Execute(map, step)) slot.failures.fetch_add(1, std::memory_order_relaxed);
      stream.Apply(step);
      slot.done.store(stream.done(), std::memory_order_release);
    }
  });
  _exit(21);  // unreachable: the workers never return
}

std::optional<CrashImage> Bench::Crash(VariantReport* report, int repeat, bool early) {
  const VariantInfo& info = *report->info;
  const std::string where = spec_.name + "/" + info.key + "/crash" +
                            std::to_string(repeat) + (early ? "-early" : "");
  auto backend = MemfdBackend::Create("perfbench-crash-" + std::string(info.key));
  SharedProgress progress;
  tally_.Attempt(1);
  if (!backend.ok() || !progress.ok()) {
    tally_.Fail(where, "cannot allocate the crash heap or progress page");
    return std::nullopt;
  }
  const MapSession::Config config = SessionConfig(info, *backend);
  CrashImage image;
  image.report = report;
  image.where = where;
  image.backend = *backend;

  // The kill point: a seeded call of worker 0 in the last twentieth of
  // its budget (the first quarter for the early smoke phase).
  Random pick(options_.seed * 0x9E3779B97F4A7C15ULL +
              static_cast<std::uint64_t>(repeat) * 0x100 + info.key[0]);
  const std::uint64_t budget = spec_.crash_calls;
  const std::uint64_t kill_at =
      early ? 1 + pick.Uniform(budget / 4)
            : budget - budget / 20 + pick.Uniform(budget / 20);
  image.kill_at = kill_at;

  // The first Get after recovery reads the key of worker 0's last
  // completed call (or a key set up before any call) and must see the
  // model's value: that call returned before the kill, so it is durable.
  {
    Stream stream(spec_, options_.seed, 0);
    std::optional<Step> last;
    while (stream.done() + 1 < kill_at) {
      last = stream.Draw();
      stream.Apply(*last);
    }
    if (spec_.kind == Kind::kT1) {
      image.first_key = workload::C2Key(0);
      if (stream.done() >= 3) image.first_expect = stream.done() / 3;
    } else {
      const std::uint32_t local = last ? last->local : stream.present_local(0);
      image.first_key = stream.KeyOf(local);
      image.first_expect = stream.ValueAt(local);
    }
  }

  std::fflush(stdout);
  std::fflush(stderr);
  const pid_t pid = fork();
  if (pid < 0) {
    tally_.Fail(where, std::string("fork: ") + std::strerror(errno));
    return std::nullopt;
  }
  if (pid == 0) WriterMain(spec_, options_.seed, config, kill_at, &progress);

  // Watchdog: a writer that never reaches its kill point is killed.
  std::mutex mutex;
  std::condition_variable cv;
  bool reaped = false;
  bool timed_out = false;
  std::thread watchdog([&] {
    std::unique_lock<std::mutex> lock(mutex);
    if (!cv.wait_for(lock, std::chrono::seconds(60), [&] { return reaped; })) {
      timed_out = true;
      kill(pid, SIGKILL);
    }
  });
  int status = 0;
  const pid_t waited = waitpid(pid, &status, 0);
  {
    std::lock_guard<std::mutex> lock(mutex);
    reaped = true;
  }
  cv.notify_all();
  watchdog.join();

  std::uint64_t writer_failures = 0;
  for (int t = 0; t < kThreads; ++t) {
    image.calls_before_kill += progress[t].done.load(std::memory_order_acquire);
    writer_failures += progress[t].failures.load(std::memory_order_relaxed);
  }
  tally_.Attempt(image.calls_before_kill);
  if (waited != pid || timed_out || !WIFSIGNALED(status) ||
      WTERMSIG(status) != SIGKILL || progress[0].done.load() + 1 != kill_at) {
    std::string why = timed_out ? "writer never reached its kill point"
                                : "writer did not die by its seeded SIGKILL";
    if (WIFSIGNALED(status)) {
      why += " (signal " + std::to_string(WTERMSIG(status)) +
             (WTERMSIG(status) == SIGABRT ? ": aborted, e.g. heap exhausted" : "") +
             ")";
    } else if (WIFEXITED(status)) {
      why += " (exit code " + std::to_string(WEXITSTATUS(status)) + ")";
    }
    tally_.Fail(where, why);
    return std::nullopt;
  }
  if (writer_failures > 0) {
    tally_.Fail(where, "writer calls returned results the model rejects",
                writer_failures);
  }

  // The expected map: every stream replayed to its completed calls.
  image.streams = MakeStreams(spec_, options_.seed);
  for (int t = 0; t < kThreads; ++t) {
    const std::uint64_t done = progress[t].done.load();
    while (image.streams[t].done() < done) {
      image.streams[t].Apply(image.streams[t].Draw());
    }
  }
  return image;
}

double Bench::Recover(CrashImage* image) {
  const auto step_start = Clock::now();
  const VariantInfo& info = *image->report->info;
  tally_.set_variant(info.key);
  const std::string at = image->where + "/recovery" + std::to_string(image->recovered);
  ++image->recovered;
  auto copy = image->backend->Clone("perfbench-recover-" + std::string(info.key));
  tally_.Attempt(1);
  if (!copy.ok()) {
    tally_.Fail(at, "copy of the crashed heap: " + copy.status().ToString());
    image->failed = true;
    return Seconds(step_start, Clock::now());
  }
  const MapSession::Config copy_config = SessionConfig(info, *copy);

  // Each recovery works on a byte copy of the crashed image, so every
  // sample does the same recovery work. Recovery runs on one thread, and
  // on a shared host the speed of the CPU it lands on varies from run to
  // run, so the samples rotate over the CPUs the process may use.
  cpu_set_t allowed;
  CPU_ZERO(&allowed);
  sched_getaffinity(0, sizeof(allowed), &allowed);
  std::vector<int> cpus;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &allowed)) cpus.push_back(cpu);
  }
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[static_cast<std::size_t>(image->recovered) % cpus.size()], &one);
  sched_setaffinity(0, sizeof(one), &one);

  // Timed from the start of the reopen (open, Atlas rollback, GC, map
  // attach) to the first verified Get.
  CrashResult result;
  result.kill_at = image->kill_at;
  result.calls_before_kill = image->calls_before_kill;
  obs::DefaultRegistry().ResetOwned();
  const auto start = Clock::now();
  auto reopened = MapSession::OpenOrCreate(copy_config);
  std::optional<std::uint64_t> got;
  if (reopened.ok()) got = (*reopened)->map()->Get(image->first_key);
  const auto served = Clock::now();
  result.cpu = sched_getcpu();
  sched_setaffinity(0, sizeof(allowed), &allowed);
  if (!reopened.ok()) {
    tally_.Fail(at, "recovery: " + reopened.status().ToString());
    image->failed = true;
    return Seconds(step_start, Clock::now());
  }
  MapSession* session = reopened->get();
  session->map()->OnThreadExit();
  result.recover_ms = Seconds(start, served) * 1e3;
  tally_.Attempt(2);
  if (got != image->first_expect) {
    tally_.Fail(at, "first Get after recovery: key " + std::to_string(image->first_key) +
                        " read " + (got ? std::to_string(*got) : "absent"));
  }
  if (!session->recovered()) tally_.Fail(at, "reopen ran no recovery");

  result.recovery = session->recovery_stats();
  result.gc = session->gc_stats();
  const obs::MetricsSnapshot snapshot = obs::DefaultRegistry().Snapshot();
  for (const char* name : {"recovery.scan_us", "recovery.analysis_us",
                           "recovery.rollback_us", "gc.mark_us", "gc.sweep_us"}) {
    const auto it = snapshot.histograms.find(name);
    result.phase_us[name] =
        it == snapshot.histograms.end() ? 0 : static_cast<double>(it->second.sum);
  }
  tally_.Attempt(1);
  if (result.gc.invalid_pointers != 0) {
    tally_.Fail(at, "GC found " + std::to_string(result.gc.invalid_pointers) +
                        " invalid pointers");
  }

  // Full check, allowing one call in flight per thread.
  const Verdict verdict = VerifyMap(*session->map(), spec_, image->streams,
                                    /*inflight=*/true, options_.perturb);
  session->map()->OnThreadExit();
  tally_.Attempt(1);
  if (verdict.failures > 0) {
    tally_.Fail(at, "post-recovery verification: " + verdict.first_error,
                verdict.failures);
  }
  CheckHeapOrFail(session, &tally_, at);
  result.step_ms = Seconds(step_start, Clock::now()) * 1e3;
  image->report->crashes.push_back(result);
  return result.step_ms / 1e3;
}

// ---------------------------------------------------------------------
// Metrics.

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

const VariantReport* Find(const std::vector<VariantReport>& reports,
                          const std::string& key) {
  for (const VariantReport& r : reports) {
    if (key == r.info->key) return &r;
  }
  return nullptr;
}

template <typename F>
double MedianOf(const std::vector<CrashResult>& crashes, F f) {
  std::vector<double> v;
  for (const CrashResult& c : crashes) v.push_back(f(c));
  return Median(v);
}

std::vector<Metric> EndToEnd(const std::vector<VariantReport>& reports) {
  std::vector<Metric> out;
  double setup = 0;
  for (const VariantReport& r : reports) {
    setup += r.setup.TotalS();
    out.push_back({std::string("tput.") + r.info->key,
                   r.untraced ? r.untraced->mops() : 0, "Mops/s"});
  }
  for (const char* key : {"log_only", "lf_hash"}) {
    const VariantReport* r = Find(reports, key);
    const Measured* m = r->untraced ? &*r->untraced : nullptr;
    out.push_back({std::string("p50_ns.") + key, m ? m->SampledNs(0.50) : 0, "ns"});
    out.push_back({std::string("p99_ns.") + key, m ? m->SampledNs(0.99) : 0, "ns"});
  }
  for (const char* key : {"log_only", "lf_hash"}) {
    out.push_back({std::string("recover_ms.") + key,
                   MedianOf(Find(reports, key)->crashes,
                            [](const CrashResult& c) { return c.recover_ms; }),
                   "ms"});
  }
  for (const char* key : {"log_only", "lf_hash"}) {
    const VariantReport* r = Find(reports, key);
    out.push_back({std::string("heap_B_per_key.") + key,
                   r->untraced ? Ratio(r->untraced->arena_bytes_used,
                                       static_cast<double>(r->untraced->live_keys))
                               : 0,
                   "B/key"});
  }
  out.push_back({"setup_s", setup, "s"});
  return out;
}

std::vector<Metric> PerLayer(const std::vector<VariantReport>& reports) {
  std::vector<Metric> out;
  // maps: spans around every call of the traced share.
  for (const Op op : {Op::kPut, Op::kIncr, Op::kGet, Op::kRemove}) {
    for (const auto& [q, label] : {std::pair{0.50, "p50"}, std::pair{0.99, "p99"}}) {
      for (const VariantReport& r : reports) {
        out.push_back({std::string("maps.") + OpName(op) + "_ns." + label + "." +
                           r.info->key,
                       r.traced ? r.traced->phase.OpNs(op, q) : 0, "ns"});
      }
    }
  }
  // Closed loop: time per call per thread = threads / throughput, from
  // the untraced share.
  auto call_ns = [&](const char* key) {
    const VariantReport* r = Find(reports, key);
    const double mops = r->untraced ? r->untraced->mops() : 0;
    return mops > 0 ? kThreads * 1e3 / mops : 0;
  };
  // Counters of a variant's traced share, per completed call.
  auto counter = [&](const char* key, const std::string& name) {
    const VariantReport* r = Find(reports, key);
    if (!r->traced) return 0.0;
    const auto it = r->traced->counters.find(name);
    return it == r->traced->counters.end() ? 0.0 : it->second;
  };
  auto calls = [&](const char* key) {
    const VariantReport* r = Find(reports, key);
    return r->traced ? static_cast<double>(r->traced->phase.calls) : 0.0;
  };
  auto per_call = [&](const char* key, const std::string& name) {
    return Ratio(counter(key, name), calls(key));
  };

  for (const char* name : {"undo_records", "flit_rearms", "flit_repeat_hits",
                           "elided_fresh", "line_dedup_hits"}) {
    out.push_back({std::string("atlas.") + name + "_per_op",
                   per_call("log_only", std::string("atlas.") + name), "1/op"});
  }
  out.push_back({"atlas.fast_path_ratio",
                 Ratio(counter("log_only", "atlas.fast_path_commits"),
                       counter("log_only", "atlas.ocses_committed")),
                 "ratio"});
  out.push_back({"atlas.seq_leases_per_op",
                 per_call("log_only", "atlas.seq_blocks_leased"), "1/op"});
  out.push_back({"atlas.seq_resyncs_per_op",
                 per_call("log_only", "atlas.seq_resyncs"), "1/op"});
  out.push_back({"atlas.batched_publishes_per_op",
                 per_call("log_only", "atlas.batched_publishes"), "1/op"});
  const VariantReport* log_only = Find(reports, "log_only");
  out.push_back({"atlas.pending_unstable_peak",
                 log_only->traced ? static_cast<double>(
                                        log_only->traced->phase.pending_unstable_peak)
                                  : 0,
                 "count"});
  out.push_back({"atlas.self_ns_per_op", call_ns("log_only") - call_ns("native"), "ns"});

  out.push_back({"flush.lines_per_op", per_call("log_flush", "flush.lines_flushed"), "1/op"});
  out.push_back({"flush.fences_per_op", per_call("log_flush", "flush.fences"), "1/op"});
  out.push_back({"flush.self_ns_per_op", call_ns("log_flush") - call_ns("log_only"), "ns"});

  for (const char* key : {"log_only", "lf_hash"}) {
    const std::string s = std::string(".") + key;
    const double magazine = counter(key, "alloc.magazine_allocs");
    const double shared = counter(key, "alloc.shared_allocs");
    const double refills = counter(key, "alloc.refill_batches");
    out.push_back({"alloc.allocs_per_op" + s, Ratio(magazine + shared, calls(key)), "1/op"});
    out.push_back({"alloc.magazine_hit_ratio" + s, Ratio(magazine, magazine + shared), "ratio"});
    out.push_back({"alloc.refill_batches" + s, per_call(key, "alloc.refill_batches"), "1/op"});
    out.push_back({"alloc.carve_batches" + s, per_call(key, "alloc.carve_batches"), "1/op"});
    out.push_back({"alloc.drain_batches" + s, per_call(key, "alloc.drain_batches"), "1/op"});
    out.push_back({"alloc.remote_frees_per_op" + s, per_call(key, "alloc.remote_frees"), "1/op"});
    out.push_back({"alloc.batch_pop_retry_ratio" + s,
                   Ratio(counter(key, "alloc.batch_pop_retries"), refills), "ratio"});
  }

  for (const char* key : {"skiplist", "lf_hash"}) {
    const std::string s = std::string(".") + key;
    const double retired = counter(key, "lockfree.nodes_retired");
    out.push_back({"lockfree.advance_success_ratio" + s,
                   Ratio(counter(key, "lockfree.epoch_advances"),
                         counter(key, "lockfree.advance_attempts")),
                   "ratio"});
    out.push_back({"lockfree.retired_per_op" + s, per_call(key, "lockfree.nodes_retired"), "1/op"});
    out.push_back({"lockfree.freed_per_retired" + s,
                   Ratio(counter(key, "lockfree.nodes_freed"), retired), "ratio"});
    out.push_back({"lockfree.limbo_peak" + s, counter(key, "lockfree.limbo_peak"), "count"});
  }

  // Recovery and GC: medians over the run's recoveries.
  const std::vector<CrashResult>& crashes = log_only->crashes;
  for (const char* name : {"recovery.scan_us", "recovery.analysis_us",
                           "recovery.rollback_us"}) {
    out.push_back({name,
                   MedianOf(crashes, [&](const CrashResult& c) { return c.phase_us.at(name); }),
                   "us"});
  }
  const std::pair<const char*, std::uint64_t atlas::RecoveryStats::*> recovery_counts[] = {
      {"recovery.entries_scanned", &atlas::RecoveryStats::entries_scanned},
      {"recovery.stores_undone", &atlas::RecoveryStats::stores_undone},
      {"recovery.ocses_incomplete", &atlas::RecoveryStats::ocses_incomplete},
      {"recovery.ocses_cascaded", &atlas::RecoveryStats::ocses_cascaded},
  };
  for (const auto& [name, field] : recovery_counts) {
    out.push_back({name, MedianOf(crashes, [&](const CrashResult& c) {
                     return static_cast<double>(c.recovery.*field);
                   }),
                   "count"});
  }
  const std::pair<const char*, std::uint64_t pheap::GcStats::*> gc_counts[] = {
      {"gc.live_objects", &pheap::GcStats::live_objects},
      {"gc.free_blocks", &pheap::GcStats::free_blocks},
      {"gc.invalid_pointers", &pheap::GcStats::invalid_pointers},
  };
  for (const char* key : {"log_only", "lf_hash"}) {
    const std::string s = std::string(".") + key;
    const std::vector<CrashResult>& c = Find(reports, key)->crashes;
    for (const char* name : {"gc.mark_us", "gc.sweep_us"}) {
      out.push_back({name + s,
                     MedianOf(c, [&](const CrashResult& r) { return r.phase_us.at(name); }),
                     "us"});
    }
    for (const auto& [name, field] : gc_counts) {
      out.push_back({name + s, MedianOf(c, [&](const CrashResult& r) {
                       return static_cast<double>(r.gc.*field);
                     }),
                     "count"});
    }
  }

  double open_s = 0;
  double close_s = 0;
  double prepopulate_s = 0;
  double overhead = 0;
  int overhead_n = 0;
  for (const VariantReport& r : reports) {
    open_s += r.setup.OpenS();
    close_s += Median(r.setup.close_s);
    prepopulate_s += r.setup.PrepopulateS();
    if (r.untraced && r.traced && r.untraced->mops() > 0) {
      overhead += (1 - r.traced->mops() / r.untraced->mops()) * 100;
      ++overhead_n;
    }
  }
  out.push_back({"session.open_ms", open_s * 1e3, "ms"});
  out.push_back({"session.close_ms", close_s * 1e3, "ms"});
  out.push_back({"session.prepopulate_s", prepopulate_s, "s"});
  out.push_back({"bench.trace_overhead_pct", overhead_n ? overhead / overhead_n : 0, "%"});
  return out;
}

std::string MeasuredJson(const Measured& m) {
  JsonObject o;
  o.Add("sessions", m.sessions)
      .Add("slices", static_cast<std::uint64_t>(m.slices.size()))
      .Add("calls", m.phase.calls)
      .Add("seconds", m.phase.seconds)
      .Add("mops_overall", m.phase.mops())
      .Add("mops_slice_median", m.mops())
      .Add("counted_slices", static_cast<std::uint64_t>(Counted(m.SliceSteal()).size()))
      .Add("all_slices_mops_median", [&] {
        std::vector<double> v;
        for (const Phase& slice : m.slices) v.push_back(slice.mops());
        return Median(v);
      }())
      .Add("net_mops_slice_median",
           m.SliceMedian([](const Phase& p) { return p.net_mops(); }))
      .Add("run_queue_wait_share", Ratio(m.phase.wait_seconds / kThreads, m.phase.seconds))
      .Add("host_steal_share", m.phase.steal_share())
      .Add("latency_samples", m.phase.sampled.count())
      .Add("p50_ns_slice_median", m.SampledNs(0.5))
      .Add("p99_ns_slice_median", m.SampledNs(0.99))
      .Add("live_keys", m.live_keys)
      .Add("arena_bytes_used", m.arena_bytes_used)
      .Add("arena_fill", m.arena_fill);
  for (int op = 0; op < kOpCount; ++op) {
    o.Add(std::string(OpName(static_cast<Op>(op))) + "_spans",
          m.phase.per_op[op].count());
  }
  std::string slice_mops = "[";
  for (std::size_t i = 0; i < m.slices.size(); ++i) {
    slice_mops += (i > 0 ? ", " : "") + Num(m.slices[i].mops());
  }
  o.Raw("slice_mops", slice_mops + "]");
  std::string slice_steal = "[";
  for (std::size_t i = 0; i < m.slices.size(); ++i) {
    slice_steal += (i > 0 ? ", " : "") + Num(m.slices[i].steal_share());
  }
  o.Raw("slice_steal", slice_steal + "]");
  JsonObject counters;
  for (const auto& [name, value] : m.counters) {
    if (value != 0) counters.Add(name, value);
  }
  return o.Raw("counters", counters.Str()).Str();
}

std::string Bench::Report(const std::vector<VariantReport>& reports) const {
  JsonObject env;
  env.Add("build_type", TSP_BUILD_TYPE)
      .Add("nproc", static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN)))
      .Add("git_rev", options_.rev)
      .Add("flush_instruction", FlushInstructionName(BestFlushInstruction()))
      .Add("compiler", __VERSION__)
      .Add("seed", options_.seed)
      .Add("threads", kThreads)
      .Add("arena_bytes", static_cast<std::uint64_t>(kArenaBytes))
      .Add("runtime_area_bytes", static_cast<std::uint64_t>(kRuntimeAreaBytes))
      .Add("bucket_count", kBucketCount)
      .Add("buckets_per_lock", kBucketsPerLock)
      .Add("seconds", options_.seconds)
      .Add("seconds_per_variant", VariantSeconds())
      .Add("sample_every", kSampleEvery)
      .Add("setup_repeats", kSetupRepeats)
      .Add("sessions", spec_.sessions)
      .Add("slice_seconds", kSliceSeconds)
      .Add("max_steal", kMaxSteal)
      .Add("recoveries", kRecoveries)
      .Add("smoke", options_.smoke)
      .Add("trace", options_.trace);

  JsonObject variants;
  for (const VariantReport& r : reports) {
    JsonObject v;
    v.Add("attempted", r.attempted).Add("failed", r.failed);
    v.Add("setup_s_median", r.setup.TotalS());
    if (r.untraced) v.Raw("untraced", MeasuredJson(*r.untraced));
    if (r.traced) v.Raw("traced", MeasuredJson(*r.traced));
    std::string recoveries = "[";
    for (std::size_t i = 0; i < r.crashes.size(); ++i) {
      const CrashResult& c = r.crashes[i];
      JsonObject co;
      co.Add("kill_at", c.kill_at)
          .Add("calls_before_kill", c.calls_before_kill)
          .Add("recover_ms", c.recover_ms)
          .Add("step_ms", c.step_ms)
          .Add("cpu", c.cpu)
          .Add("ocses_incomplete", c.recovery.ocses_incomplete)
          .Add("stores_undone", c.recovery.stores_undone)
          .Add("gc_live_objects", c.gc.live_objects);
      recoveries += (i > 0 ? ", " : "") + co.Str();
    }
    v.Raw("recoveries", recoveries + "]");
    variants.Raw(r.info->key, v.Str());
  }

  JsonObject metrics;
  for (const Metric& m : options_.trace ? PerLayer(reports) : EndToEnd(reports)) {
    metrics.Raw(m.name, JsonObject().Add("value", m.value).Add("unit", m.unit).Str());
  }

  JsonObject out;
  out.Add("workload", spec_.name)
      .Raw("env", env.Str())
      .Add("correct", tally_.failed() == 0)
      .Add("attempted", tally_.attempted())
      .Add("failed", tally_.failed())
      .Raw("failures", tally_.MessagesJson())
      .Raw("variants", variants.Str())
      .Raw("metrics", metrics.Str());
  return out.Str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload t1-paper|t1-hot|"
               "read-mostly --seed N --seconds S --trace 0|1 [--smoke] "
               "[--perturb] [--rev REV]\n",
               why);
  return 2;
}

int Main(int argc, char** argv) {
  Options options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--smoke") {
      options.smoke = true;
      continue;
    }
    if (flag == "--perturb") {
      options.perturb = true;
      continue;
    }
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const std::string value = argv[++i];
    if (flag == "--workload") {
      options.workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      options.seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      options.trace = value == "1";
    } else if (flag == "--rev") {
      options.rev = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  WorkloadSpec spec;
  if (!LookupWorkload(options.workload, options.smoke, &spec)) {
    return Usage(("unknown workload '" + options.workload + "'").c_str());
  }
  if (!(options.seconds > 0)) return Usage("--seconds must be positive");
  if (std::string(TSP_BUILD_TYPE) != "Release") {
    std::fprintf(stderr, "perfbench: refusing to report from a %s build; "
                         "configure with -DCMAKE_BUILD_TYPE=Release\n",
                 TSP_BUILD_TYPE);
    return 3;
  }
  // The heaps are shared memory: one fresh arena is live at a time (two
  // while a crashed writer's heap is being recovered), each sparse.
  const std::uint64_t available = MemAvailableBytes();
  if (available < kArenaBytes + kRuntimeAreaBytes) {
    std::fprintf(stderr, "perfbench: %llu MiB of memory available, the "
                         "arena needs %llu MiB\n",
                 static_cast<unsigned long long>(available >> 20),
                 static_cast<unsigned long long>(
                     (kArenaBytes + kRuntimeAreaBytes) >> 20));
    return 4;
  }

  Bench bench(options, spec);
  std::vector<VariantReport> reports(kVariants.size());
  for (std::size_t v = 0; v < kVariants.size(); ++v) reports[v].info = &kVariants[v];
  bench.Run(&reports);
  std::printf("%s\n", bench.Report(reports).c_str());
  return 0;
}

}  // namespace
}  // namespace tsp::perfbench

int main(int argc, char** argv) { return tsp::perfbench::Main(argc, argv); }
