// Copyright 2026 The TSP Authors.
// The benchmark's three workloads as deterministic per-thread op
// streams, with the models that predict every result and the
// verifiers that check a map against them.
//
// Each worker thread t owns one stream. A stream is a pure function of
// (workload, seed, t): Draw() yields the next call and the result it
// must return, Apply() records that the call completed. A parent that
// knows how many calls each thread of a SIGKILLed writer completed
// rebuilds the exact expected map by replaying the streams, so the
// crash verifier is as strict as the clean one, allowing only the one
// call per thread that may have been in flight.

#ifndef TSP_PERFBENCH_WORKLOADS_H_
#define TSP_PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/random.h"
#include "maps/map_interface.h"

namespace tsp::perfbench {

/// Closed-loop worker threads (one per core of the 4-CPU host).
inline constexpr int kThreads = 4;

enum class Op { kPut = 0, kIncr = 1, kGet = 2, kRemove = 3 };
inline constexpr int kOpCount = 4;
const char* OpName(Op op);

enum class Kind { kT1, kReadMostly };

struct WorkloadSpec {
  std::string name;
  Kind kind = Kind::kT1;
  /// t1-*: |H|, the contended high key range.
  std::uint64_t high_range = 0;
  /// read-mostly: keys per thread partition (half present at start).
  std::uint64_t keys_per_thread = 0;
  /// t1-paper: calls per round, each round on a fresh empty map, so
  /// most increments insert as in the paper's runs; 0 = time-bound
  /// sessions.
  std::uint64_t round_calls = 0;
  /// Time-bound sessions: the fresh heaps a variant's time share is
  /// spread over. How fast a heap runs depends on where its pages land,
  /// so more heaps give a steadier median; read-mostly's set-up is
  /// costly, so it uses fewer.
  int sessions = 3;
  /// Calls per worker in the crashed writer's run; worker 0 is killed
  /// in the last twentieth of them.
  std::uint64_t crash_calls = 0;
};

/// Returns false when `name` is not a workload. `smoke` shrinks the
/// key ranges so every workload runs in well under a second.
bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* out);

/// One map call and the result it must return.
struct Step {
  Op op = Op::kGet;
  std::uint64_t key = 0;
  /// Put: the value written.
  std::uint64_t value = 0;
  /// Get: the value expected (nullopt = absent).
  std::optional<std::uint64_t> expect;
  /// read-mostly: the key's index in its thread's partition.
  std::uint32_t local = 0;
};

/// Issues `step` against `map`; returns false when the call's result
/// contradicts the model.
bool Execute(maps::Map* map, const Step& step);

/// A worker's deterministic op stream and the model of the keys it owns.
class Stream {
 public:
  Stream(const WorkloadSpec& spec, std::uint64_t seed, int thread);

  /// Draws the next call (advances the generator, not the model).
  Step Draw();
  /// Records that `step` (the last Draw) completed.
  void Apply(const Step& step);
  /// Calls completed so far.
  std::uint64_t done() const { return done_; }

  /// Keys a set-up phase must insert (with PrepopulateValue) before the
  /// stream's first call; empty for the t1 workloads.
  std::vector<std::uint64_t> PrepopulateKeys() const;
  static std::uint64_t PrepopulateValue(std::uint64_t key);

  // t1: increments completed (the second call of each iteration).
  std::uint64_t increments_done() const { return (done_ + 1) / 3; }

  // read-mostly: the model of the thread's partition.
  std::optional<std::uint64_t> ValueAt(std::uint32_t local) const;
  std::uint64_t present_count() const { return present_; }
  std::uint32_t present_local(std::uint64_t i) const { return order_[i]; }
  std::uint64_t KeyOf(std::uint32_t local) const;

 private:
  const WorkloadSpec* spec_;
  int thread_;
  Random rng_;
  std::uint64_t done_ = 0;
  // read-mostly: order_[0, present_) are the present locals, the rest
  // absent; pos_ inverts order_; values_ holds the present values.
  std::vector<std::uint32_t> order_;
  std::vector<std::uint32_t> pos_;
  std::vector<std::uint64_t> values_;
  std::uint64_t present_ = 0;
};

/// First key of the read-mostly key space (t1 keys sit below it).
inline constexpr std::uint64_t kReadMostlyKeyBase = 1ULL << 24;

/// Outcome of checking a quiesced map against its streams.
struct Verdict {
  std::uint64_t failures = 0;
  std::uint64_t live_keys = 0;
  std::string first_error;

  void Fail(const std::string& what) {
    if (failures++ == 0) first_error = what;
  }
};

/// Checks `map` against `streams`. With `inflight`, each thread may
/// also have completed the call its stream would draw next (the crash
/// case); the streams are not advanced. `perturb` corrupts one
/// expected value, to show that the verifier catches it.
Verdict VerifyMap(const maps::Map& map, const WorkloadSpec& spec,
                  const std::vector<Stream>& streams, bool inflight, bool perturb);

}  // namespace tsp::perfbench

#endif  // TSP_PERFBENCH_WORKLOADS_H_
