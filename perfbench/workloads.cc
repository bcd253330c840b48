#include "workloads.h"

#include <utility>

#include "workload/workload.h"

namespace tsp::perfbench {
namespace {

std::uint64_t Mix(std::uint64_t x) {
  x += 0x9E3779B97F4A7C15ULL;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
  return x ^ (x >> 31);
}

std::string Describe(std::optional<std::uint64_t> v) {
  return v ? std::to_string(*v) : std::string("absent");
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPut:
      return "put";
    case Op::kIncr:
      return "incr";
    case Op::kGet:
      return "get";
    case Op::kRemove:
      return "remove";
  }
  return "unknown";
}

bool LookupWorkload(const std::string& name, bool smoke, WorkloadSpec* out) {
  // t1-paper is §5.1 with the paper's |H| = 2^20, in rounds of the
  // paper's 1.2M iterations (8 threads x 150k) from an empty map; t1-hot
  // keeps H inside the per-core caches; read-mostly pre-populates 2^20
  // keys (2^21-key space, half present), one partition per thread.
  WorkloadSpec spec;
  spec.name = name;
  const std::uint64_t scale = smoke ? 256 : 1;
  if (name == "t1-paper") {
    spec.high_range = (1u << 20) / scale;
    spec.round_calls = 3 * 1200000 / scale;
    spec.crash_calls = spec.round_calls / kThreads;
  } else if (name == "t1-hot") {
    spec.high_range = (1u << 10) / scale;
    spec.sessions = 12;
    spec.crash_calls = 3 * 1200000 / scale / kThreads;
  } else if (name == "read-mostly") {
    spec.kind = Kind::kReadMostly;
    spec.keys_per_thread = (1u << 21) / scale / kThreads;
    spec.crash_calls = 100000 / scale;
  } else {
    return false;
  }
  *out = spec;
  return true;
}

bool Execute(maps::Map* map, const Step& step) {
  switch (step.op) {
    case Op::kPut:
      map->Put(step.key, step.value);
      return true;
    case Op::kIncr:
      return map->IncrementBy(step.key, 1) >= 1;
    case Op::kGet:
      return map->Get(step.key) == step.expect;
    case Op::kRemove:
      return map->Remove(step.key);
  }
  return false;
}

Stream::Stream(const WorkloadSpec& spec, std::uint64_t seed, int thread)
    // Same per-thread seeding as workload::RunMapWorkload, so a t1
    // stream is the library's §5.1 iteration stream for that seed.
    : spec_(&spec),
      thread_(thread),
      rng_(seed * 0x9E3779B97F4A7C15ULL + static_cast<std::uint64_t>(thread)) {
  if (spec.kind != Kind::kReadMostly) return;
  const std::uint64_t n = spec.keys_per_thread;
  order_.resize(n);
  pos_.resize(n);
  values_.assign(n, 0);
  for (std::uint32_t i = 0; i < n; ++i) order_[i] = i;
  Random layout(Mix(seed) ^ Mix(static_cast<std::uint64_t>(thread) + 1));
  for (std::uint64_t i = n - 1; i > 0; --i) {
    std::swap(order_[i], order_[layout.Uniform(i + 1)]);
  }
  for (std::uint32_t i = 0; i < n; ++i) pos_[order_[i]] = i;
  present_ = n / 2;
  for (std::uint64_t i = 0; i < present_; ++i) {
    values_[order_[i]] = PrepopulateValue(KeyOf(order_[i]));
  }
}

std::uint64_t Stream::KeyOf(std::uint32_t local) const {
  return kReadMostlyKeyBase + static_cast<std::uint64_t>(local) * kThreads +
         static_cast<std::uint64_t>(thread_);
}

std::uint64_t Stream::PrepopulateValue(std::uint64_t key) { return Mix(key); }

std::vector<std::uint64_t> Stream::PrepopulateKeys() const {
  std::vector<std::uint64_t> keys;
  keys.reserve(present_);
  for (std::uint64_t i = 0; i < present_; ++i) keys.push_back(KeyOf(order_[i]));
  return keys;
}

std::optional<std::uint64_t> Stream::ValueAt(std::uint32_t local) const {
  if (pos_[local] >= present_) return std::nullopt;
  return values_[local];
}

Step Stream::Draw() {
  Step step;
  if (spec_->kind == Kind::kT1) {
    // The three atomic, isolated steps of one §5.1 iteration.
    const std::uint64_t iteration = done_ / 3 + 1;
    switch (done_ % 3) {
      case 0:
        step.op = Op::kPut;
        step.key = workload::C1Key(thread_);
        step.value = iteration;
        break;
      case 1:
        step.op = Op::kIncr;
        step.key = workload::HighKey(rng_.Uniform(spec_->high_range));
        break;
      default:
        step.op = Op::kPut;
        step.key = workload::C2Key(thread_);
        step.value = iteration;
        break;
    }
    return step;
  }
  // read-mostly: 90% Get of any partition key, 5% Put of an absent key,
  // 5% Remove of a present key.
  const std::uint64_t n = spec_->keys_per_thread;
  const std::uint64_t roll = rng_.Uniform(100);
  if (roll >= 95 && present_ > 0) {
    step.op = Op::kRemove;
    step.local = order_[rng_.Uniform(present_)];
  } else if (roll >= 90 && present_ < n) {
    step.op = Op::kPut;
    step.local = order_[present_ + rng_.Uniform(n - present_)];
  } else {
    step.op = Op::kGet;
    step.local = static_cast<std::uint32_t>(rng_.Uniform(n));
    step.expect = ValueAt(step.local);
  }
  step.key = KeyOf(step.local);
  if (step.op == Op::kPut) step.value = Mix(step.key ^ Mix(done_ + 1));
  return step;
}

void Stream::Apply(const Step& step) {
  ++done_;
  if (spec_->kind != Kind::kReadMostly) return;
  const std::uint32_t at = pos_[step.local];
  if (step.op == Op::kPut) {
    values_[step.local] = step.value;
    const std::uint32_t other = order_[present_];
    std::swap(order_[at], order_[present_]);
    pos_[step.local] = static_cast<std::uint32_t>(present_);
    pos_[other] = at;
    ++present_;
  } else if (step.op == Op::kRemove) {
    --present_;
    const std::uint32_t other = order_[present_];
    std::swap(order_[at], order_[present_]);
    pos_[step.local] = static_cast<std::uint32_t>(present_);
    pos_[other] = at;
  }
}

namespace {

Verdict VerifyT1(const maps::Map& map, const WorkloadSpec& spec,
                 const std::vector<Stream>& streams, bool inflight, bool perturb) {
  Verdict verdict;
  const workload::InvariantReport report =
      workload::CheckMapInvariants(map, kThreads);
  if (!report.ok) verdict.Fail("Eq. (1)/(2): " + report.ToString());

  map.ForEach([&](std::uint64_t key, std::uint64_t) {
    ++verdict.live_keys;
    const bool counter = key < 2 * static_cast<std::uint64_t>(kThreads);
    const bool high = key >= workload::HighKey(0) &&
                      key < workload::HighKey(spec.high_range);
    if (!counter && !high) {
      verdict.Fail("key " + std::to_string(key) + " outside L and H");
    }
  });

  // Every completed call is durable; an in-flight one may or may not be.
  std::uint64_t high_lo = 0;
  std::uint64_t high_hi = 0;
  for (int t = 0; t < kThreads; ++t) {
    const Stream& stream = streams[t];
    const std::uint64_t d = stream.done();
    std::uint64_t c1 = map.Get(workload::C1Key(t)).value_or(0);
    const std::uint64_t c2 = map.Get(workload::C2Key(t)).value_or(0);
    if (perturb && t == 0) ++c1;
    bool matched = false;
    for (std::uint64_t n = d; n <= d + (inflight ? 1 : 0); ++n) {
      matched |= c1 == (n + 2) / 3 && c2 == n / 3;
    }
    if (!matched) {
      verdict.Fail("thread " + std::to_string(t) + " after " +
                   std::to_string(d) + " calls: c1=" + std::to_string(c1) +
                   " c2=" + std::to_string(c2));
    }
    high_lo += stream.increments_done();
    high_hi += stream.increments_done() + (inflight && d % 3 == 1 ? 1 : 0);
  }
  if (report.sum_high < high_lo || report.sum_high > high_hi) {
    verdict.Fail("sum over H is " + std::to_string(report.sum_high) +
                 ", completed increments " + std::to_string(high_lo) +
                 ".." + std::to_string(high_hi));
  }
  return verdict;
}

Verdict VerifyReadMostly(const maps::Map& map, const WorkloadSpec& spec,
                         const std::vector<Stream>& streams, bool inflight,
                         bool perturb) {
  Verdict verdict;
  const std::uint64_t n = spec.keys_per_thread;
  const std::uint64_t space = n * kThreads;
  std::vector<std::optional<Step>> next(kThreads);
  if (inflight) {
    for (int t = 0; t < kThreads; ++t) {
      Stream copy = streams[t];
      next[t] = copy.Draw();
    }
  }
  std::vector<std::uint8_t> seen(space, 0);
  map.ForEach([&](std::uint64_t key, std::uint64_t value) {
    ++verdict.live_keys;
    const std::uint64_t index = key - kReadMostlyKeyBase;
    if (key < kReadMostlyKeyBase || index >= space) {
      verdict.Fail("key " + std::to_string(key) + " outside the key space");
      return;
    }
    seen[index] = 1;
    const int t = static_cast<int>(index % kThreads);
    const auto local = static_cast<std::uint32_t>(index / kThreads);
    std::optional<std::uint64_t> want = streams[t].ValueAt(local);
    if (perturb && want && t == 0 && local == streams[0].present_local(0)) {
      ++*want;
    }
    if (value == want) return;
    const std::optional<Step>& step = next[t];
    if (step && step->local == local && step->op == Op::kPut &&
        value == step->value) {
      return;
    }
    verdict.Fail("key " + std::to_string(key) + " holds " +
                 std::to_string(value) + ", model " + Describe(want));
  });
  for (int t = 0; t < kThreads; ++t) {
    const Stream& stream = streams[t];
    for (std::uint64_t i = 0; i < stream.present_count(); ++i) {
      const std::uint32_t local = stream.present_local(i);
      if (seen[local * static_cast<std::uint64_t>(kThreads) + t]) continue;
      const std::optional<Step>& step = next[t];
      if (step && step->local == local && step->op == Op::kRemove) continue;
      verdict.Fail("key " + std::to_string(stream.KeyOf(local)) +
                   " missing, model " + Describe(stream.ValueAt(local)));
    }
  }
  return verdict;
}

}  // namespace

Verdict VerifyMap(const maps::Map& map, const WorkloadSpec& spec,
                  const std::vector<Stream>& streams, bool inflight, bool perturb) {
  return spec.kind == Kind::kT1
             ? VerifyT1(map, spec, streams, inflight, perturb)
             : VerifyReadMostly(map, spec, streams, inflight, perturb);
}

}  // namespace tsp::perfbench
