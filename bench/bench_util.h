// Copyright 2026 The TSP Authors.
// Shared helpers for the benchmark binaries: the build-type stamp and
// the one JSON emitter every custom-main bench writes its results with.

#ifndef TSP_BENCH_BENCH_UTIL_H_
#define TSP_BENCH_BENCH_UTIL_H_

#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <string>
#include <system_error>
#include <utility>
#include <vector>

#include "common/findings.h"
#include "common/flush.h"

namespace tsp::bench {

/// CMake build type this binary was compiled with ("Release",
/// "RelWithDebInfo", "Debug", ...). Benchmarks stamp it into their JSON
/// so CI can reject numbers produced by unoptimized builds.
inline const char* BuildType() {
#ifdef TSP_BUILD_TYPE
  return TSP_BUILD_TYPE;
#else
  return "unknown";
#endif
}

/// The fields of one JSON object, in the order they are added. Raw
/// values are JSON already: a registry snapshot, a nested object or an
/// array.
class JsonObject {
 public:
  JsonObject& Raw(const char* key, const std::string& json) {
    std::string field = "\"";
    field.append(key).append("\": ").append(json);
    fields_.push_back(std::move(field));
    return *this;
  }
  JsonObject& Str(const char* key, const std::string& value) {
    std::string quoted = "\"";
    quoted.append(report::JsonEscape(value)).append("\"");
    return Raw(key, quoted);
  }
  JsonObject& Int(const char* key, long long value) {
    return Raw(key, std::to_string(value));
  }
  JsonObject& Num(const char* key, double value) {
    char text[64];
    std::snprintf(text, sizeof(text), "%.6f", value);
    return Raw(key, text);
  }
  JsonObject& Bool(const char* key, bool value) {
    return Raw(key, value ? "true" : "false");
  }
  /// Adds every field of `other`, in its order.
  JsonObject& Extend(const JsonObject& other) {
    fields_.insert(fields_.end(), other.fields_.begin(), other.fields_.end());
    return *this;
  }

  /// The object with its fields joined by `separator`.
  std::string str(const char* separator = ", ") const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      out.append(i == 0 ? "" : separator).append(fields_[i]);
    }
    return out.append("}");
  }

 private:
  std::vector<std::string> fields_;
};

/// A JSON array of `items` (each JSON already), one item per line.
inline std::string JsonArray(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out.append(i == 0 ? "\n    " : ",\n    ").append(items[i]);
  }
  return out.append("\n  ]");
}

/// Writes `fields` to `path` as one JSON object, after the environment
/// stamp every bench result carries: `benchmark`, `build_type`, `nproc`
/// and `flush_instruction`. Creates missing parent directories. On
/// failure says why on stderr and returns false.
inline bool WriteJson(const std::string& path, const char* benchmark,
                      const JsonObject& fields) {
  const std::filesystem::path parent =
      std::filesystem::path(path).parent_path();
  std::error_code error;
  if (!parent.empty()) std::filesystem::create_directories(parent, error);
  if (error) {
    std::fprintf(stderr, "cannot create %s: %s\n", parent.c_str(),
                 error.message().c_str());
    return false;
  }
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s: %s\n", path.c_str(),
                 std::strerror(errno));
    return false;
  }
  const std::string json =
      JsonObject()
          .Str("benchmark", benchmark)
          .Str("build_type", BuildType())
          .Int("nproc", sysconf(_SC_NPROCESSORS_ONLN))
          .Str("flush_instruction",
               FlushInstructionName(BestFlushInstruction()))
          .Extend(fields)
          .str(",\n  ");
  std::fprintf(f, "%s\n", json.c_str());
  std::fclose(f);
  std::printf("json results written to %s\n", path.c_str());
  return true;
}

}  // namespace tsp::bench

#endif  // TSP_BENCH_BENCH_UTIL_H_
