// The one reader of the process environment: every CCL_* variable is parsed
// here, once per process, into a typed Snapshot, and the modules that honor
// a variable read the snapshot (lint rule R8 bans getenv elsewhere). README.md
// "Environment variables" tables the variables, their values and defaults.
//
// One precedence rule covers every knob: an explicit in-code choice wins (a
// non-kAuto DeviceConfig::backend, a checker flag set to true in
// DeviceConfig, simd::ForceLevel); otherwise the environment fills the
// default; otherwise the built-in default applies.
//
// Grammar: an empty value means unset. A malformed value is a hard error
// naming the variable and the values it accepts, never a silent default. So
// is a combination that would silently do nothing: CCL_TRACE=1 without
// CCL_DUMP, and the retired CCL_METRICS (replaced by CCL_DUMP).
#ifndef SRC_COMMON_ENV_H_
#define SRC_COMMON_ENV_H_

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace cclbt::env {

// CCL_BACKEND. This library sits below pmsim, so the selector has its own
// enum; pmsim::ResolveMediaBackend maps it to a MediaBackend.
enum class Backend : uint8_t { kUnset, kAdr, kEadr, kCxl };

struct Snapshot {
  Backend backend = Backend::kUnset;  // CCL_BACKEND
  size_t cxl_page = 4096;             // CCL_CXL_PAGE: media unit of CCL_BACKEND=cxl
  bool pmcheck = false;               // CCL_PMCHECK
  bool lockcheck = false;             // CCL_LOCKCHECK
  int simd_level = -1;                // CCL_SIMD: a simd::Level value, -1 = detect
  bool trace = false;                 // CCL_TRACE: event rings + heatmap in the dump
  std::string dump_prefix;            // CCL_DUMP: .pmdump path prefix, "" = no dump
  uint64_t bench_scale = 0;           // CCL_BENCH_SCALE: 0 = each bench's default
};

struct ParseResult {
  Snapshot snapshot;  // meaningful only when error is empty
  std::string error;  // names the first malformed variable (in Snapshot order)
};

// Returns a variable's value, or nullptr when it is unset.
using Lookup = std::function<const char*(const char* name)>;

// Pure: builds the snapshot from `lookup` alone (tests call it directly).
ParseResult Parse(const Lookup& lookup);

// The process snapshot: Parse over the real environment on first use. A
// malformed variable prints the error to stderr and exits with status 2.
const Snapshot& Get();

}  // namespace cclbt::env

#endif  // SRC_COMMON_ENV_H_
