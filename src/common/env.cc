#include "src/common/env.h"

#include <cstdio>
#include <cstdlib>
#include <initializer_list>
#include <string_view>
#include <utility>

namespace cclbt::env {

namespace {

// Stores the value paired with `v` in `choices`; false if `v` is not one.
template <typename T>
bool Choose(std::string_view v, std::initializer_list<std::pair<std::string_view, T>> choices,
            T* out) {
  for (const auto& [name, value] : choices) {
    if (v == name) {
      *out = value;
      return true;
    }
  }
  return false;
}

// A decimal integer >= 1: digits only (no sign, no spaces), no overflow.
bool ParsePositive(std::string_view v, uint64_t* out) {
  uint64_t n = 0;
  for (char c : v) {
    if (c < '0' || c > '9' || n > (UINT64_MAX - static_cast<uint64_t>(c - '0')) / 10) {
      return false;
    }
    n = n * 10 + static_cast<uint64_t>(c - '0');
  }
  *out = n;
  return n != 0;
}

}  // namespace

ParseResult Parse(const Lookup& lookup) {
  ParseResult result;
  Snapshot& s = result.snapshot;
  // The one parser of variable `name`: `store` writes a well-formed value
  // into the snapshot and returns false on a malformed one. Unset and empty
  // leave the default; the first malformed variable is the error.
  auto parse = [&](const char* name, const char* accepted, auto&& store) {
    const char* value = lookup(name);
    if (result.error.empty() && value != nullptr && value[0] != '\0' && !store(value)) {
      result.error = std::string(name) + "=\"" + value + "\" is malformed; accepted values: " +
                     accepted + " (empty means unset)";
    }
  };
  auto flag = [](bool* out) {
    return [out](std::string_view v) { return Choose<bool>(v, {{"0", false}, {"1", true}}, out); };
  };
  parse("CCL_BACKEND", "adr | adr_optane | eadr | cxl | cxlmem", [&s](std::string_view v) {
    return Choose<Backend>(v,
                           {{"adr", Backend::kAdr},
                            {"adr_optane", Backend::kAdr},
                            {"eadr", Backend::kEadr},
                            {"cxl", Backend::kCxl},
                            {"cxlmem", Backend::kCxl}},
                           &s.backend);
  });
  parse("CCL_CXL_PAGE", "a power of two in [256, 4096]", [&s](std::string_view v) {
    uint64_t page = 0;
    if (!ParsePositive(v, &page) || (page & (page - 1)) != 0 || page < 256 || page > 4096) {
      return false;
    }
    s.cxl_page = page;
    return true;
  });
  parse("CCL_PMCHECK", "0 | 1", flag(&s.pmcheck));
  parse("CCL_LOCKCHECK", "0 | 1", flag(&s.lockcheck));
  parse("CCL_SIMD", "off | scalar | 0 | sse2 | avx2", [&s](std::string_view v) {
    return Choose<int>(v, {{"off", 0}, {"scalar", 0}, {"0", 0}, {"sse2", 1}, {"avx2", 2}},
                       &s.simd_level);
  });
  parse("CCL_TRACE", "0 | 1", flag(&s.trace));
  parse("CCL_DUMP", "a path prefix", [&s](std::string_view v) {
    s.dump_prefix = v;
    return true;
  });
  parse("CCL_BENCH_SCALE", "a positive decimal integer",
        [&s](std::string_view v) { return ParsePositive(v, &s.bench_scale); });
  // The retired CCL_METRICS is looked up only to be refused: its dump is now
  // the epoch section of the CCL_DUMP file.
  if (const char* metrics = lookup("CCL_METRICS");
      result.error.empty() && metrics != nullptr && metrics[0] != '\0') {
    result.error = std::string("CCL_METRICS=\"") + metrics +
                   "\" is retired; set CCL_DUMP=<prefix> instead (one .pmdump per run)";
  }
  if (result.error.empty() && s.trace && s.dump_prefix.empty()) {
    result.error =
        "CCL_TRACE=1 needs CCL_DUMP=<prefix>: the event rings and heatmap are written into "
        "the run's .pmdump";
  }
  return result;
}

const Snapshot& Get() {
  static const Snapshot snapshot = [] {
    ParseResult parsed = Parse([](const char* name) { return std::getenv(name); });
    if (!parsed.error.empty()) {
      std::fprintf(stderr, "cclbt: %s\n", parsed.error.c_str());
      std::exit(2);
    }
    return parsed.snapshot;
  }();
  return snapshot;
}

}  // namespace cclbt::env
