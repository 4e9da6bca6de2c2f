// Shared plumbing for the per-figure/table benchmark binaries.
//
// Every binary registers its sweep as google-benchmark instances (one row
// per configuration) and reports the modeled metrics as counters:
//   Mops    modeled throughput (virtual time; see DESIGN.md §1)
//   XBI     XBI-amplification (media bytes / user bytes)
//   CLI     CLI-amplification (XPBuffer bytes / user bytes)
// plus experiment-specific counters. Wall time shown by the harness is the
// host execution time and is NOT the reported metric.
//
// Scaling: the paper uses 50 M warm + 50 M op datasets; binaries default to
// a laptop-friendly scale and honor CCL_BENCH_SCALE (number of measured ops;
// warm keys scale with it) so the full-size runs remain possible.
#ifndef BENCH_BENCH_COMMON_H_
#define BENCH_BENCH_COMMON_H_

#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "src/bench/driver.h"
#include "src/common/env.h"
#include "src/pmsim/media_model.h"
#include "src/trace/component.h"

namespace cclbt::bench {

// A named persistence-domain configuration for backend-parameterized benches
// (DESIGN.md §14): the MediaBackend plus the unit/buffer geometry that
// defines it. Applied to a DeviceConfig before Runtime construction.
struct BackendSpec {
  std::string name;  // row segment, e.g. "adr", "eadr", "cxl4096"
  pmsim::MediaBackend backend = pmsim::MediaBackend::kAdrOptane;
  size_t unit_bytes = 0;    // media-unit override (0 = DeviceConfig default)
  size_t buffer_bytes = 0;  // buffer-capacity override (0 = default)
  bool crash_tracking = true;
};

inline void ApplyBackendSpec(const BackendSpec& spec, pmsim::DeviceConfig& device) {
  device.backend = spec.backend;
  if (spec.unit_bytes != 0) {
    device.xpline_bytes = spec.unit_bytes;
  }
  if (spec.buffer_bytes != 0) {
    device.xpbuffer_bytes = spec.buffer_bytes;
  }
  device.crash_tracking = spec.crash_tracking;
}

// The backend sweep for bench_backend_matrix: the ADR/Optane baseline, the
// flush-free eADR domain, and page-granular CXL-mem at 1 KB and 4 KB units
// (buffer capacity held at 64 media units, as in bench_extra_cxl_pagesize).
inline std::vector<BackendSpec> MatrixBackends() {
  std::vector<BackendSpec> specs;
  specs.push_back({"adr", pmsim::MediaBackend::kAdrOptane, 0, 0, true});
  specs.push_back({"eadr", pmsim::MediaBackend::kEadr, 0, 0, true});
  specs.push_back({"cxl1024", pmsim::MediaBackend::kCxlMem, 1024, 64 * 1024, true});
  specs.push_back({"cxl4096", pmsim::MediaBackend::kCxlMem, 4096, 64 * 4096, true});
  return specs;
}

inline uint64_t BenchScale(uint64_t default_ops = 400'000) {
  uint64_t scale = env::Get().bench_scale;
  return scale != 0 ? scale : default_ops;
}

inline void SetCommonCounters(benchmark::State& state, const RunResult& result) {
  state.counters["Mops"] = result.mops;
  state.counters["XBI"] = result.xbi_amplification;
  state.counters["CLI"] = result.cli_amplification;
  state.counters["virt_ms"] = result.elapsed_virtual_ms;
  // Per-component media-write attribution (pmtrace scopes), nonzero only so
  // benches that exercise few components stay uncluttered.
  for (int c = 0; c < trace::kNumComponents; c++) {
    uint64_t bytes = result.stats.media_write_bytes_by_component[c];
    if (bytes != 0) {
      std::string key = std::string("mwB_") +
                        trace::ComponentName(static_cast<trace::Component>(c));
      state.counters[key] = static_cast<double>(bytes);
    }
  }
}

inline void SetLatencyCounters(benchmark::State& state, const RunResult& result) {
  state.counters["p50_us"] = static_cast<double>(result.latency.Percentile(50)) / 1e3;
  state.counters["p90_us"] = static_cast<double>(result.latency.Percentile(90)) / 1e3;
  state.counters["p99_us"] = static_cast<double>(result.latency.Percentile(99)) / 1e3;
  state.counters["p999_us"] = static_cast<double>(result.latency.Percentile(99.9)) / 1e3;
  state.counters["min_us"] = static_cast<double>(result.latency.Min()) / 1e3;
}

// Per-component latency percentiles (requires collect_component_latency).
// Only components that recorded ops are reported; the histogram records, for
// each op, the virtual time spent under that component's trace scope.
inline void SetComponentLatencyCounters(benchmark::State& state, const RunResult& result) {
  for (int c = 0; c < trace::kNumComponents; c++) {
    const metrics::Histogram& h = result.component_latency[static_cast<size_t>(c)];
    if (h.Count() == 0) {
      continue;
    }
    std::string comp = trace::ComponentName(static_cast<trace::Component>(c));
    state.counters[comp + "_p50_us"] = static_cast<double>(h.Percentile(50)) / 1e3;
    state.counters[comp + "_p99_us"] = static_cast<double>(h.Percentile(99)) / 1e3;
    state.counters[comp + "_p999_us"] = static_cast<double>(h.Percentile(99.9)) / 1e3;
  }
}

// Runs the workload once inside the benchmark state loop.
template <typename Fn>
void RunOnce(benchmark::State& state, Fn&& fn) {
  for (auto _ : state) {
    fn(state);
  }
}

}  // namespace cclbt::bench

#endif  // BENCH_BENCH_COMMON_H_
