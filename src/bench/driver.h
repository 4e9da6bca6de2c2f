// Workload driver shared by every benchmark binary: interleaves logical
// workers, each with its own virtual clock, on the calling OS thread, runs
// warm-up + measurement phases, and reports modeled throughput,
// amplification counters and latency percentiles.
//
// Timing model: a run's modeled elapsed time is
//     max( max over workers of their virtual clock ,
//          max over DIMMs of outstanding media work )
// measured over the measurement phase only. See src/pmsim/config.h for the
// cost constants and DESIGN.md §1 for the calibration rationale.
#ifndef SRC_BENCH_DRIVER_H_
#define SRC_BENCH_DRIVER_H_

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/bench/index_factory.h"
#include "src/common/keyspace.h"
#include "src/common/ycsb.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/histogram.h"
#include "src/metrics/metrics.h"
#include "src/metrics/pmdump.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/component.h"

namespace cclbt::bench {

struct RunConfig {
  // Logical workers. They run round-robin on the calling OS thread, so the
  // same RunConfig yields bit-identical virtual-time metrics run after run —
  // including indexes with background GC under GcScheduling::kDeterministic
  // (the default; DESIGN.md §10). Real-thread concurrency is covered by the
  // test suite, not by the driver.
  int threads = 48;
  // Distinct keys loaded before measurement (the paper warms with 50 M).
  uint64_t warm_keys = 1'000'000;
  // Operations in the measurement phase.
  uint64_t ops = 1'000'000;
  // Single-op benches: all ops are of this type. For YCSB mixes set `mix`.
  OpType op = OpType::kInsert;
  const YcsbMix* mix = nullptr;
  KeyDistribution dist = KeyDistribution::kUniform;
  double zipf_theta = 0.9;
  size_t scan_len = 100;
  int threads_per_socket = 48;
  bool collect_latency = false;
  // Enable the metrics registry (src/metrics) for the measurement phase:
  // per-op-kind latency histograms in virtual AND wall time, registry
  // counters, and the virtual-time-epoch series in RunResult::epochs
  // (windowed XBI/CLI, media bytes by component, latency percentiles,
  // XPBuffer/GC gauges). Also switched on by the CCL_DUMP environment
  // variable, which additionally writes the run's .pmdump (see
  // src/bench/run_dump.h). Epoch records are virtual-time-only and
  // bit-identical run-to-run for a deterministic config; the registry is
  // CPU-side only, so enabling it never shifts a virtual metric. Epochs are
  // kMetricsEpochNs wide (src/bench/run_dump.h).
  bool metrics = false;
  // Additionally break per-op latency down by trace::Component (enables
  // trace scope timing for the measurement phase; implies collect_latency
  // semantics for the component histograms only).
  bool collect_component_latency = false;
  // Label stamped into the .pmdump written when CCL_DUMP is set
  // (RunIndexWorkload defaults it to the index name).
  std::string trace_label;
  // Values larger than 8 B go through ValueStore indirection; the stored
  // word is the handle (paper §4.4 Opt. 3). 0/8 = inline.
  size_t value_bytes = 8;
  // Variable-size keys: modeled by charging key-blob PM reads during
  // traversal (see DESIGN.md §6). 0/8 = inline keys.
  size_t key_bytes = 8;
  // Preset key set (e.g. SOSD datasets); overrides dist for inserts.
  const std::vector<uint64_t>* preset_keys = nullptr;
  uint64_t seed = 99;
  // Additionally call KvIndex::GcTick() every gc_epoch_ops-th measured op
  // (0 = off), pinning background-GC rounds to explicit virtual-time epochs
  // of the driver instead of the index's own cooperative quantum. Useful for
  // read-heavy mixes whose sparse upserts would starve the index-side
  // quantum.
  uint64_t gc_epoch_ops = 0;
  // Persistence-domain backend for the run's device (DESIGN.md §14). kAuto
  // resolves through the CCL_BACKEND environment selector, then defaults to
  // ADR/Optane. The checkers (pmcheck, lockcheck) are switched on for a
  // whole process by CCL_PMCHECK / CCL_LOCKCHECK (src/common/env.h).
  pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto;
};

struct RunResult {
  double mops = 0;                 // modeled throughput, Mop/s
  double elapsed_virtual_ms = 0;   // modeled elapsed time of the measure phase
  double max_worker_vtime_ms = 0;  // slowest worker's clock (latency-bound part)
  double max_dimm_busy_ms = 0;     // busiest DIMM's media work (bandwidth-bound part)
  pmsim::StatsSnapshot stats;      // measure-phase delta
  double cli_amplification = 0;
  double xbi_amplification = 0;
  metrics::Histogram latency;      // per-op virtual latencies (if collected)
  // Per-component share of each op's virtual latency (only ops that spent
  // time in the component are recorded; see collect_component_latency).
  std::array<metrics::Histogram, trace::kNumComponents> component_latency;
  // Registry totals for the measurement phase (zero unless metrics were on):
  // per-op-kind virtual/wall histograms and counters.
  metrics::MetricsSnapshot metrics_snapshot;
  // Virtual-time-epoch series (empty unless metrics were on).
  // Deterministic: bit-identical run-to-run per DESIGN.md §10.
  metrics::EpochSeries epochs;
  // Path of the .pmdump written for this run ("" when CCL_DUMP is unset).
  std::string dump_path;
  kvindex::MemoryFootprint footprint;
  // pmcheck report (enabled == false unless the checker ran). RunIndexWorkload
  // refreshes it after an end-of-run DrainBuffers so the unflushed-at-close
  // class is included; RunWorkload alone reports the phases it saw.
  pmsim::PmCheckReport pmcheck;
  // lockcheck report (enabled == false unless the checker ran). Snapshot at
  // measurement end; the event stream keeps flowing until the runtime dies,
  // but counts only grow, so a clean snapshot of a finished run stays clean.
  pmsim::LockCheckReport lockcheck;
};

// Loads `config.warm_keys` distinct keys (or the preset set), then runs the
// measurement phase and returns the metrics. The index must be freshly
// created on `runtime`.
RunResult RunWorkload(kvindex::Runtime& runtime, kvindex::KvIndex& index, const RunConfig& config);

// Convenience: build runtime + index, run, tear down.
RunResult RunIndexWorkload(const std::string& index_name, const RunConfig& config,
                           const IndexConfig& index_config = {},
                           size_t pool_bytes = 2ULL << 30);

// Key for warm-phase position i (dense scrambled space of warm_keys).
uint64_t WarmKey(const RunConfig& config, uint64_t i);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_DRIVER_H_
