// The sanctioned wall-clock shim for metric recording (lint rule R6).
//
// Everything measured in this repo runs on pmsim virtual time, and the
// determinism CI gate diffs virtual-metric tails bit-for-bit — so wall-clock
// reads are banned from src/ and bench/ (lint R2). The metrics layer is the
// one place that legitimately wants both: latency histograms are recorded in
// virtual AND wall time so modeled and host behaviour can be compared. All
// wall reads in metrics recording go through WallNowNs() here; lint R6
// forbids direct clock reads anywhere else in src/metrics/, and everything
// derived from wall time is quarantined into the `wall` records of the
// .pmdump (src/metrics/pmdump.h), never the deterministic epoch series.
#ifndef SRC_METRICS_CLOCK_H_
#define SRC_METRICS_CLOCK_H_

#include <chrono>
#include <cstdint>

namespace cclbt::metrics {

// Monotonic host time in ns. Never feeds virtual-time accounting or the
// epoch series; summary-record wall histograms only.
inline uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace cclbt::metrics

#endif  // SRC_METRICS_CLOCK_H_
