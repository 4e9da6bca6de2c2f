// Writer for .pmtrace dump files — the interchange format between a bench
// run and tools/pmctl. A dump is produced at the end of a measured phase
// when the CCL_TRACE environment variable names a path prefix; it carries
// the phase's stats snapshot (with per-component attribution), the XPLine
// write heatmap, and every worker's retained trace events; checked runs
// append one section per checker (src/pmsim/check_report.h). The time series
// of a run lives in its .pmmetrics dump (src/bench/metrics_dump.h). Plain
// "keyword fields..." text lines: greppable, versioned, no dependencies (see
// DESIGN.md "Observability" for the schema).
#ifndef SRC_BENCH_TRACE_DUMP_H_
#define SRC_BENCH_TRACE_DUMP_H_

#include <string>

#include "src/kvindex/runtime.h"
#include "src/pmsim/stats.h"

namespace cclbt::bench {

// File-name-safe version of a run label ("run" when empty); the label part of
// every dump file name.
std::string SanitizeLabel(const std::string& label);

// Writes "<CCL_TRACE>.<seq>.<label>.pmtrace" (seq is a process-wide counter so
// a bench binary that runs many indexes produces distinct files). Collects
// the trace rings itself. Returns the path written, or "" on failure.
std::string WriteTraceDump(kvindex::Runtime& runtime, const std::string& label,
                           const pmsim::StatsSnapshot& stats, double elapsed_virtual_ms);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_TRACE_DUMP_H_
