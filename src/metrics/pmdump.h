// .pmdump — the one run dump: everything a measured run records, in one
// versioned file of "keyword fields..." text lines, written by one writer and
// read by one reader (tools/pmctl, the tests). A dump is produced at the end
// of a measured phase when CCL_DUMP=<prefix> is set (src/bench/run_dump.h);
// CCL_TRACE=1 adds the event rings and the XPLine heatmap. Records, in file
// order:
//
//   pmdump 1
//   label <sanitized label>
//   config <key> <value>          backend pool_bytes num_sockets
//                                 dimms_per_socket xpline_bytes epoch_ns
//                                 threads ops elapsed_virtual_ns
//   names op_kinds|counters|components <name>...
//                                 the tables that set the width of every
//                                 array in an epoch line
//   stat <name> <value>           the phase's pmsim stats delta
//   stattag <tag> <media writes>
//   statcomp <component> <media bytes> <committed lines>
//   epoch <i> <t_ns> key=value... one per virtual-time window (fixed keys in
//                                 fixed order, arrays comma-separated), then
//                                 the sampled gauges as name=value
//   virt <op kind> <count> <p50> <p99> <p999> <max>   virtual-ns latency
//   wall <op kind> <count> <p50> <p99> <p999> <max>   host wall-ns latency
//   heat <units> <units per bin>                      CCL_TRACE=1 only
//   heatbin <first unit> <units> <writes> <hottest unit> <hottest writes>
//   ring <worker> <socket> <emitted> <retained>       CCL_TRACE=1 only
//   event <worker> <t_ns> <type> <comp> <arg> <aux> <dimm>
//   check* ...                    one section per checker that ran, appended
//                                 after the run (src/pmsim/check_report.h)
//
// Determinism contract: `wall` is the only record derived from wall time.
// Every other line is virtual-time or count data and is bit-identical
// run-to-run for a deterministic config (run_benches.sh --determinism diffs
// them). Invariant: in every epoch, sum(comp_bytes) == media_write_bytes;
// `pmctl series` / `top` exit 3 when an epoch violates it.
#ifndef SRC_METRICS_PMDUMP_H_
#define SRC_METRICS_PMDUMP_H_

#include <cstdint>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/histogram.h"
#include "src/pmsim/check_report.h"
#include "src/trace/exporters.h"
#include "src/trace/trace.h"

namespace cclbt::metrics {

inline constexpr int kPmDumpVersion = 1;

// One virtual-time window. All byte/count fields except the xpbuf_* gauges
// are windowed deltas over [previous epoch end, t_ns]; xpbuf_* are
// cumulative values sampled at t_ns (windowed eviction rate = delta of
// consecutive records).
struct EpochRecord {
  uint64_t index = 0;
  uint64_t t_ns = 0;  // window end, virtual time
  std::vector<uint64_t> ops;      // per op kind
  std::vector<uint64_t> p50_ns;   // windowed virtual-latency percentiles
  std::vector<uint64_t> p99_ns;   //   (0 where the window had no ops of
  std::vector<uint64_t> p999_ns;  //    that kind)
  uint64_t user_bytes = 0;
  uint64_t xpbuffer_write_bytes = 0;
  uint64_t media_write_bytes = 0;
  uint64_t media_read_bytes = 0;
  uint64_t line_flushes = 0;
  uint64_t fences = 0;
  std::vector<uint64_t> comp_bytes;  // windowed media bytes per component
  uint64_t xpbuf_resident = 0;       // cumulative gauges at t_ns
  uint64_t xpbuf_insertions = 0;
  uint64_t xpbuf_evictions = 0;
  std::vector<uint64_t> counters;  // windowed registry counters
  std::vector<std::pair<std::string, uint64_t>> gauges;  // sampled index gauges

  // Windowed amplification (paper §2.1, per epoch instead of endpoint).
  double WindowCli() const {
    return user_bytes == 0 ? 0.0
                           : static_cast<double>(xpbuffer_write_bytes) /
                                 static_cast<double>(user_bytes);
  }
  double WindowXbi() const {
    return user_bytes == 0
               ? 0.0
               : static_cast<double>(media_write_bytes) / static_cast<double>(user_bytes);
  }
  uint64_t TotalOps() const {
    uint64_t n = 0;
    for (uint64_t v : ops) {
      n += v;
    }
    return n;
  }
  uint64_t ComponentBytesTotal() const {
    uint64_t n = 0;
    for (uint64_t v : comp_bytes) {
      n += v;
    }
    return n;
  }
};

using EpochSeries = std::vector<EpochRecord>;

// Per-op-kind latency digest (`virt` / `wall` lines).
struct OpLatencySummary {
  uint64_t count = 0;
  uint64_t p50_ns = 0;
  uint64_t p99_ns = 0;
  uint64_t p999_ns = 0;
  uint64_t max_ns = 0;
};

OpLatencySummary SummarizeHistogram(const Histogram& h);

// A whole run dump in memory: what the writer serializes and the reader
// returns.
struct PmDump {
  struct Config {
    std::string backend;  // "adr" / "eadr" / "cxl"
    uint64_t pool_bytes = 0;
    uint64_t num_sockets = 0;
    uint64_t dimms_per_socket = 0;
    uint64_t xpline_bytes = 0;
    uint64_t epoch_ns = 0;
    uint64_t threads = 0;
    uint64_t ops = 0;
    uint64_t elapsed_virtual_ns = 0;
  };
  struct TagRow {
    std::string name;
    uint64_t writes = 0;
  };
  struct CompRow {
    std::string name;
    uint64_t media_bytes = 0;
    uint64_t committed_lines = 0;
  };

  std::string label;  // written (and so read back) through SanitizeLabel
  Config config;
  // Name tables indexing the epoch arrays and the virt/wall lines.
  std::vector<std::string> op_kinds;
  std::vector<std::string> counters;
  std::vector<std::string> components;
  std::vector<std::pair<std::string, uint64_t>> stats;  // declaration order
  std::vector<TagRow> tags;
  std::vector<CompRow> comps;
  EpochSeries epochs;
  std::vector<OpLatencySummary> virt;  // per op kind, deterministic
  std::vector<OpLatencySummary> wall;  // per op kind, host wall time
  uint64_t heat_units = 0;             // 0: no heatmap in the dump
  uint64_t heat_per_bin = 0;
  std::vector<trace::HeatBin> heat_bins;  // sparse: empty bins are implicit
  std::vector<trace::NamedRing> rings;
  std::vector<pmsim::CheckSection> checks;

  uint64_t Stat(const std::string& name) const;
};

// File-name-safe version of a run label ("run" when empty): the label line
// and the label part of every dump file name.
std::string SanitizeLabel(const std::string& label);

// Writer: the whole dump, in the record order above.
void WritePmDump(std::ostream& out, const PmDump& dump);
// The epoch lines alone: the deterministic payload the determinism tests
// compare.
std::string SerializeEpochSeries(const EpochSeries& series);

// Reader: parses a pmdump 1 file. Returns false and sets *error to
// "<path>:<line>: <what>" on anything it does not accept, including a
// pmtrace or .pmmetrics dump from an older writer, an unknown keyword and an
// epoch array whose width disagrees with its names table.
bool ReadPmDump(const std::string& path, PmDump* out, std::string* error);

}  // namespace cclbt::metrics

#endif  // SRC_METRICS_PMDUMP_H_
