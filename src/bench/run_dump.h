// What a measured phase records for its run dump (src/metrics/pmdump.h):
// the virtual-time epoch series and the one .pmdump file. The closed-loop
// driver and the sharded service both record through EpochRecorder and write
// through WriteRunDump. A dump is produced at the end of a measured phase
// when CCL_DUMP names a path prefix; CCL_TRACE=1 adds the event rings and the
// XPLine heatmap. Read by every `pmctl` verb.
#ifndef SRC_BENCH_RUN_DUMP_H_
#define SRC_BENCH_RUN_DUMP_H_

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "src/metrics/metrics.h"
#include "src/metrics/pmdump.h"
#include "src/pmsim/device.h"

namespace cclbt::bench {

// Virtual-time width of one metrics epoch.
inline constexpr uint64_t kMetricsEpochNs = 1'000'000;

// Named gauges sampled into each epoch record.
using Gauges = std::vector<std::pair<std::string, uint64_t>>;

// Snapshots windowed pmsim stats, metrics-registry counters and latency
// percentiles each time the running clock crosses the next epoch boundary.
// Every field is virtual-time/count data, so the series is bit-identical
// run-to-run for a deterministic config.
class EpochRecorder {
 public:
  // `start` is the device stats at the phase start, taken right after the
  // metrics registry was reset. `gauges` appends the caller's gauges to each
  // record (index gauges, per-shard service gauges).
  EpochRecorder(pmsim::PmDevice& device, const pmsim::StatsSnapshot& start,
                std::function<void(Gauges*)> gauges);

  // Called after every op (driver) or batch (service) with the clock of the
  // worker that just ran: one compare unless an epoch boundary was crossed.
  void Tick(uint64_t now_ns) {
    if (now_ns >= next_epoch_ns_) {
      Record(now_ns);
      next_epoch_ns_ = (now_ns / kMetricsEpochNs + 1) * kMetricsEpochNs;
    }
  }

  // Closes the final (partial) window at `end_ns` so the series tiles the
  // whole phase — summed windowed bytes equal the phase's stats delta — and
  // returns the series.
  metrics::EpochSeries Finish(uint64_t end_ns);

 private:
  void Record(uint64_t t_ns);

  pmsim::PmDevice& device_;
  std::function<void(Gauges*)> gauges_;
  uint64_t next_epoch_ns_ = kMetricsEpochNs;
  metrics::EpochSeries epochs_;
  pmsim::StatsSnapshot prev_stats_;
  metrics::MetricsSnapshot prev_metrics_;
};

// Writes "<CCL_DUMP>.<seq>.<label>.pmdump" for one finished phase: `device`'s
// config, `threads`, `ops` and `elapsed_virtual_ns`, the phase's `stats`
// delta, the epoch series and the summary of the registry `totals`; plus the
// XPLine heatmap when `device` records one and the event rings while tracing
// is on (CCL_TRACE=1). seq is a process-wide counter, so a bench binary that
// runs many indexes produces distinct files. Checked runs append their
// sections afterwards (pmsim::AppendCheckSection). Returns the path written,
// or "" when CCL_DUMP is unset or the write fails.
std::string WriteRunDump(const std::string& label, const pmsim::PmDevice& device,
                         uint64_t threads, uint64_t ops, uint64_t elapsed_virtual_ns,
                         const pmsim::StatsSnapshot& stats, const metrics::EpochSeries& epochs,
                         const metrics::MetricsSnapshot& totals);

}  // namespace cclbt::bench

#endif  // SRC_BENCH_RUN_DUMP_H_
