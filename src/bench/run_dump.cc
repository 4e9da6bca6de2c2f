#include "src/bench/run_dump.h"

#include <algorithm>
#include <atomic>
#include <fstream>

#include "src/common/env.h"
#include "src/pmsim/media_model.h"
#include "src/trace/component.h"
#include "src/trace/trace.h"

namespace cclbt::bench {

namespace {

std::atomic<int> g_dump_seq{0};

const char* TagName(int tag) {
  switch (static_cast<pmsim::StreamTag>(tag)) {
    case pmsim::StreamTag::kOther:
      return "other";
    case pmsim::StreamTag::kLeaf:
      return "leaf";
    case pmsim::StreamTag::kLog:
      return "log";
    default:
      return "unknown";
  }
}

// Folds the per-XPLine write counts into at most kMaxHeatBins bins so dumps
// stay small for multi-GB pools; empty bins are left out.
void CaptureHeatmap(const pmsim::PmDevice& device, metrics::PmDump* dump) {
  constexpr uint64_t kMaxHeatBins = 512;
  uint64_t units = device.num_units();
  uint64_t per_bin = std::max<uint64_t>((units + kMaxHeatBins - 1) / kMaxHeatBins, 1);
  dump->heat_units = units;
  dump->heat_per_bin = per_bin;
  for (uint64_t first = 0; first < units; first += per_bin) {
    trace::HeatBin bin;
    bin.first_unit = first;
    bin.units = std::min(units, first + per_bin) - first;
    bin.hottest_unit = first;
    for (uint64_t u = first; u < first + bin.units; u++) {
      uint64_t w = device.UnitWriteCount(u);
      bin.writes += w;
      if (w > bin.hottest_writes) {
        bin.hottest_writes = w;
        bin.hottest_unit = u;
      }
    }
    if (bin.writes != 0) {
      dump->heat_bins.push_back(bin);
    }
  }
}

}  // namespace

EpochRecorder::EpochRecorder(pmsim::PmDevice& device, const pmsim::StatsSnapshot& start,
                             std::function<void(Gauges*)> gauges)
    : device_(device), gauges_(std::move(gauges)), prev_stats_(start) {}

void EpochRecorder::Record(uint64_t t_ns) {
  pmsim::StatsSnapshot cur = device_.stats().Snapshot();
  pmsim::StatsSnapshot win = cur.Delta(prev_stats_);
  metrics::MetricsSnapshot mcur = metrics::Snapshot();
  metrics::EpochRecord e;
  e.index = epochs_.size();
  e.t_ns = t_ns;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    metrics::Histogram w = mcur.op_virtual[k].Delta(prev_metrics_.op_virtual[k]);
    e.ops.push_back(w.Count());
    e.p50_ns.push_back(w.Count() == 0 ? 0 : w.Percentile(50));
    e.p99_ns.push_back(w.Count() == 0 ? 0 : w.Percentile(99));
    e.p999_ns.push_back(w.Count() == 0 ? 0 : w.Percentile(99.9));
  }
  e.user_bytes = win.user_bytes;
  e.xpbuffer_write_bytes = win.xpbuffer_write_bytes;
  e.media_write_bytes = win.media_write_bytes;
  e.media_read_bytes = win.media_read_bytes;
  e.line_flushes = win.line_flushes;
  e.fences = win.fences;
  for (int c = 0; c < trace::kNumComponents; c++) {
    e.comp_bytes.push_back(win.media_write_bytes_by_component[c]);
  }
  pmsim::PmDevice::XpBufferTotals xb = device_.SampleXpBuffers();
  e.xpbuf_resident = xb.resident;
  e.xpbuf_insertions = xb.insertions;
  e.xpbuf_evictions = xb.evictions;
  for (int c = 0; c < metrics::kNumCounters; c++) {
    e.counters.push_back(mcur.counters[c] - prev_metrics_.counters[c]);
  }
  gauges_(&e.gauges);
  epochs_.push_back(std::move(e));
  prev_stats_ = cur;
  prev_metrics_ = std::move(mcur);
}

metrics::EpochSeries EpochRecorder::Finish(uint64_t end_ns) {
  Record(end_ns);
  return std::move(epochs_);
}

std::string WriteRunDump(const std::string& label, const pmsim::PmDevice& device,
                         uint64_t threads, uint64_t ops, uint64_t elapsed_virtual_ns,
                         const pmsim::StatsSnapshot& stats, const metrics::EpochSeries& epochs,
                         const metrics::MetricsSnapshot& totals) {
  const std::string& prefix = env::Get().dump_prefix;
  if (prefix.empty()) {
    return std::string();
  }
  metrics::PmDump dump;
  dump.label = label;
  const pmsim::DeviceConfig& dc = device.config();
  dump.config.backend = pmsim::MediaBackendName(dc.backend);
  dump.config.pool_bytes = dc.pool_bytes;
  dump.config.num_sockets = static_cast<uint64_t>(dc.num_sockets);
  dump.config.dimms_per_socket = static_cast<uint64_t>(dc.dimms_per_socket);
  dump.config.xpline_bytes = dc.xpline_bytes;
  dump.config.epoch_ns = kMetricsEpochNs;
  dump.config.threads = threads;
  dump.config.ops = ops;
  dump.config.elapsed_virtual_ns = elapsed_virtual_ns;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    dump.op_kinds.emplace_back(metrics::OpKindName(static_cast<metrics::OpKind>(k)));
    dump.virt.push_back(metrics::SummarizeHistogram(totals.op_virtual[k]));
    dump.wall.push_back(metrics::SummarizeHistogram(totals.op_wall[k]));
  }
  for (int c = 0; c < metrics::kNumCounters; c++) {
    dump.counters.emplace_back(metrics::CounterName(static_cast<metrics::Counter>(c)));
  }
  for (int c = 0; c < trace::kNumComponents; c++) {
    dump.components.emplace_back(trace::ComponentName(static_cast<trace::Component>(c)));
  }

  // Scalar stats straight from the field list, so a newly added counter shows
  // up in dumps without touching this file.
#define CCLBT_DUMP_STAT_S(name) dump.stats.emplace_back(#name, stats.name);
#define CCLBT_DUMP_STAT_A(name, n)
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_DUMP_STAT_S, CCLBT_DUMP_STAT_A)
#undef CCLBT_DUMP_STAT_S
#undef CCLBT_DUMP_STAT_A
  for (int t = 0; t < static_cast<int>(pmsim::StreamTag::kCount); t++) {
    dump.tags.push_back({TagName(t), stats.media_writes_by_tag[t]});
  }
  for (int c = 0; c < trace::kNumComponents; c++) {
    dump.comps.push_back({trace::ComponentName(static_cast<trace::Component>(c)),
                          stats.media_write_bytes_by_component[c],
                          stats.committed_lines_by_component[c]});
  }
  dump.epochs = epochs;
  if (device.heatmap_enabled()) {
    CaptureHeatmap(device, &dump);
  }
  if (trace::Enabled()) {
    dump.rings = trace::CollectRings();
  }

  int seq = g_dump_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path =
      prefix + "." + std::to_string(seq) + "." + metrics::SanitizeLabel(label) + ".pmdump";
  std::ofstream out(path);
  if (!out) {
    return std::string();
  }
  metrics::WritePmDump(out, dump);
  out.flush();
  return out ? path : std::string();
}

}  // namespace cclbt::bench
