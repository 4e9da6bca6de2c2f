#include "src/bench/metrics_dump.h"

#include <atomic>
#include <cstdlib>
#include <fstream>

#include "src/pmsim/media_model.h"
#include "src/trace/component.h"

namespace cclbt::bench {

namespace {

std::atomic<int> g_metrics_dump_seq{0};

// File-name-safe version of a run label (same rules as trace_dump).
std::string Sanitize(const std::string& label) {
  std::string out = label.empty() ? "run" : label;
  for (char& c : out) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') ||
              c == '-' || c == '_' || c == '.';
    if (!ok) {
      c = '-';
    }
  }
  return out;
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

bool MetricsDumpRequested() { return std::getenv("CCL_METRICS") != nullptr; }

std::string WriteMetricsDump(const std::string& label, const pmsim::PmDevice& device,
                             uint64_t threads, uint64_t ops, const metrics::EpochSeries& epochs,
                             const metrics::MetricsSnapshot& totals, uint64_t elapsed_virtual_ns) {
  const char* prefix = std::getenv("CCL_METRICS");
  if (prefix == nullptr || prefix[0] == '\0') {
    return std::string();
  }
  metrics::PmMetricsHeader header;
  header.label = label;
  header.backend = pmsim::MediaBackendName(device.config().backend);
  header.epoch_ns = kMetricsEpochNs;
  header.threads = threads;
  header.ops = ops;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    header.op_kinds.emplace_back(metrics::OpKindName(static_cast<metrics::OpKind>(k)));
  }
  for (int c = 0; c < metrics::kNumCounters; c++) {
    header.counters.emplace_back(metrics::CounterName(static_cast<metrics::Counter>(c)));
  }
  for (int c = 0; c < trace::kNumComponents; c++) {
    header.components.emplace_back(trace::ComponentName(static_cast<trace::Component>(c)));
  }
  metrics::PmMetricsSummary summary;
  summary.elapsed_virtual_ns = elapsed_virtual_ns;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    summary.virt.push_back(metrics::SummarizeHistogram(totals.op_virtual[k]));
    summary.wall.push_back(metrics::SummarizeHistogram(totals.op_wall[k]));
  }

  int seq = g_metrics_dump_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path =
      std::string(prefix) + "." + std::to_string(seq) + "." + Sanitize(label) + ".pmmetrics";
  std::ofstream out(path);
  if (!out) {
    return std::string();
  }
  out << metrics::SerializeHeader(header);
  out << metrics::SerializeEpochSeries(epochs);
  out << metrics::SerializeSummary(summary);
  return out ? path : std::string();
}

}  // namespace cclbt::bench
