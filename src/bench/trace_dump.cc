#include "src/bench/trace_dump.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <fstream>

#include "src/pmsim/media_model.h"
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

// File-name-safe version of a run label.
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

bool TraceDumpRequested() { return std::getenv("CCL_TRACE") != nullptr; }

std::string TraceDumpPrefix() {
  const char* prefix = std::getenv("CCL_TRACE");
  return prefix == nullptr ? std::string() : std::string(prefix);
}

std::string WriteTraceDump(kvindex::Runtime& runtime, const std::string& label,
                           const pmsim::StatsSnapshot& stats, double elapsed_virtual_ms) {
  std::string prefix = TraceDumpPrefix();
  if (prefix.empty()) {
    return std::string();
  }
  int seq = g_dump_seq.fetch_add(1, std::memory_order_relaxed);
  std::string path =
      prefix + "." + std::to_string(seq) + "." + Sanitize(label) + ".pmtrace";
  std::ofstream out(path);
  if (!out) {
    return std::string();
  }

  const pmsim::DeviceConfig& dc = runtime.device().config();
  // Version 2: checker sections use the shared check* grammar
  // (src/pmsim/check_report.h) and the stats timeline is gone.
  out << "pmtrace 2\n";
  out << "label " << Sanitize(label) << "\n";
  out << "config pool_bytes " << dc.pool_bytes << "\n";
  out << "config num_sockets " << dc.num_sockets << "\n";
  out << "config dimms_per_socket " << dc.dimms_per_socket << "\n";
  out << "config backend " << pmsim::MediaBackendName(dc.backend) << "\n";
  out << "config xpline_bytes " << dc.xpline_bytes << "\n";
  out << "config elapsed_virtual_ms " << elapsed_virtual_ms << "\n";

  // Scalar stats straight from the field list, so a newly added counter shows
  // up in dumps without touching this file.
#define CCLBT_DUMP_STAT_S(name) out << "stat " #name " " << stats.name << "\n";
#define CCLBT_DUMP_STAT_A(name, n)
  CCLBT_PMSIM_STATS_FIELDS(CCLBT_DUMP_STAT_S, CCLBT_DUMP_STAT_A)
#undef CCLBT_DUMP_STAT_S
#undef CCLBT_DUMP_STAT_A

  for (int t = 0; t < static_cast<int>(pmsim::StreamTag::kCount); t++) {
    out << "stattag " << TagName(t) << " " << stats.media_writes_by_tag[t] << "\n";
  }
  for (int c = 0; c < trace::kNumComponents; c++) {
    out << "statcomp " << trace::ComponentName(static_cast<trace::Component>(c)) << " "
        << stats.media_write_bytes_by_component[c] << " "
        << stats.committed_lines_by_component[c] << "\n";
  }

  // Heatmap: fold per-XPLine write counts into at most kMaxHeatBins bins so
  // dumps stay small for multi-GB pools.
  pmsim::PmDevice& device = runtime.device();
  if (device.heatmap_enabled()) {
    constexpr uint64_t kMaxHeatBins = 512;
    uint64_t units = device.num_units();
    uint64_t per_bin = (units + kMaxHeatBins - 1) / kMaxHeatBins;
    per_bin = std::max<uint64_t>(per_bin, 1);
    out << "heat " << units << " " << per_bin << "\n";
    for (uint64_t first = 0; first < units; first += per_bin) {
      uint64_t end = std::min(units, first + per_bin);
      uint64_t writes = 0;
      uint64_t hottest_unit = first;
      uint64_t hottest_writes = 0;
      for (uint64_t u = first; u < end; u++) {
        uint64_t w = device.UnitWriteCount(u);
        writes += w;
        if (w > hottest_writes) {
          hottest_writes = w;
          hottest_unit = u;
        }
      }
      if (writes == 0) {
        continue;  // sparse: empty bins are implicit
      }
      out << "heatbin " << first << " " << (end - first) << " " << writes << " "
          << hottest_unit << " " << hottest_writes << "\n";
    }
  }

  for (const trace::NamedRing& ring : trace::CollectRings()) {
    out << "ring " << ring.worker_id << " " << ring.socket << " " << ring.emitted << " "
        << ring.events.size() << "\n";
    for (const trace::TraceEvent& ev : ring.events) {
      out << "event " << ring.worker_id << " " << ev.t_ns << " "
          << static_cast<int>(ev.type) << " " << static_cast<int>(ev.comp) << " " << ev.arg
          << " " << ev.aux << " " << ev.dimm << "\n";
    }
  }

  out.flush();
  if (!out) {
    return std::string();
  }
  return path;
}

}  // namespace cclbt::bench
