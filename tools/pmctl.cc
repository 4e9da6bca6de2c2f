// pmctl: inspector for the .pmdump run dumps written by the bench driver and
// the sharded service (set CCL_DUMP=<prefix> and run any bench; one dump per
// measured run; CCL_TRACE=1 adds the event rings and the XPLine heatmap).
// Modeled on ipmctl's show/performance verbs, but reading the simulator's
// richer attribution data instead of DIMM SMART counters. Every verb reads
// the dump through the one reader, metrics::ReadPmDump (src/metrics/pmdump.h).
//
//   pmctl stats   <dump>            amplification + per-tag/per-component table
//   pmctl heatmap <dump> [--cols N] ASCII XPLine write-count heatmap
//   pmctl trace   <dump> [-o f]     Chrome trace-event JSON (Perfetto-loadable)
//   pmctl check   <dump>            pmcheck persistency report; exit 3 on violations
//   pmctl locks   <dump>            lockcheck locking report; exit 3 on violations
//   pmctl top     <dump>            one-shot terminal dashboard (no polling by
//                                   design — wrap with `watch -n1` for a live view)
//   pmctl series  <dump>            per-epoch time series as CSV; exits 3 if any
//                                   epoch's per-component bytes fail to sum to
//                                   that epoch's media_write_bytes
//
// check and locks render the dump's checker sections through one renderer
// (the shared section schema, src/pmsim/check_report.h); both exit 2 when
// the checker was off for the run.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "src/metrics/pmdump.h"
#include "src/pmsim/check_report.h"
#include "src/trace/exporters.h"
#include "src/trace/trace.h"

namespace cclbt::pmctl {
namespace {

using metrics::PmDump;

std::string HumanBytes(uint64_t bytes) {
  char buf[32];
  if (bytes >= 1ULL << 30) {
    std::snprintf(buf, sizeof(buf), "%.2f GiB", static_cast<double>(bytes) / (1ULL << 30));
  } else if (bytes >= 1ULL << 20) {
    std::snprintf(buf, sizeof(buf), "%.2f MiB", static_cast<double>(bytes) / (1ULL << 20));
  } else if (bytes >= 1ULL << 10) {
    std::snprintf(buf, sizeof(buf), "%.2f KiB", static_cast<double>(bytes) / (1ULL << 10));
  } else {
    std::snprintf(buf, sizeof(buf), "%llu B", static_cast<unsigned long long>(bytes));
  }
  return buf;
}

int CmdStats(const PmDump& d) {
  uint64_t user = d.Stat("user_bytes");
  uint64_t xpb = d.Stat("xpbuffer_write_bytes");
  uint64_t media = d.Stat("media_write_bytes");
  std::ostringstream elapsed_ms;
  elapsed_ms << static_cast<double>(d.config.elapsed_virtual_ns) / 1e6;
  std::printf("run %s (elapsed %s virtual ms)\n", d.label.c_str(), elapsed_ms.str().c_str());
  std::printf("\n-- counters --\n");
  for (const auto& [name, value] : d.stats) {
    std::printf("  %-28s %20llu\n", name.c_str(), static_cast<unsigned long long>(value));
  }
  std::printf("\n-- amplification --\n");
  if (user != 0) {
    std::printf("  CLI (xpbuffer/user)  %8.3f\n",
                static_cast<double>(xpb) / static_cast<double>(user));
    std::printf("  XBI (media/user)     %8.3f\n",
                static_cast<double>(media) / static_cast<double>(user));
  } else {
    std::printf("  (no user bytes recorded; read-only run?)\n");
  }
  if (!d.tags.empty()) {
    std::printf("\n-- media writes by stream tag (address range) --\n");
    uint64_t total = 0;
    for (const PmDump::TagRow& row : d.tags) {
      total += row.writes;
    }
    for (const PmDump::TagRow& row : d.tags) {
      double pct = total == 0 ? 0.0
                              : 100.0 * static_cast<double>(row.writes) /
                                    static_cast<double>(total);
      std::printf("  %-12s %14llu  %6.2f%%\n", row.name.c_str(),
                  static_cast<unsigned long long>(row.writes), pct);
    }
  }
  if (!d.comps.empty()) {
    std::printf("\n-- media write bytes by component (code scope) --\n");
    uint64_t comp_total = 0;
    for (const PmDump::CompRow& row : d.comps) {
      comp_total += row.media_bytes;
    }
    for (const PmDump::CompRow& row : d.comps) {
      if (row.media_bytes == 0 && row.committed_lines == 0) {
        continue;
      }
      double pct = media == 0 ? 0.0
                              : 100.0 * static_cast<double>(row.media_bytes) /
                                    static_cast<double>(media);
      std::printf("  %-12s %14llu  %6.2f%%   (%s, %llu committed lines)\n",
                  row.name.c_str(), static_cast<unsigned long long>(row.media_bytes), pct,
                  HumanBytes(row.media_bytes).c_str(),
                  static_cast<unsigned long long>(row.committed_lines));
    }
    std::printf("  %-12s %14llu  %s\n", "total", static_cast<unsigned long long>(comp_total),
                comp_total == media ? "(= media_write_bytes)" : "(!= media_write_bytes)");
    if (comp_total != media) {
      std::fprintf(stderr,
                   "pmctl: WARNING: component attribution (%llu) does not sum to "
                   "media_write_bytes (%llu)\n",
                   static_cast<unsigned long long>(comp_total),
                   static_cast<unsigned long long>(media));
      return 2;
    }
  }
  return 0;
}

int CmdHeatmap(const PmDump& d, int columns) {
  if (d.heat_units == 0 || d.heat_per_bin == 0) {
    std::printf("(no heatmap in dump; run the driver with CCL_TRACE=1 next to CCL_DUMP)\n");
    return 0;
  }
  // Reconstitute the dense bin vector (the dump omits empty bins).
  size_t num_bins = static_cast<size_t>((d.heat_units + d.heat_per_bin - 1) / d.heat_per_bin);
  std::vector<trace::HeatBin> bins(num_bins);
  for (size_t i = 0; i < num_bins; i++) {
    bins[i].first_unit = static_cast<uint64_t>(i) * d.heat_per_bin;
    bins[i].units = std::min<uint64_t>(d.heat_per_bin, d.heat_units - bins[i].first_unit);
  }
  uint64_t total_writes = 0;
  trace::HeatBin hottest;
  for (const trace::HeatBin& bin : d.heat_bins) {
    size_t idx = static_cast<size_t>(bin.first_unit / d.heat_per_bin);
    if (idx >= num_bins) {
      continue;
    }
    bins[idx].writes = bin.writes;
    bins[idx].hottest_unit = bin.hottest_unit;
    bins[idx].hottest_writes = bin.hottest_writes;
    total_writes += bin.writes;
    if (bin.hottest_writes > hottest.hottest_writes) {
      hottest = bin;
    }
  }
  std::printf("run %s: %llu media writes over %llu XPLines (%llu XPLines/bin)\n",
              d.label.c_str(), static_cast<unsigned long long>(total_writes),
              static_cast<unsigned long long>(d.heat_units),
              static_cast<unsigned long long>(d.heat_per_bin));
  trace::RenderHeatmap(std::cout, bins, columns);
  if (hottest.hottest_writes > 0) {
    std::printf("hottest XPLine: unit %llu with %llu writes\n",
                static_cast<unsigned long long>(hottest.hottest_unit),
                static_cast<unsigned long long>(hottest.hottest_writes));
  }
  return 0;
}

int CmdTrace(const PmDump& d, const std::string& out_path) {
  if (d.rings.empty()) {
    std::cerr << "pmctl: no trace rings in dump\n";
    return 1;
  }
  uint64_t total = 0, retained = 0;
  for (const trace::NamedRing& ring : d.rings) {
    total += ring.emitted;
    retained += ring.events.size();
  }
  std::cerr << "pmctl: " << d.rings.size() << " worker rings, " << retained << "/" << total
            << " events retained\n";
  if (out_path.empty() || out_path == "-") {
    trace::ExportChromeTraceJson(std::cout, d.rings, d.label);
    return 0;
  }
  std::ofstream out(out_path);
  if (!out) {
    std::cerr << "pmctl: cannot write " << out_path << "\n";
    return 1;
  }
  trace::ExportChromeTraceJson(out, d.rings, d.label);
  out.flush();
  if (!out) {
    std::cerr << "pmctl: write to " << out_path << " failed\n";
    return 1;
  }
  std::cerr << "pmctl: wrote " << out_path << " (load in Perfetto / chrome://tracing)\n";
  return 0;
}

// Report from one checker's dump section: pmcheck (`pmctl check`, DESIGN.md
// §11) or lockcheck (`pmctl locks`, §16). `env` names the switch that turns
// the checker on. Exit status: 0 clean, 2 checker was not enabled for the
// run, 3 violations; informational findings never gate it.
int CmdCheckSection(const PmDump& d, const char* checker, const char* env) {
  const pmsim::CheckSection* s = pmsim::FindCheckSection(d.checks, checker);
  if (s == nullptr) {
    std::printf("run %s: %s was not enabled for this run\n", d.label.c_str(), checker);
    std::printf("(rerun with %s=1 and CCL_DUMP=<prefix> to produce a checked dump)\n", env);
    return pmsim::CheckVerdict(s);
  }
  std::printf("run %s: %s %s — %llu violation(s), %llu informational, %llu suppressed\n",
              d.label.c_str(), checker, s->total() == 0 ? "CLEAN" : "VIOLATIONS",
              static_cast<unsigned long long>(s->total()),
              static_cast<unsigned long long>(s->total_info()),
              static_cast<unsigned long long>(s->total_suppressed()));
  if (!d.config.backend.empty()) {
    std::printf("  %-22s %14s\n", "backend", d.config.backend.c_str());
  }
  for (const auto& [name, value] : s->stats) {
    std::printf("  %-22s %14llu\n", name.c_str(), static_cast<unsigned long long>(value));
    if (name == "diagnostics_truncated" && value != 0) {
      std::printf("  WARNING: %llu diagnostic(s) beyond the retention cap were counted "
                  "but not materialized — the list below is incomplete\n",
                  static_cast<unsigned long long>(value));
    }
  }
  std::printf("\n-- violations by class --\n");
  for (const pmsim::CheckSection::ClassRow& row : s->classes) {
    std::printf("  %-22s %14llu   (%llu info, %llu suppressed)\n", row.name.c_str(),
                static_cast<unsigned long long>(row.count),
                static_cast<unsigned long long>(row.info),
                static_cast<unsigned long long>(row.suppressed));
  }
  if (!s->diagnostics.empty()) {
    std::printf("\n-- diagnostics --\n");
    size_t i = 0;
    for (const pmsim::CheckSection::Diagnostic& diag : s->diagnostics) {
      std::printf("[%zu] %s%s: %s\n", i++, diag.cls.c_str(), diag.info ? " (info)" : "",
                  diag.detail.c_str());
      std::printf("    component %s, worker %llu, %s\n", diag.comp.c_str(),
                  static_cast<unsigned long long>(diag.worker), diag.where.c_str());
      for (const pmsim::CheckSection::Event& ev : diag.recent) {
        std::printf("      ... %-9s comp=%-10s worker=%-5llu %s\n", ev.kind.c_str(),
                    ev.comp.c_str(), static_cast<unsigned long long>(ev.worker),
                    ev.fields.c_str());
      }
    }
  }
  return pmsim::CheckVerdict(s);
}

// --- epoch-series commands ---------------------------------------------------

// Verifies the per-epoch extension of the PR 2 sum-to-total invariant: in
// every epoch, the windowed per-component media bytes must sum exactly to
// the windowed media_write_bytes. Returns the number of violating epochs
// (reported to stderr).
size_t CheckEpochComponentSums(const PmDump& f) {
  size_t bad = 0;
  for (const metrics::EpochRecord& e : f.epochs) {
    uint64_t sum = e.ComponentBytesTotal();
    if (sum != e.media_write_bytes) {
      std::fprintf(stderr,
                   "pmctl: epoch %llu: component bytes (%llu) != windowed "
                   "media_write_bytes (%llu)\n",
                   static_cast<unsigned long long>(e.index),
                   static_cast<unsigned long long>(sum),
                   static_cast<unsigned long long>(e.media_write_bytes));
      bad++;
    }
  }
  return bad;
}

std::string Spark(const std::vector<double>& values) {
  static const char kRamp[] = " .:-=+*#%@";
  double max_v = 0;
  for (double v : values) {
    max_v = std::max(max_v, v);
  }
  std::string out;
  for (double v : values) {
    int level = max_v == 0 ? 0 : static_cast<int>(v / max_v * 9.0);
    out += kRamp[std::min(9, std::max(0, level))];
  }
  return out;
}

int CmdTop(const PmDump& f) {
  std::printf("run %-20s  threads %llu  ops %llu  epoch %.3f virtual ms\n", f.label.c_str(),
              static_cast<unsigned long long>(f.config.threads),
              static_cast<unsigned long long>(f.config.ops),
              static_cast<double>(f.config.epoch_ns) / 1e6);
  std::printf("elapsed %.3f virtual ms\n",
              static_cast<double>(f.config.elapsed_virtual_ns) / 1e6);

  if (!f.epochs.empty()) {
    // Run-wide windowed aggregates + the most recent epoch's instantaneous view.
    std::vector<double> xbi_series;
    std::vector<double> mops_series;
    uint64_t prev_t = 0;
    for (const metrics::EpochRecord& e : f.epochs) {
      xbi_series.push_back(e.WindowXbi());
      uint64_t dt = e.t_ns - prev_t;
      mops_series.push_back(dt == 0 ? 0.0
                                    : static_cast<double>(e.TotalOps()) * 1e3 /
                                          static_cast<double>(dt));
      prev_t = e.t_ns;
    }
    const metrics::EpochRecord& last = f.epochs.back();
    std::printf("\n-- windowed series (%zu epochs) --\n", f.epochs.size());
    std::printf("  Mops |%s|\n", Spark(mops_series).c_str());
    std::printf("  XBI  |%s|\n", Spark(xbi_series).c_str());
    std::printf("\n-- last epoch (t=%.3f virtual ms) --\n",
                static_cast<double>(last.t_ns) / 1e6);
    std::printf("  Mops %8.3f   CLI %7.3f   XBI %7.3f   flush/op %6.2f   fence/op %6.2f\n",
                mops_series.back(), last.WindowCli(), last.WindowXbi(),
                last.TotalOps() == 0 ? 0.0
                                     : static_cast<double>(last.line_flushes) /
                                           static_cast<double>(last.TotalOps()),
                last.TotalOps() == 0 ? 0.0
                                     : static_cast<double>(last.fences) /
                                           static_cast<double>(last.TotalOps()));
    std::printf("  xpbuffer: resident %llu lines, insertions %llu, evictions %llu\n",
                static_cast<unsigned long long>(last.xpbuf_resident),
                static_cast<unsigned long long>(last.xpbuf_insertions),
                static_cast<unsigned long long>(last.xpbuf_evictions));
    if (!last.comp_bytes.empty()) {
      std::printf("  media bytes by component:");
      for (size_t c = 0; c < last.comp_bytes.size(); c++) {
        if (last.comp_bytes[c] == 0) {
          continue;
        }
        std::printf(" %s=%llu",
                    c < f.components.size() ? f.components[c].c_str() : "?",
                    static_cast<unsigned long long>(last.comp_bytes[c]));
      }
      std::printf("\n");
    }
    if (!last.gauges.empty()) {
      std::printf("  index gauges:");
      for (const auto& [name, value] : last.gauges) {
        std::printf(" %s=%llu", name.c_str(), static_cast<unsigned long long>(value));
      }
      std::printf("\n");
    }
  } else {
    std::printf("\n(no epoch records)\n");
  }

  if (!f.virt.empty()) {
    std::printf("\n-- per-op latency (virtual ns | wall ns) --\n");
    std::printf("  %-8s %12s %10s %10s %10s | %10s %10s %10s\n", "op", "count", "p50", "p99",
                "p999", "p50", "p99", "p999");
    for (size_t k = 0; k < f.virt.size(); k++) {
      const metrics::OpLatencySummary& v = f.virt[k];
      if (v.count == 0) {
        continue;
      }
      const metrics::OpLatencySummary w =
          k < f.wall.size() ? f.wall[k] : metrics::OpLatencySummary{};
      std::printf("  %-8s %12llu %10llu %10llu %10llu | %10llu %10llu %10llu\n",
                  f.op_kinds[k].c_str(),
                  static_cast<unsigned long long>(v.count),
                  static_cast<unsigned long long>(v.p50_ns),
                  static_cast<unsigned long long>(v.p99_ns),
                  static_cast<unsigned long long>(v.p999_ns),
                  static_cast<unsigned long long>(w.p50_ns),
                  static_cast<unsigned long long>(w.p99_ns),
                  static_cast<unsigned long long>(w.p999_ns));
    }
  }

  size_t bad = CheckEpochComponentSums(f);
  if (bad != 0) {
    std::printf("\nWARNING: %zu epoch(s) violate the component-sum invariant\n", bad);
    return 3;
  }
  return 0;
}

// CSV: one row per epoch, stable column order derived from the names tables
// (gauge columns from the first epoch's gauge list). The reader has checked
// every epoch array against its names table.
int CmdSeries(const PmDump& f) {
  std::string head = "epoch,t_ns";
  for (const std::string& k : f.op_kinds) {
    head += ",ops_" + k + ",p50_ns_" + k + ",p99_ns_" + k + ",p999_ns_" + k;
  }
  head +=
      ",user_bytes,xpbuffer_write_bytes,media_write_bytes,media_read_bytes,"
      "line_flushes,fences,window_cli,window_xbi";
  for (const std::string& c : f.components) {
    head += ",mwB_" + c;
  }
  head += ",xpbuf_resident,xpbuf_insertions,xpbuf_evictions";
  for (const std::string& c : f.counters) {
    head += "," + c;
  }
  if (!f.epochs.empty()) {
    for (const auto& [name, value] : f.epochs.front().gauges) {
      (void)value;
      head += ",gauge_" + name;
    }
  }
  std::printf("%s\n", head.c_str());
  auto cell = [](uint64_t v) { return std::to_string(v); };
  for (const metrics::EpochRecord& e : f.epochs) {
    std::string row = cell(e.index) + "," + cell(e.t_ns);
    for (size_t k = 0; k < e.ops.size(); k++) {
      row += "," + cell(e.ops[k]) + "," + cell(e.p50_ns[k]) + "," + cell(e.p99_ns[k]) + "," +
             cell(e.p999_ns[k]);
    }
    row += "," + cell(e.user_bytes) + "," + cell(e.xpbuffer_write_bytes) + "," +
           cell(e.media_write_bytes) + "," + cell(e.media_read_bytes) + "," +
           cell(e.line_flushes) + "," + cell(e.fences);
    char amp[64];
    std::snprintf(amp, sizeof(amp), ",%.6f,%.6f", e.WindowCli(), e.WindowXbi());
    row += amp;
    for (uint64_t v : e.comp_bytes) {
      row += "," + cell(v);
    }
    row += "," + cell(e.xpbuf_resident) + "," + cell(e.xpbuf_insertions) + "," +
           cell(e.xpbuf_evictions);
    for (uint64_t v : e.counters) {
      row += "," + cell(v);
    }
    for (const auto& [name, value] : e.gauges) {
      (void)name;
      row += "," + cell(value);
    }
    std::printf("%s\n", row.c_str());
  }
  // The CI contract: a series export fails loudly when any epoch's
  // per-component bytes do not sum to the windowed media-write delta.
  return CheckEpochComponentSums(f) == 0 ? 0 : 3;
}

int Usage() {
  std::cerr
      << "usage: pmctl <stats|heatmap|trace|check|locks|top|series> <dump.pmdump> [options]\n"
         "  stats   <dump>              counters, amplification, per-component breakdown\n"
         "  heatmap <dump> [--cols N]   ASCII XPLine write heatmap (default 64 cols)\n"
         "  trace   <dump> [-o f.json]  Chrome trace JSON to f.json (default stdout)\n"
         "  check   <dump>              pmcheck persistency report; exit 3 on violations\n"
         "  locks   <dump>              lockcheck locking report; exit 3 on violations\n"
         "  top     <dump>              terminal dashboard (one-shot; `watch -n1` for live)\n"
         "  series  <dump>              per-epoch series (rates over virtual time) as CSV;\n"
         "                              exit 3 on component-sum violation\n"
         "Produce dumps by running any bench with CCL_DUMP=<path-prefix> (add\n"
         "CCL_TRACE=1 for the event rings and heatmap that `trace` / `heatmap` read,\n"
         "CCL_PMCHECK=1 / CCL_LOCKCHECK=1 for the sections `check` / `locks` read).\n";
  return 64;
}

int Main(int argc, char** argv) {
  if (argc < 3) {
    return Usage();
  }
  std::string cmd = argv[1];
  PmDump d;
  std::string error;
  if (!metrics::ReadPmDump(argv[2], &d, &error)) {
    std::fprintf(stderr, "pmctl: %s\n", error.c_str());
    return 1;
  }
  if (cmd == "stats") {
    return CmdStats(d);
  }
  if (cmd == "check") {
    return CmdCheckSection(d, "pmcheck", "CCL_PMCHECK");
  }
  if (cmd == "locks") {
    return CmdCheckSection(d, "lockcheck", "CCL_LOCKCHECK");
  }
  if (cmd == "top") {
    return CmdTop(d);
  }
  if (cmd == "series") {
    return CmdSeries(d);
  }
  if (cmd == "heatmap") {
    int columns = 64;
    for (int i = 3; i + 1 < argc; i++) {
      if (std::strcmp(argv[i], "--cols") == 0) {
        columns = std::atoi(argv[i + 1]);
      }
    }
    if (columns <= 0) {
      return Usage();
    }
    return CmdHeatmap(d, columns);
  }
  if (cmd == "trace") {
    std::string out_path;
    for (int i = 3; i + 1 < argc; i++) {
      if (std::strcmp(argv[i], "-o") == 0) {
        out_path = argv[i + 1];
      }
    }
    return CmdTrace(d, out_path);
  }
  return Usage();
}

}  // namespace
}  // namespace cclbt::pmctl

int main(int argc, char** argv) { return cclbt::pmctl::Main(argc, argv); }
