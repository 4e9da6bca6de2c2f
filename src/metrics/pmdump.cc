#include "src/metrics/pmdump.h"

#include <charconv>
#include <fstream>
#include <sstream>
#include <string_view>

namespace cclbt::metrics {

namespace {

// The integer config keys, in dump order (after `config backend`).
constexpr std::pair<const char*, uint64_t PmDump::Config::*> kConfigFields[] = {
    {"pool_bytes", &PmDump::Config::pool_bytes},
    {"num_sockets", &PmDump::Config::num_sockets},
    {"dimms_per_socket", &PmDump::Config::dimms_per_socket},
    {"xpline_bytes", &PmDump::Config::xpline_bytes},
    {"epoch_ns", &PmDump::Config::epoch_ns},
    {"threads", &PmDump::Config::threads},
    {"ops", &PmDump::Config::ops},
    {"elapsed_virtual_ns", &PmDump::Config::elapsed_virtual_ns},
};

// The names tables, in dump order. Each sets the width of the epoch arrays
// (and, for op_kinds, the virt/wall lines) indexed by it.
constexpr std::pair<const char*, std::vector<std::string> PmDump::*> kNameTables[] = {
    {"op_kinds", &PmDump::op_kinds},
    {"counters", &PmDump::counters},
    {"components", &PmDump::components},
};

// The fixed part of an epoch line after "epoch <i> <t_ns>", in dump order:
// a scalar, or an array as wide as the names table kNameTables[names]. The
// gauges follow as name=value.
struct EpochField {
  const char* key;
  uint64_t EpochRecord::*scalar;              // null for an array
  std::vector<uint64_t> EpochRecord::*array;  // null for a scalar
  int names;
};
constexpr EpochField kEpochFields[] = {
    {"ops", nullptr, &EpochRecord::ops, 0},
    {"p50_ns", nullptr, &EpochRecord::p50_ns, 0},
    {"p99_ns", nullptr, &EpochRecord::p99_ns, 0},
    {"p999_ns", nullptr, &EpochRecord::p999_ns, 0},
    {"user_bytes", &EpochRecord::user_bytes, nullptr, -1},
    {"xpbuffer_write_bytes", &EpochRecord::xpbuffer_write_bytes, nullptr, -1},
    {"media_write_bytes", &EpochRecord::media_write_bytes, nullptr, -1},
    {"media_read_bytes", &EpochRecord::media_read_bytes, nullptr, -1},
    {"line_flushes", &EpochRecord::line_flushes, nullptr, -1},
    {"fences", &EpochRecord::fences, nullptr, -1},
    {"comp_bytes", nullptr, &EpochRecord::comp_bytes, 2},
    {"xpbuf_resident", &EpochRecord::xpbuf_resident, nullptr, -1},
    {"xpbuf_insertions", &EpochRecord::xpbuf_insertions, nullptr, -1},
    {"xpbuf_evictions", &EpochRecord::xpbuf_evictions, nullptr, -1},
    {"counters", nullptr, &EpochRecord::counters, 1},
};

// --- writer -------------------------------------------------------------------

void WriteEpoch(std::ostream& out, const EpochRecord& e) {
  out << "epoch " << e.index << " " << e.t_ns;
  for (const EpochField& f : kEpochFields) {
    out << " " << f.key << "=";
    if (f.scalar != nullptr) {
      out << e.*f.scalar;
      continue;
    }
    const std::vector<uint64_t>& values = e.*f.array;
    for (size_t i = 0; i < values.size(); i++) {
      out << (i == 0 ? "" : ",") << values[i];
    }
  }
  for (const auto& [name, value] : e.gauges) {
    out << " " << name << "=" << value;
  }
  out << "\n";
}

void WriteLatency(std::ostream& out, const char* kw, const std::vector<std::string>& op_kinds,
                  const std::vector<OpLatencySummary>& rows) {
  for (size_t k = 0; k < rows.size(); k++) {
    const OpLatencySummary& s = rows[k];
    out << kw << " " << op_kinds.at(k) << " " << s.count << " " << s.p50_ns << " " << s.p99_ns
        << " " << s.p999_ns << " " << s.max_ns << "\n";
  }
}

// --- reader -------------------------------------------------------------------

bool ParseU64(std::string_view s, uint64_t* out) {
  auto [end, ec] = std::from_chars(s.data(), s.data() + s.size(), *out);
  return ec == std::errc() && end == s.data() + s.size() && !s.empty();
}

// True when every field extracted from `in` parsed and nothing follows.
bool Done(std::istringstream& in) {
  if (in.fail()) {
    return false;
  }
  if (!in.eof()) {
    in >> std::ws;
  }
  return in.eof();
}

// Splits "key=value" at its first '='; false when there is no key.
bool SplitKeyValue(std::string_view token, std::string_view* key, std::string_view* value) {
  size_t eq = token.find('=');
  if (eq == std::string_view::npos || eq == 0) {
    return false;
  }
  *key = token.substr(0, eq);
  *value = token.substr(eq + 1);
  return true;
}

// Appends the comma-separated integers of `value` ("" is an empty list).
bool ParseU64List(std::string_view value, std::vector<uint64_t>* out) {
  while (!value.empty()) {
    size_t comma = value.find(',');
    if (!ParseU64(value.substr(0, comma), &out->emplace_back())) {
      return false;
    }
    value = comma == std::string_view::npos ? std::string_view() : value.substr(comma + 1);
  }
  return true;
}

// Reads an epoch line: "epoch <i> <t_ns>", kEpochFields in order, then the
// gauges. Arrays must be as wide as their names table.
bool ParseEpoch(const std::string& line, const PmDump& d, EpochRecord* e, std::string* error) {
  std::istringstream in(line);
  std::string token;
  in >> token >> e->index >> e->t_ns;
  if (in.fail()) {
    *error = "malformed 'epoch' line";
    return false;
  }
  std::string_view key, value;
  for (const EpochField& f : kEpochFields) {
    if (!(in >> token) || !SplitKeyValue(token, &key, &value) || key != f.key) {
      *error = std::string("epoch line lacks '") + f.key + "=' where the writer puts it";
      return false;
    }
    if (f.scalar != nullptr ? !ParseU64(value, &(e->*f.scalar))
                            : !ParseU64List(value, &(e->*f.array))) {
      *error = std::string("malformed epoch ") + f.key + " value";
      return false;
    }
    if (f.array == nullptr) {
      continue;
    }
    const auto& [table, names] = kNameTables[f.names];
    if ((e->*f.array).size() != (d.*names).size()) {
      *error = std::string("epoch ") + f.key + " has " + std::to_string((e->*f.array).size()) +
               " entries; names " + table + " has " + std::to_string((d.*names).size());
      return false;
    }
  }
  while (in >> token) {
    uint64_t v = 0;
    if (!SplitKeyValue(token, &key, &value) || !ParseU64(value, &v)) {
      *error = "malformed epoch gauge '" + token + "'";
      return false;
    }
    e->gauges.emplace_back(std::string(key), v);
  }
  return true;
}

// Parses one record line after the version header. Returns false and sets
// *error (without the file:line prefix) on a malformed line.
bool ParseRecord(const std::string& line, PmDump* d, std::string* error) {
  std::istringstream in(line);
  std::string kw;
  in >> kw;
  auto malformed = [&] {
    *error = "malformed '" + kw + "' line";
    return false;
  };
  if (kw == "label") {
    in >> d->label;
    return Done(in) || malformed();
  }
  if (kw == "config") {
    std::string key;
    in >> key;
    if (key == "backend") {
      in >> d->config.backend;
      return Done(in) || malformed();
    }
    for (const auto& [name, member] : kConfigFields) {
      if (key == name) {
        in >> d->config.*member;
        return Done(in) || malformed();
      }
    }
    *error = "unknown config key '" + key + "'";
    return false;
  }
  if (kw == "names") {
    std::string table, name;
    in >> table;
    for (const auto& [tname, member] : kNameTables) {
      if (table == tname) {
        std::vector<std::string>& names = d->*member;
        names.clear();
        while (in >> name) {
          names.push_back(name);
        }
        return true;
      }
    }
    *error = "unknown names table '" + table + "'";
    return false;
  }
  if (kw == "stat") {
    std::string name;
    uint64_t value = 0;
    in >> name >> value;
    d->stats.emplace_back(name, value);
    return Done(in) || malformed();
  }
  if (kw == "stattag") {
    PmDump::TagRow row;
    in >> row.name >> row.writes;
    d->tags.push_back(row);
    return Done(in) || malformed();
  }
  if (kw == "statcomp") {
    PmDump::CompRow row;
    in >> row.name >> row.media_bytes >> row.committed_lines;
    d->comps.push_back(row);
    return Done(in) || malformed();
  }
  if (kw == "epoch") {
    EpochRecord e;
    if (!ParseEpoch(line, *d, &e, error)) {
      return false;
    }
    d->epochs.push_back(std::move(e));
    return true;
  }
  if (kw == "virt" || kw == "wall") {
    std::vector<OpLatencySummary>& rows = kw == "virt" ? d->virt : d->wall;
    std::string kind;
    OpLatencySummary s;
    in >> kind >> s.count >> s.p50_ns >> s.p99_ns >> s.p999_ns >> s.max_ns;
    if (!Done(in)) {
      return malformed();
    }
    if (rows.size() >= d->op_kinds.size() || d->op_kinds[rows.size()] != kind) {
      *error = "'" + kw + " " + kind + "' is out of names op_kinds order";
      return false;
    }
    rows.push_back(s);
    return true;
  }
  if (kw == "heat") {
    in >> d->heat_units >> d->heat_per_bin;
    return Done(in) || malformed();
  }
  if (kw == "heatbin") {
    trace::HeatBin bin;
    in >> bin.first_unit >> bin.units >> bin.writes >> bin.hottest_unit >> bin.hottest_writes;
    d->heat_bins.push_back(bin);
    return Done(in) || malformed();
  }
  if (kw == "ring") {
    trace::NamedRing ring;
    uint64_t retained = 0;  // implied by the event lines that follow
    in >> ring.worker_id >> ring.socket >> ring.emitted >> retained;
    d->rings.push_back(std::move(ring));
    return Done(in) || malformed();
  }
  if (kw == "event") {
    int worker = 0;
    uint64_t t_ns = 0, arg = 0;
    unsigned type = 0, comp = 0, aux = 0, dimm = 0;
    in >> worker >> t_ns >> type >> comp >> arg >> aux >> dimm;
    if (!Done(in) || type > UINT8_MAX || comp > UINT8_MAX || dimm > UINT16_MAX) {
      return malformed();
    }
    if (d->rings.empty() || d->rings.back().worker_id != worker) {
      *error = "event outside its ring";
      return false;
    }
    trace::TraceEvent ev;
    ev.t_ns = t_ns;
    ev.arg = arg;
    ev.aux = aux;
    ev.type = static_cast<uint8_t>(type);
    ev.comp = static_cast<uint8_t>(comp);
    ev.dimm = static_cast<uint16_t>(dimm);
    d->rings.back().events.push_back(ev);
    return true;
  }
  if (kw == "check" || kw == "checkstat" || kw == "checkclass" || kw == "checkdiag" ||
      kw == "checkev") {
    return pmsim::ParseCheckSectionLine(line, &d->checks, error);
  }
  *error = "unknown record '" + kw + "'";
  return false;
}

}  // namespace

OpLatencySummary SummarizeHistogram(const Histogram& h) {
  OpLatencySummary s;
  s.count = h.Count();
  s.p50_ns = h.Percentile(50);
  s.p99_ns = h.Percentile(99);
  s.p999_ns = h.Percentile(99.9);
  s.max_ns = h.Max();
  return s;
}

uint64_t PmDump::Stat(const std::string& name) const {
  for (const auto& [k, v] : stats) {
    if (k == name) {
      return v;
    }
  }
  return 0;
}

std::string SanitizeLabel(const std::string& label) {
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

void WritePmDump(std::ostream& out, const PmDump& d) {
  out << "pmdump " << kPmDumpVersion << "\n";
  out << "label " << SanitizeLabel(d.label) << "\n";
  out << "config backend " << d.config.backend << "\n";
  for (const auto& [name, member] : kConfigFields) {
    out << "config " << name << " " << d.config.*member << "\n";
  }
  for (const auto& [table, member] : kNameTables) {
    out << "names " << table;
    for (const std::string& name : d.*member) {
      out << " " << name;
    }
    out << "\n";
  }
  for (const auto& [name, value] : d.stats) {
    out << "stat " << name << " " << value << "\n";
  }
  for (const PmDump::TagRow& row : d.tags) {
    out << "stattag " << row.name << " " << row.writes << "\n";
  }
  for (const PmDump::CompRow& row : d.comps) {
    out << "statcomp " << row.name << " " << row.media_bytes << " " << row.committed_lines
        << "\n";
  }
  for (const EpochRecord& e : d.epochs) {
    WriteEpoch(out, e);
  }
  WriteLatency(out, "virt", d.op_kinds, d.virt);
  WriteLatency(out, "wall", d.op_kinds, d.wall);
  if (d.heat_units != 0) {
    out << "heat " << d.heat_units << " " << d.heat_per_bin << "\n";
    for (const trace::HeatBin& bin : d.heat_bins) {
      out << "heatbin " << bin.first_unit << " " << bin.units << " " << bin.writes << " "
          << bin.hottest_unit << " " << bin.hottest_writes << "\n";
    }
  }
  for (const trace::NamedRing& ring : d.rings) {
    out << "ring " << ring.worker_id << " " << ring.socket << " " << ring.emitted << " "
        << ring.events.size() << "\n";
    for (const trace::TraceEvent& ev : ring.events) {
      out << "event " << ring.worker_id << " " << ev.t_ns << " " << static_cast<int>(ev.type)
          << " " << static_cast<int>(ev.comp) << " " << ev.arg << " " << ev.aux << " "
          << ev.dimm << "\n";
    }
  }
  for (const pmsim::CheckSection& section : d.checks) {
    pmsim::WriteCheckSection(out, section);
  }
}

std::string SerializeEpochSeries(const EpochSeries& series) {
  std::ostringstream out;
  for (const EpochRecord& e : series) {
    WriteEpoch(out, e);
  }
  return out.str();
}

bool ReadPmDump(const std::string& path, PmDump* out, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  *out = PmDump{};
  std::string line;
  size_t lineno = 0;
  bool saw_version = false;
  auto fail = [&](const std::string& what) {
    *error = path + ":" + std::to_string(lineno) + ": " + what;
    return false;
  };
  while (std::getline(in, line)) {
    lineno++;
    if (line.empty() || line[0] == '#') {
      continue;
    }
    if (!saw_version) {
      std::istringstream head(line);
      std::string kw;
      int version = 0;
      head >> kw >> version;
      if (line[0] == '{') {
        return fail("a JSON .pmmetrics dump from an older writer; this reader takes pmdump " +
                    std::to_string(kPmDumpVersion) + " (rerun with CCL_DUMP=<prefix>)");
      }
      if (kw == "pmtrace") {
        return fail("a pmtrace " + std::to_string(version) +
                    " dump from an older writer; this reader takes pmdump " +
                    std::to_string(kPmDumpVersion) + " (rerun with CCL_DUMP=<prefix>)");
      }
      if (kw != "pmdump" || version != kPmDumpVersion) {
        return fail("not a pmdump " + std::to_string(kPmDumpVersion) + " file (header '" +
                    line + "')");
      }
      saw_version = true;
      continue;
    }
    std::string what;
    if (!ParseRecord(line, out, &what)) {
      return fail(what);
    }
  }
  if (!saw_version) {
    return fail("empty file, no pmdump header");
  }
  return true;
}

}  // namespace cclbt::metrics
