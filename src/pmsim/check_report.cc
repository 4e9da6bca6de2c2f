#include "src/pmsim/check_report.h"

#include <fstream>
#include <sstream>

namespace cclbt::pmsim {

namespace {

// The rest of `in` after its current position, minus the separating space
// ("" at end of line). std::ws on a stream already at its end would set
// failbit, so it is only applied before the end.
std::string Rest(std::istringstream& in) {
  std::string rest;
  if (!in.eof() && !(in >> std::ws).eof()) {
    std::getline(in, rest);
  }
  return rest;
}

void AppendFields(std::ostream& out, const std::string& fields) {
  if (!fields.empty()) {
    out << " " << fields;
  }
}

}  // namespace

uint64_t CheckSection::total() const {
  uint64_t sum = 0;
  for (const ClassRow& row : classes) {
    sum += row.count;
  }
  return sum;
}

uint64_t CheckSection::total_suppressed() const {
  uint64_t sum = 0;
  for (const ClassRow& row : classes) {
    sum += row.suppressed;
  }
  return sum;
}

uint64_t CheckSection::total_info() const {
  uint64_t sum = 0;
  for (const ClassRow& row : classes) {
    sum += row.info;
  }
  return sum;
}

int CheckVerdict(const CheckSection* section) {
  if (section == nullptr) {
    return 2;
  }
  return section->total() == 0 ? 0 : 3;
}

void WriteCheckSection(std::ostream& out, const CheckSection& s) {
  const std::string& c = s.checker;
  out << "check " << c << "\n";
  for (const auto& [name, value] : s.stats) {
    out << "checkstat " << c << " " << name << " " << value << "\n";
  }
  for (const CheckSection::ClassRow& row : s.classes) {
    out << "checkclass " << c << " " << row.name << " " << row.count << " " << row.suppressed
        << " " << row.info << "\n";
  }
  for (const CheckSection::Diagnostic& d : s.diagnostics) {
    out << "checkdiag " << c << " " << d.cls << " " << (d.info ? 1 : 0) << " " << d.comp << " "
        << d.worker << " " << d.detail;
    AppendFields(out, d.where);
    out << "\n";
    for (const CheckSection::Event& ev : d.recent) {
      out << "checkev " << c << " " << ev.kind << " " << ev.comp << " " << ev.worker;
      AppendFields(out, ev.fields);
      out << "\n";
    }
  }
}

bool AppendCheckSection(const std::string& path, const CheckSection& s) {
  std::ofstream out(path, std::ios::app);
  if (!out) {
    return false;
  }
  WriteCheckSection(out, s);
  out.flush();
  return static_cast<bool>(out);
}

bool ParseCheckSectionLine(const std::string& line, std::vector<CheckSection>* sections,
                           std::string* error) {
  std::istringstream in(line);
  std::string kw;
  std::string checker;
  in >> kw >> checker;
  if (kw != "check" && kw != "checkstat" && kw != "checkclass" && kw != "checkdiag" &&
      kw != "checkev") {
    return true;  // not a section line
  }
  if (kw == "check") {
    if (checker.empty()) {
      *error = "malformed 'check' line";
      return false;
    }
    sections->push_back(CheckSection{});
    sections->back().checker = checker;
    return true;
  }
  CheckSection* s = nullptr;
  for (CheckSection& candidate : *sections) {
    if (candidate.checker == checker) {
      s = &candidate;
    }
  }
  if (s == nullptr) {
    *error = "'" + kw + "' line before its 'check " + checker + "' header";
    return false;
  }
  if (kw == "checkstat") {
    std::string name;
    uint64_t value = 0;
    in >> name >> value;
    s->stats.emplace_back(name, value);
  } else if (kw == "checkclass") {
    CheckSection::ClassRow row;
    in >> row.name >> row.count >> row.suppressed >> row.info;
    s->classes.push_back(row);
  } else if (kw == "checkdiag") {
    CheckSection::Diagnostic d;
    int info = 0;
    in >> d.cls >> info >> d.comp >> d.worker >> d.detail;
    d.info = info != 0;
    d.where = Rest(in);
    s->diagnostics.push_back(std::move(d));
  } else {
    if (s->diagnostics.empty()) {
      *error = "checkev outside a diagnostic";
      return false;
    }
    CheckSection::Event ev;
    in >> ev.kind >> ev.comp >> ev.worker;
    ev.fields = Rest(in);
    s->diagnostics.back().recent.push_back(std::move(ev));
  }
  if (in.fail()) {
    *error = "malformed '" + kw + "' line";
    return false;
  }
  return true;
}

const CheckSection* FindCheckSection(const std::vector<CheckSection>& sections,
                                     const std::string& checker) {
  for (const CheckSection& s : sections) {
    if (s.checker == checker) {
      return &s;
    }
  }
  return nullptr;
}

}  // namespace cclbt::pmsim
