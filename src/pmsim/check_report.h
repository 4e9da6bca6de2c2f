// The report core shared by the simulator's checkers — pmcheck (DESIGN.md
// §11) and lockcheck (§16). Both checkers count findings per class, whitelist
// intentional exceptions with a scoped Expect, materialize a capped list of
// diagnostics that each carry the tail of a recent-event ring, and append one
// section to the .pmtrace dump. All of that lives here once; a checker adds
// only its class enum, its per-diagnostic location fields and its stats.
//
// Retention rule: at most kMaxCheckDiagnostics violations and
// kMaxCheckInfoDiagnostics informational findings are materialized. Counts
// stay exact either way. A dropped *violation* bumps diagnostics_truncated
// (the list is incomplete, so a capped run must never read as
// clean-and-complete); a dropped informational finding does not, because
// info never gates a verdict.
//
// Dump section grammar (inside a `pmtrace 2` dump, DESIGN.md §8). Every line
// names its checker, so pmcheck and lockcheck sections share one reader:
//
//   check     <checker>
//   checkstat <checker> <name> <value>
//   checkclass <checker> <class> <count> <suppressed> <info>
//   checkdiag <checker> <class> <info 0|1> <component> <worker> <detail> [key=value...]
//   checkev   <checker> <kind> <component> <worker> [key=value...]
//
// checkev lines belong to the checkdiag line before them (its recent events,
// oldest first). The key=value tail carries the checker's own fields.
#ifndef SRC_PMSIM_CHECK_REPORT_H_
#define SRC_PMSIM_CHECK_REPORT_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "src/trace/component.h"

namespace cclbt::pmsim {

inline constexpr size_t kCheckEventRing = 64;
inline constexpr size_t kCheckRecentEventsPerDiagnostic = 8;
inline constexpr size_t kMaxCheckDiagnostics = 256;
// Informational findings materialize into their own small budget so a flood
// of downgraded findings cannot crowd out real violations.
inline constexpr size_t kMaxCheckInfoDiagnostics = 16;

// A checker report in its dump form — the one schema the section writer
// emits, the reader returns and `pmctl check` / `pmctl locks` render.
struct CheckSection {
  struct ClassRow {
    std::string name;
    uint64_t count = 0;
    uint64_t suppressed = 0;
    uint64_t info = 0;
    bool operator==(const ClassRow&) const = default;
  };
  struct Event {
    std::string kind;
    std::string comp;
    uint64_t worker = 0;
    std::string fields;  // checker-specific "key=value ..." ("" when none)
    bool operator==(const Event&) const = default;
  };
  struct Diagnostic {
    std::string cls;
    bool info = false;
    std::string comp;
    uint64_t worker = 0;
    std::string detail;
    std::string where;  // checker-specific location, "key=value ..."
    std::vector<Event> recent;
    bool operator==(const Diagnostic&) const = default;
  };

  std::string checker;  // "pmcheck" / "lockcheck"
  std::vector<std::pair<std::string, uint64_t>> stats;  // dump order
  std::vector<ClassRow> classes;
  std::vector<Diagnostic> diagnostics;

  uint64_t total() const;
  uint64_t total_suppressed() const;
  uint64_t total_info() const;
  bool operator==(const CheckSection&) const = default;
};

// Exit status for one checker's section of a dump: 2 when the checker was
// off for the run (`section` null), 0 when clean, 3 on violations.
// Informational findings never gate it.
int CheckVerdict(const CheckSection* section);

// Writer: appends `section` to the dump at `path`. Returns false if the
// file cannot be written.
bool AppendCheckSection(const std::string& path, const CheckSection& section);

// Reader: feed it every line of a dump. Section lines are parsed into
// `sections` (one entry per checker, in dump order); all other lines are
// ignored. Returns false and sets `error` on a malformed section line.
bool ParseCheckSectionLine(const std::string& line, std::vector<CheckSection>* sections,
                           std::string* error);

// The section of `checker` in `sections`, or null when that checker was off.
const CheckSection* FindCheckSection(const std::vector<CheckSection>& sections,
                                     const std::string& checker);

// Per-class counts and the materialized diagnostics of one checker.
// `Diagnostic` derives from CheckDiagnostic below and provides
// `std::string Where() const`; its event type provides
// `std::string Fields() const`. Class names come from the CheckClassName /
// CheckEventKindName overloads of the checker's enums.
template <typename Class, typename Diagnostic>
struct CheckReport {
  static constexpr size_t kNumClasses = static_cast<size_t>(Class::kCount);

  bool enabled = false;
  std::array<uint64_t, kNumClasses> counts{};
  std::array<uint64_t, kNumClasses> suppressed{};
  // Informational occurrences (classes downgraded to info). Never part of
  // total(), never gate an exit status.
  std::array<uint64_t, kNumClasses> info{};
  // Violations beyond the retention cap are counted but not materialized; a
  // nonzero value means the list below is incomplete.
  uint64_t diagnostics_truncated = 0;
  std::vector<Diagnostic> diagnostics;

  // Unsuppressed violations (what `pmctl check` / `pmctl locks` gate on).
  uint64_t total() const { return Sum(counts); }
  uint64_t total_suppressed() const { return Sum(suppressed); }
  uint64_t total_info() const { return Sum(info); }

  // Dump form. `stats` are the checker's own stats in dump order;
  // diagnostics_truncated is appended after them.
  CheckSection Section(const char* checker,
                       std::vector<std::pair<std::string, uint64_t>> stats) const {
    CheckSection s;
    s.checker = checker;
    s.stats = std::move(stats);
    s.stats.emplace_back("diagnostics_truncated", diagnostics_truncated);
    for (size_t c = 0; c < kNumClasses; c++) {
      s.classes.push_back(
          {CheckClassName(static_cast<Class>(c)), counts[c], suppressed[c], info[c]});
    }
    for (const Diagnostic& d : diagnostics) {
      CheckSection::Diagnostic sd{CheckClassName(d.cls), d.info, trace::ComponentName(d.comp),
                                  d.worker, d.detail, d.Where(), {}};
      for (const auto& ev : d.recent) {
        sd.recent.push_back(
            {CheckEventKindName(ev.kind), trace::ComponentName(ev.comp), ev.worker, ev.Fields()});
      }
      s.diagnostics.push_back(std::move(sd));
    }
    return s;
  }

 private:
  static uint64_t Sum(const std::array<uint64_t, kNumClasses>& a) {
    uint64_t sum = 0;
    for (uint64_t v : a) {
      sum += v;
    }
    return sum;
  }
};

// Fields every checker diagnostic carries.
template <typename Class, typename Event>
struct CheckDiagnostic {
  Class cls{};
  trace::Component comp = trace::Component::kOther;
  uint16_t worker = 0;
  // Static single-token cause string (no spaces; dump-format safe).
  const char* detail = "";
  // True for informational findings (never gate a verdict).
  bool info = false;
  // Up to kCheckRecentEventsPerDiagnostic events preceding the finding,
  // oldest first.
  std::vector<Event> recent;
};

// Scoped whitelist for an *intentional* violation: while alive on the
// calling thread, findings of `cls` raised by this thread are counted as
// suppressed instead of reported. RAII + thread-local depth, so scopes nest
// and never leak suppression across threads. Zero device dependency:
// annotated code builds and runs unchanged when the checker is off.
template <typename Class>
class CheckExpect {
 public:
  explicit CheckExpect(Class cls) : cls_(cls) { depth_[static_cast<size_t>(cls_)]++; }
  ~CheckExpect() { depth_[static_cast<size_t>(cls_)]--; }

  CheckExpect(const CheckExpect&) = delete;
  CheckExpect& operator=(const CheckExpect&) = delete;

  // True if the calling thread is inside an Expect scope for `cls`.
  static bool ActiveFor(Class cls) { return depth_[static_cast<size_t>(cls)] > 0; }

 private:
  // constinit: no TLS init guard on the ActiveFor fast path.
  static inline constinit thread_local int depth_[static_cast<size_t>(Class::kCount)] = {};
  Class cls_;
};

// Checker-side state behind a CheckReport: the capped diagnostic sink and
// the recent-event ring. Not thread-safe — the owning checker calls it under
// its own mutex.
template <typename Class, typename Event, typename Diagnostic>
class CheckRecorder {
 public:
  using Report = CheckReport<Class, Diagnostic>;

  CheckRecorder() { report_.diagnostics.reserve(64); }

  // The next ring slot; the caller fills every field.
  Event& NextEvent() { return events_[events_seen_++ % kCheckEventRing]; }

  // Counts one finding of `cls` and returns its diagnostic — common fields
  // and recent events filled, location fields left to the caller — or null
  // when an Expect scope suppressed it or the retention cap dropped it.
  Diagnostic* Raise(Class cls, bool info, trace::Component comp, uint16_t worker,
                    const char* detail) {
    const auto idx = static_cast<size_t>(cls);
    if (CheckExpect<Class>::ActiveFor(cls)) {
      report_.suppressed[idx]++;
      return nullptr;
    }
    if (info) {
      report_.info[idx]++;
      if (info_materialized_ >= kMaxCheckInfoDiagnostics) {
        return nullptr;  // counted above; info overflow is not "dropped" data
      }
      info_materialized_++;
    } else {
      report_.counts[idx]++;
      if (report_.diagnostics.size() - info_materialized_ >= kMaxCheckDiagnostics) {
        report_.diagnostics_truncated++;
        return nullptr;
      }
    }
    Diagnostic& d = report_.diagnostics.emplace_back();
    d.cls = cls;
    d.comp = comp;
    d.worker = worker;
    d.detail = detail;
    d.info = info;
    const size_t n = events_seen_ < kCheckRecentEventsPerDiagnostic
                         ? static_cast<size_t>(events_seen_)
                         : kCheckRecentEventsPerDiagnostic;
    d.recent.reserve(n);
    for (uint64_t i = events_seen_ - n; i < events_seen_; i++) {
      d.recent.push_back(events_[i % kCheckEventRing]);
    }
    return &d;
  }

  // Copies the counts and diagnostics so far into `out` (a checker's
  // report type, derived from Report) and marks it enabled.
  void Fill(Report* out) const {
    *out = report_;
    out->enabled = true;
  }

 private:
  Report report_;
  size_t info_materialized_ = 0;
  std::array<Event, kCheckEventRing> events_{};
  uint64_t events_seen_ = 0;
};

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_CHECK_REPORT_H_
