// Tests for pmcheck, the persistency-ordering checker (DESIGN.md §11): one
// deliberately-buggy driver per diagnostic class asserting the exact
// diagnostic fires, suppression via PmCheckExpect, crash-injection
// interaction, the shared retention cap, the dump-section round trip with
// its verdict, and a clean-run check over a cclbtree fig10-micro workload.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/pmsim/device.h"
#include "src/pmsim/pmcheck.h"

namespace cclbt::pmsim {
namespace {

// The CI harness runs the whole suite with CCL_PMCHECK=1 and (in the
// backend-matrix step) with CCL_BACKEND set; these tests opt in explicitly
// per device and assert the per-backend rule tables themselves, so drop both
// overrides to keep the assertions valid in any environment.
[[maybe_unused]] const bool g_env_cleared = [] {
  unsetenv("CCL_PMCHECK");
  unsetenv("CCL_BACKEND");
  return true;
}();

DeviceConfig CheckedConfig() {
  DeviceConfig config;
  config.pool_bytes = 16 << 20;
  config.num_sockets = 2;
  config.dimms_per_socket = 2;
  config.pmcheck = true;
  return config;
}

// Writes one word into the working image (a plain PM store).
void Store(PmDevice& device, uintptr_t offset, uint64_t value) {
  std::memcpy(device.base() + offset, &value, sizeof(value));
}

PmCheckReport Report(PmDevice& device) { return device.pmcheck()->Snapshot(); }

uint64_t Count(const PmCheckReport& report, PmCheckClass cls) {
  return report.counts[static_cast<size_t>(cls)];
}

TEST(PmCheck, EnabledViaConfigDisabledByDefault) {
  PmDevice off{DeviceConfig{}};
  EXPECT_EQ(off.pmcheck(), nullptr);
  PmDevice on{CheckedConfig()};
  ASSERT_NE(on.pmcheck(), nullptr);
  // The checker needs the shadow image even if the caller disabled it.
  DeviceConfig no_shadow = CheckedConfig();
  no_shadow.crash_tracking = false;
  PmDevice forced{no_shadow};
  ASSERT_NE(forced.pmcheck(), nullptr);
  EXPECT_TRUE(forced.config().crash_tracking);
}

// The eADR backend keeps the checker ON but applies its rule table
// (DESIGN.md §14): flush/fence discipline classes are downgraded to
// informational (they are waste, not bugs, in a flush-free domain) while
// unflushed-at-close still reports — a store never flushed is not durable
// even under eADR's model.
TEST(PmCheck, EadrDowngradesFlushDisciplineToInfo) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xE1);
  device.FlushLine(ctx, device.base() + 64);  // dirty: durable now, no diag
  device.FlushLine(ctx, device.base() + 64);  // clean re-flush: info only
  device.Fence(ctx);                          // fence in flush-free domain: info
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u) << "downgraded classes must not count as violations";
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kRedundantFlush)], 1u);
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kUselessFence)], 1u);
  // The materialized diagnostics carry the info flag for pmctl.
  bool saw_info_diag = false;
  for (const PmCheckDiagnostic& d : report.diagnostics) {
    saw_info_diag |= d.info;
  }
  EXPECT_TRUE(saw_info_diag);
}

// eADR rule table, off classes: a store that stays dirty across a fence is
// not a hazard when persistence does not hinge on flush ordering.
TEST(PmCheck, EadrDirtyAtFenceIsOff) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  Store(device, 128, 0xE2);
  device.Fence(ctx);  // dirty line at fence: kOff on eADR
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kDirtyAtFence), 0u);
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kDirtyAtFence)], 0u);
}

// eADR rule table, still-real class: closing the device with a never-flushed
// store reports — even the flush-free domain only persists what reached it.
TEST(PmCheck, EadrUnflushedAtCloseStillReports) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ASSERT_NE(device.pmcheck(), nullptr);
  ThreadContext ctx(device, 0, 0);
  Store(device, 192, 0xE3);  // never flushed
  device.DrainBuffers();
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUnflushedAtClose), 1u);
}

// Class 1a: FlushLine on a line whose content already equals the durable
// image persists nothing.
TEST(PmCheck, RedundantFlushOfCleanLine) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xA1);
  device.FlushLine(ctx, device.base() + 64);
  device.Fence(ctx);
  EXPECT_EQ(Report(device).total(), 0u) << "store+flush+fence is the clean pattern";
  // No store since the line went durable: this flush is pure waste.
  device.FlushLine(ctx, device.base() + 64);
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kRedundantFlush), 1u);
  EXPECT_EQ(report.total(), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kRedundantFlush);
  EXPECT_STREQ(report.diagnostics[0].detail, "flush_of_clean_line");
  EXPECT_EQ(report.diagnostics[0].line, 64u);
}

// Class 1b: re-flush of an already-pending line with unchanged content.
TEST(PmCheck, RedundantFlushOfPendingLine) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 128, 0xB2);
  device.FlushLine(ctx, device.base() + 128);
  device.FlushLine(ctx, device.base() + 128);  // nothing changed in between
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kRedundantFlush), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_STREQ(report.diagnostics[0].detail, "reflush_of_pending_line_with_unchanged_content");
}

// Re-flush after a re-dirty is the *correct* fix for dirty-at-fence: neither
// class 1 nor class 3 may fire.
TEST(PmCheck, ReflushAfterRedirtyIsClean) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 192, 0xC3);
  device.FlushLine(ctx, device.base() + 192);
  Store(device, 192, 0xC4);                    // re-dirty
  device.FlushLine(ctx, device.base() + 192);  // re-flush covers it
  device.Fence(ctx);
  EXPECT_EQ(Report(device).total(), 0u);
}

// Class 2: a fence with zero pending lines orders nothing.
TEST(PmCheck, UselessFence) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUselessFence), 1u);
  EXPECT_EQ(report.total(), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kUselessFence);
  EXPECT_STREQ(report.diagnostics[0].detail, "fence_with_no_pending_lines");
  EXPECT_EQ(report.fence_epochs, 1u);
}

// Class 3: line re-dirtied between its flush and the fence — on real
// hardware the clwb captured the old content (torn-write risk).
TEST(PmCheck, DirtyAtFence) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 256, 0xD4);
  device.FlushLine(ctx, device.base() + 256);
  Store(device, 256, 0xD5);  // re-dirty, no re-flush
  device.Fence(ctx);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kDirtyAtFence), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kDirtyAtFence);
  EXPECT_STREQ(report.diagnostics[0].detail, "line_redirtied_between_flush_and_fence");
  EXPECT_EQ(report.diagnostics[0].line, 256u);
}

// Class 4: lines still dirty when the pool closes, in both flavors.
TEST(PmCheck, UnflushedAtClose) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xE5);   // stored, never flushed
  Store(device, 320, 0xE6);  // stored + flushed, never fenced
  device.FlushLine(ctx, device.base() + 320);
  device.DrainBuffers();
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUnflushedAtClose), 2u);
  ASSERT_EQ(report.diagnostics.size(), 2u);
  // The close scan walks the pool in address order.
  EXPECT_EQ(report.diagnostics[0].line, 64u);
  EXPECT_STREQ(report.diagnostics[0].detail, "line_stored_but_never_flushed_at_close");
  EXPECT_EQ(report.diagnostics[1].line, 320u);
  EXPECT_STREQ(report.diagnostics[1].detail, "line_flushed_but_never_fenced_at_close");
  // A second close must not re-report the same lines.
  device.DrainBuffers();
  EXPECT_EQ(Count(Report(device), PmCheckClass::kUnflushedAtClose), 2u);
}

// Class 4, crash flavor: a crash nobody scheduled reports in-flight lines...
TEST(PmCheck, UnflushedAtUnplannedCrash) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 448, 0xF7);
  device.FlushLine(ctx, device.base() + 448);  // flushed, never fenced
  device.Crash();
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUnflushedAtClose), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_STREQ(report.diagnostics[0].detail, "line_flushed_but_never_fenced_at_crash");
  // ...and the crash resets line state: the restored pool is all-clean.
  device.DrainBuffers();
  EXPECT_EQ(Report(device).total(), 1u);
}

// ...but an injector-scheduled crash is the harness doing its job: in-flight
// state at the injected fence is expected, not a bug.
TEST(PmCheck, InjectedCrashIsNotAViolation) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  CrashInjector injector;
  device.SetCrashInjector(&injector);
  injector.Arm(1);
  Store(device, 512, 0xA8);
  device.FlushLine(ctx, device.base() + 512);
  EXPECT_THROW(device.Fence(ctx), CrashPointReached);
  device.Crash();
  device.SetCrashInjector(nullptr);
  EXPECT_EQ(Report(device).total(), 0u);
}

// Class 5: reading a line another context flushed but has not fenced durable.
TEST(PmCheck, ReadBeforeDurableAcrossContexts) {
  PmDevice device{CheckedConfig()};
  ThreadContext writer(device, 0, 0);
  Store(device, 576, 0xB9);
  device.FlushLine(writer, device.base() + 576);
  // The owner may read its own pending line (it knows what it wrote).
  device.ReadPm(writer, device.base() + 576, 8);
  EXPECT_EQ(Report(device).total(), 0u);
  ThreadContext reader(device, 1, 1);
  device.ReadPm(reader, device.base() + 576, 8);
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kReadBeforeDurable), 1u);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.diagnostics[0].cls, PmCheckClass::kReadBeforeDurable);
  EXPECT_STREQ(report.diagnostics[0].detail, "read_of_line_flush_pending_in_other_context");
  EXPECT_EQ(report.diagnostics[0].line, 576u);
  EXPECT_EQ(report.diagnostics[0].worker, 1);  // the reader is attributed
  // Once the writer fences, the same read is clean.
  device.Fence(writer);
  device.ReadPm(reader, device.base() + 576, 8);
  EXPECT_EQ(Report(device).total(), 1u);
}

// PmCheckExpect turns an intentional violation into a suppressed count, in
// scope only.
TEST(PmCheck, ExpectSuppressesInScopeOnly) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  {
    PmCheckExpect expect(PmCheckClass::kUselessFence);
    device.Fence(ctx);
  }
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.suppressed[static_cast<size_t>(PmCheckClass::kUselessFence)], 1u);
  // The suppression is class-scoped: a different class still reports.
  {
    PmCheckExpect expect(PmCheckClass::kRedundantFlush);
    device.Fence(ctx);
  }
  EXPECT_EQ(Count(Report(device), PmCheckClass::kUselessFence), 1u);
  // And it ends with the scope.
  device.Fence(ctx);
  EXPECT_EQ(Count(Report(device), PmCheckClass::kUselessFence), 2u);
}

// Diagnostics carry the recent-event ring and fence epochs for attribution.
TEST(PmCheck, DiagnosticsCarryRecentEvents) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  for (int i = 0; i < 3; i++) {
    Store(device, 64 + static_cast<uintptr_t>(i) * 64, 0xC0 + static_cast<uint64_t>(i));
    device.FlushLine(ctx, device.base() + 64 + static_cast<uintptr_t>(i) * 64);
    device.Fence(ctx);
  }
  device.Fence(ctx);  // the violation
  PmCheckReport report = Report(device);
  ASSERT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(report.fence_epochs, 4u);
  EXPECT_EQ(report.diagnostics[0].fence_epoch, 4u);
  const auto& recent = report.diagnostics[0].recent;
  ASSERT_GE(recent.size(), 2u);
  // The last recorded event is the useless fence itself (0 committed lines);
  // before it, the previous cycle's fence committed one line.
  EXPECT_EQ(recent.back().kind, PmCheckEvent::Kind::kFence);
  EXPECT_EQ(recent.back().detail, 0u);
  EXPECT_EQ(recent[recent.size() - 2].kind, PmCheckEvent::Kind::kFence);
  EXPECT_EQ(recent[recent.size() - 2].detail, 1u);
}

// --- retention cap (shared rule, src/pmsim/check_report.h) -------------------

// One violation past the cap: the first kMaxCheckDiagnostics materialize, the
// overflow counts as truncated, and the class count stays exact.
TEST(PmCheck, RetentionCapTruncatesViolationsOnly) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  for (size_t i = 0; i < kMaxCheckDiagnostics + 1; i++) {
    device.Fence(ctx);  // useless fence: one violation each
  }
  PmCheckReport report = Report(device);
  EXPECT_EQ(Count(report, PmCheckClass::kUselessFence), 257u);
  EXPECT_EQ(report.total(), 257u);
  EXPECT_EQ(report.diagnostics.size(), 256u);
  EXPECT_EQ(report.diagnostics_truncated, 1u);
}

// Informational findings past their own cap keep an exact count and never
// count as truncation: info never gates a verdict, so nothing gating is lost.
TEST(PmCheck, InfoOverflowIsNotTruncation) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;  // useless_fence is info on eADR
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  for (size_t i = 0; i < kMaxCheckInfoDiagnostics + 4; i++) {
    device.Fence(ctx);
  }
  PmCheckReport report = Report(device);
  EXPECT_EQ(report.info[static_cast<size_t>(PmCheckClass::kUselessFence)], 20u);
  EXPECT_EQ(report.total(), 0u);
  EXPECT_EQ(report.diagnostics.size(), kMaxCheckInfoDiagnostics);
  EXPECT_EQ(report.diagnostics_truncated, 0u);
}

// --- dump section round trip --------------------------------------------------

// Writes `section` with the shared writer and reads it back with the shared
// reader `pmctl` uses.
std::vector<CheckSection> RoundTrip(const CheckSection& section, const std::string& name) {
  std::string path = ::testing::TempDir() + "/" + name + ".pmtrace";
  std::remove(path.c_str());
  EXPECT_TRUE(AppendCheckSection(path, section));
  std::ifstream in(path);
  std::vector<CheckSection> parsed;
  std::string line;
  std::string error;
  while (std::getline(in, line)) {
    EXPECT_TRUE(ParseCheckSectionLine(line, &parsed, &error)) << error << ": " << line;
  }
  return parsed;
}

// report -> section -> parse keeps counts, stats, diagnostics and their
// recent events; the verdict is 3 on violations, 0 clean, 2 checker off.
TEST(PmCheck, SectionRoundTripAndVerdict) {
  PmDevice device{CheckedConfig()};
  ThreadContext ctx(device, 0, 0);
  Store(device, 64, 0xD1);
  device.FlushLine(ctx, device.base() + 64);
  device.Fence(ctx);
  device.FlushLine(ctx, device.base() + 64);  // redundant: the line is clean
  device.Fence(ctx);
  device.Fence(ctx);  // useless
  PmCheckReport report = Report(device);
  ASSERT_EQ(report.total(), 2u);

  CheckSection section = report.ToSection();
  std::vector<CheckSection> parsed = RoundTrip(section, "pmcheck_roundtrip");
  const CheckSection* s = FindCheckSection(parsed, "pmcheck");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, section);
  EXPECT_EQ(s->total(), report.total());
  EXPECT_EQ(s->total_info(), report.total_info());
  EXPECT_EQ(s->total_suppressed(), report.total_suppressed());
  ASSERT_EQ(s->classes.size(), static_cast<size_t>(kNumPmCheckClasses));
  EXPECT_EQ(s->classes[static_cast<size_t>(PmCheckClass::kRedundantFlush)].name,
            "redundant_flush");
  EXPECT_EQ(s->classes[static_cast<size_t>(PmCheckClass::kRedundantFlush)].count, 1u);
  EXPECT_EQ(s->classes[static_cast<size_t>(PmCheckClass::kUselessFence)].count, 1u);
  const std::vector<std::pair<std::string, uint64_t>> stats = {
      {"fence_epochs", report.fence_epochs},
      {"lines_tracked", report.lines_tracked},
      {"diagnostics_truncated", 0}};
  EXPECT_EQ(s->stats, stats);
  ASSERT_EQ(s->diagnostics.size(), 2u);
  EXPECT_EQ(s->diagnostics[0].cls, "redundant_flush");
  EXPECT_EQ(s->diagnostics[0].detail, "flush_of_clean_line");
  EXPECT_EQ(s->diagnostics[0].where.rfind("line=0x40 ", 0), 0u) << s->diagnostics[0].where;
  ASSERT_EQ(s->diagnostics[0].recent.size(), report.diagnostics[0].recent.size());
  EXPECT_EQ(s->diagnostics[0].recent.back().kind, "flush");
  EXPECT_EQ(s->diagnostics[1].cls, "useless_fence");
  EXPECT_EQ(CheckVerdict(s), 3);

  PmDevice clean_device{CheckedConfig()};
  std::vector<CheckSection> clean =
      RoundTrip(Report(clean_device).ToSection(), "pmcheck_roundtrip_clean");
  EXPECT_EQ(CheckVerdict(FindCheckSection(clean, "pmcheck")), 0);
  EXPECT_EQ(CheckVerdict(FindCheckSection(clean, "lockcheck")), 2);
}

// Informational findings survive the round trip but never gate the verdict.
TEST(PmCheck, SectionInfoOnlyIsClean) {
  DeviceConfig config = CheckedConfig();
  config.backend = MediaBackend::kEadr;
  PmDevice device{config};
  ThreadContext ctx(device, 0, 0);
  device.Fence(ctx);
  CheckSection section = Report(device).ToSection();
  std::vector<CheckSection> parsed = RoundTrip(section, "pmcheck_roundtrip_info");
  const CheckSection* s = FindCheckSection(parsed, "pmcheck");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(*s, section);
  ASSERT_EQ(s->diagnostics.size(), 1u);
  EXPECT_TRUE(s->diagnostics[0].info);
  EXPECT_EQ(s->total_info(), 1u);
  EXPECT_EQ(CheckVerdict(s), 0);
}

}  // namespace
}  // namespace cclbt::pmsim

namespace cclbt::bench {
namespace {

// The shipped CCL-BTree must be pmcheck-clean on a fig10-micro style
// workload: warm inserts + measured upserts, background GC on (the default).
TEST(PmCheck, CleanRunOnCclbtreeFig10Micro) {
  RunConfig config;
  config.threads = 4;
  config.warm_keys = 15'000;
  config.ops = 15'000;
  config.op = OpType::kUpdate;
  config.pmcheck = true;
  RunResult result = RunIndexWorkload("cclbtree", config, {}, 1ULL << 30);
  ASSERT_TRUE(result.pmcheck.enabled);
  EXPECT_EQ(result.pmcheck.total(), 0u) << "first diagnostic: "
      << (result.pmcheck.diagnostics.empty()
              ? "(none materialized)"
              : result.pmcheck.diagnostics[0].detail);
  EXPECT_GT(result.pmcheck.fence_epochs, 0u);
}

}  // namespace
}  // namespace cclbt::bench
