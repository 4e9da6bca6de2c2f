// Systematic crash-point enumeration (DESIGN.md §9).
//
// A matrix run takes one recoverable index and one deterministic
// single-worker workload, probes how many fences the uninterrupted workload
// executes, derives a crash schedule from the seed (every-Nth, seeded-random
// and exhaustive-window points over the fence range, plus points inside the
// fence windows of the probe's background-GC rounds), and then, for every
// scheduled point, replays the workload in a fresh Runtime with a
// pmsim::CrashInjector armed at that fence. The injected crash aborts the
// workload mid-operation; the harness settles the media with
// PmDevice::Crash() or CrashTorn(seed), reopens the pool
// (Runtime::Reopen), recovers the index (bench::RecoverIndex) and verifies
// the durability oracle's invariants.
//
// Everything — workload, schedules, torn seeds, oracle verdicts — is a pure
// function of MatrixConfig, so a matrix run is exactly reproducible from its
// seed (the pmsim virtual-time model is deterministic for one worker).
#ifndef SRC_CRASHTEST_CRASH_MATRIX_H_
#define SRC_CRASHTEST_CRASH_MATRIX_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "src/pmsim/config.h"

namespace cclbt::crashtest {

// One scheduled crash point: fire at the `fence_target`-th fence (1-based)
// after the injector is armed, i.e. counted from the start of the workload.
struct CrashPoint {
  uint64_t fence_target = 0;
  bool torn = false;
  uint64_t torn_seed = 0;
};

struct MatrixConfig {
  std::string index = "cclbtree";  // factory name; must be recoverable
  // Drives the workload keys/values/op-mix AND every schedule/torn seed.
  uint64_t seed = 1;
  uint64_t ops = 2500;
  uint64_t key_space = 800;
  // every-Nth schedule: a crash point at every multiple of `nth` fences
  // (0 disables the schedule).
  uint64_t nth = 0;
  // seeded-random schedule: `random_points` uniform draws over [1, fences].
  uint64_t random_points = 0;
  // exhaustive-window schedule: every fence in
  // [window_start, window_start + window_len); window_start 0 centres the
  // window on the workload.
  uint64_t window_start = 0;
  uint64_t window_len = 0;
  // Make every second scheduled point a torn crash (CrashTorn) — only
  // honoured when the index declares tolerates_torn_crash().
  bool torn = false;
  // --- background-GC coverage (cclbtree, DESIGN.md §10) --------------------
  // The matrix runs the tree with background GC enabled under deterministic
  // scheduling, so GC rounds land at fence counts that are a pure function
  // of the op stream and crash points can hit GC's own flush/fence stream —
  // including the relocate-then-free window of the locality-aware GC.
  bool background_gc = true;
  int th_log_pct = 6;      // low trigger so GC fires within small workloads
  int gc_quantum_ops = 16;  // tight quantum for the same reason
  // gc-window schedule: a crash point at every gc_stride-th fence inside
  // each GC round's fence window observed in the probe run (0 disables).
  uint64_t gc_stride = 2;
  size_t pool_bytes = 32ULL << 20;
  int recovery_threads = 1;
  int max_diagnostics = 8;
  // Persistence-domain backend of every per-point Runtime (DESIGN.md §14).
  // kAuto resolves to ADR unless CCL_BACKEND overrides; kEadr shrinks the
  // crash window to nothing (acked stores are durable at the cacheline),
  // kCxlMem widens it to a media page.
  pmsim::MediaBackend backend = pmsim::MediaBackend::kAuto;
  // CXL geometry for backend == kCxlMem (0 = DeviceConfig defaults).
  size_t media_unit_bytes = 0;
  bool cxl_volatile_buffer = false;
};

// Fence-count window [first_fence, last_fence] (1-based, inclusive) of one
// completed GC round, as observed by the probe run's injector.
struct GcWindow {
  uint64_t first_fence = 0;
  uint64_t last_fence = 0;
};

struct MatrixResult {
  bool index_recoverable = false;
  uint64_t total_fences = 0;  // fences in the uninterrupted workload (probe)
  uint64_t gc_rounds_probe = 0;  // GC rounds the uninterrupted workload ran
  uint64_t crash_points = 0;  // points that actually fired
  uint64_t gc_window_points = 0;  // fired points inside GC fence windows
  uint64_t clean_crashes = 0;
  uint64_t torn_crashes = 0;
  uint64_t reopen_failures = 0;
  uint64_t recover_failures = 0;
  // Oracle totals across all points.
  uint64_t keys_checked = 0;
  uint64_t lost = 0;
  uint64_t stale = 0;
  uint64_t garbage = 0;
  // Order-sensitive fold over every (crash point, oracle observation): equal
  // between two runs iff the same points fired with the same verdicts.
  uint64_t digest = 0;
  std::vector<std::string> diagnostics;
  bool ok() const {
    return index_recoverable && lost == 0 && stale == 0 && garbage == 0 &&
           reopen_failures == 0 && recover_failures == 0;
  }
};

// Deterministic schedule enumeration (exposed for tests). `torn_allowed`
// folds in the index's tolerates_torn_crash capability; `gc_windows` (from
// the probe run) feeds the gc-window schedule.
std::vector<CrashPoint> BuildSchedule(const MatrixConfig& config, uint64_t total_fences,
                                      bool torn_allowed,
                                      const std::vector<GcWindow>& gc_windows = {});

// Probe + full sweep. Each crash point runs in its own fresh Runtime.
MatrixResult RunCrashMatrix(const MatrixConfig& config);

}  // namespace cclbt::crashtest

#endif  // SRC_CRASHTEST_CRASH_MATRIX_H_
