#include "src/crashtest/crash_matrix.h"

#include <cstdio>
#include <memory>

#include "src/bench/index_factory.h"
#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/crashtest/oracle.h"
#include "src/kvindex/runtime.h"
#include "src/pmsim/crash_injector.h"

namespace cclbt::crashtest {

namespace {

struct Op {
  uint64_t key;
  uint64_t value;
  bool remove;
};

// The workload is materialized up front so every point replays byte-identical
// operations (the injector aborts at a different prefix each time).
std::vector<Op> BuildOps(const MatrixConfig& config) {
  Rng rng(Mix64(config.seed ^ 0xc4a541ULL));
  std::vector<Op> ops;
  ops.reserve(config.ops);
  for (uint64_t i = 0; i < config.ops; i++) {
    Op op;
    // Keys must be nonzero (FAST&FAIR reserves 0 as the low sentinel).
    op.key = Mix64(rng.NextBounded(config.key_space) + 1) | 1;
    op.remove = rng.NextBounded(10) >= 8;  // 20% removes
    op.value = rng.Next() | 1;
    ops.push_back(op);
  }
  return ops;
}

kvindex::RuntimeOptions RuntimeOptionsFor(const MatrixConfig& config) {
  kvindex::RuntimeOptions options;
  // Single socket/DIMM: the matrix measures correctness, not NUMA effects.
  options.device.pool_bytes = config.pool_bytes;
  options.device.num_sockets = 1;
  options.device.dimms_per_socket = 1;
  options.device.backend = config.backend;
  if (config.media_unit_bytes != 0) {
    options.device.xpline_bytes = config.media_unit_bytes;
    // Keep buffer capacity at 64 media units, as in the CXL page sweep.
    options.device.xpbuffer_bytes = 64 * config.media_unit_bytes;
  }
  options.device.cxl_volatile_buffer = config.cxl_volatile_buffer;
  return options;
}

bench::IndexConfig IndexConfigFor(const MatrixConfig& config) {
  bench::IndexConfig index_config;
  // Deterministic GC scheduling (DESIGN.md §10) keeps fence counts a pure
  // function of the op stream even with background GC on, so the matrix can
  // crash inside GC's own flush/fence stream instead of disabling it.
  index_config.tree.background_gc = config.background_gc;
  index_config.tree.gc_scheduling = core::GcScheduling::kDeterministic;
  index_config.tree.th_log_pct = config.th_log_pct;
  index_config.tree.gc_quantum_ops = config.gc_quantum_ops;
  index_config.tree.max_workers = 2 + config.recovery_threads;
  return index_config;
}

void ApplyOp(kvindex::KvIndex& index, DurabilityOracle& oracle, const Op& op) {
  if (op.remove) {
    oracle.StartRemove(op.key);
    index.Remove(op.key);
  } else {
    oracle.StartUpsert(op.key, op.value);
    index.Upsert(op.key, op.value);
  }
  oracle.AckLast();
}

struct Probe {
  uint64_t total_fences = 0;
  bool recoverable = false;
  bool tolerates_torn = false;
  uint64_t gc_rounds = 0;
  std::vector<GcWindow> gc_windows;
};

// Runs the workload to completion with a count-only injector: yields the
// fence range the schedules cover, the index's declared capabilities, and
// the fence windows of every GC round (per-point replays are byte-identical
// up to their crash fence, so the probe's windows locate GC activity in
// every replay too).
Probe ProbeWorkload(const MatrixConfig& config, const std::vector<Op>& ops) {
  Probe probe;
  kvindex::Runtime runtime(RuntimeOptionsFor(config));
  auto index = bench::MakeIndex(config.index, runtime, IndexConfigFor(config));
  probe.recoverable = index->recoverable();
  probe.tolerates_torn = index->tolerates_torn_crash();
  pmsim::CrashInjector injector;
  DurabilityOracle oracle;
  {
    pmsim::ThreadContext ctx(runtime.device(), /*socket=*/0, /*worker_id=*/0);
    runtime.device().SetCrashInjector(&injector);
    injector.Arm(/*fence_target=*/0);  // count-only
    for (const Op& op : ops) {
      ApplyOp(*index, oracle, op);
    }
    runtime.device().SetCrashInjector(nullptr);
  }
  probe.total_fences = injector.fences_observed();
  if (auto* tree = dynamic_cast<core::CclBTree*>(index.get())) {
    probe.gc_rounds = tree->gc_rounds();
    for (const core::CclBTree::GcFenceWindow& window : tree->gc_fence_windows()) {
      probe.gc_windows.push_back({window.first_fence, window.last_fence});
    }
  }
  return probe;
}

struct PointOutcome {
  bool fired = false;
  bool reopen_ok = false;
  bool recover_ok = false;
  std::string reopen_error;
  DurabilityOracle::Report report;
};

PointOutcome RunPoint(const MatrixConfig& config, const std::vector<Op>& ops,
                      const CrashPoint& point) {
  PointOutcome outcome;
  kvindex::Runtime runtime(RuntimeOptionsFor(config));
  auto index = bench::MakeIndex(config.index, runtime, IndexConfigFor(config));
  pmsim::CrashInjector injector;
  DurabilityOracle oracle;
  {
    pmsim::ThreadContext ctx(runtime.device(), /*socket=*/0, /*worker_id=*/0);
    // Armed only after index creation, so fence targets count from the start
    // of the workload — matching the probe run.
    runtime.device().SetCrashInjector(&injector);
    injector.Arm(point.fence_target,
                 point.torn ? pmsim::CrashInjector::Mode::kTorn
                            : pmsim::CrashInjector::Mode::kClean,
                 point.torn_seed);
    try {
      for (const Op& op : ops) {
        ApplyOp(*index, oracle, op);
      }
    } catch (const pmsim::CrashPointReached&) {
      outcome.fired = true;
    }
    runtime.device().SetCrashInjector(nullptr);
    if (outcome.fired) {
      // Settle the media while this worker context is still alive: the torn
      // lottery runs over the context's pending (unfenced) lines.
      if (point.torn) {
        runtime.device().CrashTorn(point.torn_seed);
      } else {
        runtime.device().Crash();
      }
    }
  }
  if (!outcome.fired) {
    return outcome;  // target beyond the workload's fence range
  }
  index.reset();  // discard the aborted instance's DRAM state
  outcome.reopen_ok = runtime.Reopen(&outcome.reopen_error);
  if (!outcome.reopen_ok) {
    return outcome;
  }
  auto recovered =
      bench::RecoverIndex(config.index, runtime, IndexConfigFor(config), config.recovery_threads);
  outcome.recover_ok = recovered != nullptr;
  if (!outcome.recover_ok) {
    return outcome;
  }
  pmsim::ThreadContext ctx(runtime.device(), /*socket=*/0, /*worker_id=*/0);
  outcome.report = oracle.Verify(*recovered, config.max_diagnostics);
  return outcome;
}

}  // namespace

std::vector<CrashPoint> BuildSchedule(const MatrixConfig& config, uint64_t total_fences,
                                      bool torn_allowed,
                                      const std::vector<GcWindow>& gc_windows) {
  std::vector<CrashPoint> points;
  auto add = [&](uint64_t target) {
    if (target == 0 || target > total_fences) {
      return;
    }
    CrashPoint point;
    point.fence_target = target;
    if (torn_allowed && points.size() % 2 == 1) {
      point.torn = true;
      point.torn_seed = Mix64(config.seed ^ target ^ 0x70421ULL);
    }
    points.push_back(point);
  };
  if (config.nth != 0) {
    for (uint64_t target = config.nth; target <= total_fences; target += config.nth) {
      add(target);
    }
  }
  if (config.random_points != 0) {
    Rng rng(Mix64(config.seed ^ 0x5eedc0deULL));
    for (uint64_t i = 0; i < config.random_points; i++) {
      add(rng.NextBounded(total_fences) + 1);
    }
  }
  if (config.window_len != 0 && total_fences != 0) {
    uint64_t start = config.window_start;
    if (start == 0) {
      start = total_fences > config.window_len ? (total_fences - config.window_len) / 2 + 1 : 1;
    }
    for (uint64_t i = 0; i < config.window_len; i++) {
      add(start + i);
    }
  }
  if (config.gc_stride != 0) {
    for (const GcWindow& window : gc_windows) {
      for (uint64_t target = window.first_fence; target <= window.last_fence;
           target += config.gc_stride) {
        add(target);
      }
    }
  }
  return points;
}

MatrixResult RunCrashMatrix(const MatrixConfig& config) {
  MatrixResult result;
  const std::vector<Op> ops = BuildOps(config);
  Probe probe = ProbeWorkload(config, ops);
  result.index_recoverable = probe.recoverable;
  result.total_fences = probe.total_fences;
  result.gc_rounds_probe = probe.gc_rounds;
  if (!probe.recoverable) {
    result.diagnostics.push_back(config.index + " declares not_recoverable; no points run");
    return result;
  }
  bool torn_allowed = config.torn && probe.tolerates_torn;
  auto in_gc_window = [&probe](uint64_t fence) {
    for (const GcWindow& window : probe.gc_windows) {
      if (fence >= window.first_fence && fence <= window.last_fence) {
        return true;
      }
    }
    return false;
  };

  for (const CrashPoint& point :
       BuildSchedule(config, probe.total_fences, torn_allowed, probe.gc_windows)) {
    PointOutcome outcome = RunPoint(config, ops, point);
    if (!outcome.fired) {
      continue;
    }
    result.crash_points++;
    if (in_gc_window(point.fence_target)) {
      result.gc_window_points++;
    }
    if (point.torn) {
      result.torn_crashes++;
    } else {
      result.clean_crashes++;
    }
    result.digest = Mix64(result.digest ^ point.fence_target);
    result.digest = Mix64(result.digest ^ (point.torn ? point.torn_seed : 0x11ULL));
    if (!outcome.reopen_ok) {
      result.reopen_failures++;
      if (static_cast<int>(result.diagnostics.size()) < config.max_diagnostics) {
        result.diagnostics.push_back("reopen failed @fence " +
                                     std::to_string(point.fence_target) + ": " +
                                     outcome.reopen_error);
      }
      continue;
    }
    if (!outcome.recover_ok) {
      result.recover_failures++;
      if (static_cast<int>(result.diagnostics.size()) < config.max_diagnostics) {
        result.diagnostics.push_back("recover failed @fence " +
                                     std::to_string(point.fence_target));
      }
      continue;
    }
    result.keys_checked += outcome.report.keys_checked;
    result.lost += outcome.report.lost;
    result.stale += outcome.report.stale;
    result.garbage += outcome.report.garbage;
    result.digest = Mix64(result.digest ^ outcome.report.observation_digest);
    for (const std::string& diag : outcome.report.diagnostics) {
      if (static_cast<int>(result.diagnostics.size()) >= config.max_diagnostics) {
        break;
      }
      result.diagnostics.push_back("@fence " + std::to_string(point.fence_target) +
                                   (point.torn ? " (torn) " : " ") + diag);
    }
  }
  return result;
}

}  // namespace cclbt::crashtest
