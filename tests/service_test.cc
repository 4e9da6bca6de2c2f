// Tests for the sharded KV service front-end (src/service, DESIGN.md §15):
// socket placement of shards, determinism of the open-loop run, admission
// control under overload, and crash consistency across shard queues (no
// acked-then-lost write). Also covers this PR's satellite fixes at the
// layers the service depends on: Runtime::SocketForWorker placement
// defaults and the Reopen value-store leak accounting.
#include <algorithm>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/core/ccl_btree.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/pmdump.h"
#include "src/pmsim/crash_injector.h"
#include "src/service/service.h"

namespace cclbt::service {
namespace {

kvindex::RuntimeOptions SmallRuntime() {
  kvindex::RuntimeOptions options;
  options.device.pool_bytes = 256 << 20;
  options.device.num_sockets = 2;
  options.device.dimms_per_socket = 2;
  return options;
}

ServiceConfig SmallService(int shards) {
  ServiceConfig config;
  config.shards = shards;
  config.queue_capacity = 32;
  config.batch_ops = 4;
  return config;
}

OpenLoopConfig SmallWorkload(double offered_mops) {
  OpenLoopConfig w;
  w.ops = 6'000;
  w.warm_keys = 3'000;
  w.offered_mops = offered_mops;
  w.mix = &kYcsbInsertIntensive;
  w.seed = 99;
  return w;
}

// --- satellite: SocketForWorker placement defaults --------------------------

TEST(Runtime, SocketForWorkerRoundRobinsWhenCoreCountUnknown) {
  kvindex::Runtime rt(SmallRuntime());
  // 2 sockets, no cores_per_socket, no explicit threads_per_socket: a
  // 4-worker run must use both sockets, not pile onto socket 0 behind a
  // fill-first threshold it never crosses.
  EXPECT_EQ(rt.SocketForWorker(0), 0);
  EXPECT_EQ(rt.SocketForWorker(1), 1);
  EXPECT_EQ(rt.SocketForWorker(2), 0);
  EXPECT_EQ(rt.SocketForWorker(3), 1);
}

TEST(Runtime, SocketForWorkerFillsFirstWithExplicitCoreCount) {
  kvindex::Runtime rt(SmallRuntime());
  // Explicit threads_per_socket keeps the paper's fill-first pinning.
  EXPECT_EQ(rt.SocketForWorker(0, 48), 0);
  EXPECT_EQ(rt.SocketForWorker(47, 48), 0);
  EXPECT_EQ(rt.SocketForWorker(48, 48), 1);
  EXPECT_EQ(rt.SocketForWorker(95, 48), 1);
}

TEST(Runtime, SocketForWorkerUsesDeviceCoresPerSocket) {
  kvindex::RuntimeOptions options = SmallRuntime();
  options.device.cores_per_socket = 2;
  kvindex::Runtime rt(options);
  EXPECT_EQ(rt.SocketForWorker(0), 0);
  EXPECT_EQ(rt.SocketForWorker(1), 0);
  EXPECT_EQ(rt.SocketForWorker(2), 1);
  EXPECT_EQ(rt.SocketForWorker(3), 1);
}

// --- shard placement ---------------------------------------------------------

TEST(Service, ShardsPinRoundRobinAcrossSockets) {
  kvindex::Runtime rt(SmallRuntime());
  ShardedKvService svc(rt, SmallService(4));
  for (int s = 0; s < 4; s++) {
    EXPECT_EQ(svc.shard_socket(s), s % 2) << "shard " << s;
  }
}

TEST(Service, HashAndRangePartitionsCoverAllShards) {
  for (Partition partition : {Partition::kHash, Partition::kRange}) {
    kvindex::Runtime rt(SmallRuntime());
    ServiceConfig config = SmallService(4);
    config.partition = partition;
    ShardedKvService svc(rt, config);
    OpenLoopConfig w = SmallWorkload(2.0);
    svc.Warm(w);
    ServiceResult result = svc.Run(w);
    ASSERT_EQ(result.shards.size(), 4u);
    for (const ShardStats& sh : result.shards) {
      EXPECT_GT(sh.admitted, 0u) << "partition " << static_cast<int>(partition);
    }
  }
}

// --- determinism -------------------------------------------------------------

ServiceResult RunFresh(double offered_mops) {
  kvindex::Runtime rt(SmallRuntime());
  ShardedKvService svc(rt, SmallService(2));
  OpenLoopConfig w = SmallWorkload(offered_mops);
  svc.Warm(w);
  return svc.Run(w);
}

TEST(Service, EpochSeriesAndShedCountsAreBitIdenticalAcrossRuns) {
  ServiceResult a = RunFresh(4.0);
  ServiceResult b = RunFresh(4.0);
  EXPECT_EQ(a.offered, b.offered);
  EXPECT_EQ(a.admitted, b.admitted);
  EXPECT_EQ(a.shed, b.shed);
  EXPECT_EQ(a.completed, b.completed);
  ASSERT_FALSE(a.epochs.empty());
  // The serialized epoch series is the CI determinism payload: every field
  // (windowed stats, percentiles, counters, gauges) must match byte for byte.
  EXPECT_EQ(metrics::SerializeEpochSeries(a.epochs), metrics::SerializeEpochSeries(b.epochs));
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    EXPECT_EQ(a.metrics_snapshot.op_virtual[k].Count(), b.metrics_snapshot.op_virtual[k].Count());
    EXPECT_EQ(a.metrics_snapshot.op_virtual[k].Percentile(99),
              b.metrics_snapshot.op_virtual[k].Percentile(99));
  }
}

// --- sampled wall timing -----------------------------------------------------

// Every op kind, including upsert-class deletes/updates and scans.
constexpr YcsbMix kAllKindsMix{"all-kinds", 40, 40, 10};

metrics::OpKind KindOfRequest(OpType op) {
  switch (op) {
    case OpType::kRead:
      return metrics::OpKind::kLookup;
    case OpType::kScan:
      return metrics::OpKind::kScan;
    default:
      return metrics::OpKind::kUpsert;
  }
}

ServiceResult RunAllKinds() {
  kvindex::Runtime rt(SmallRuntime());
  ShardedKvService svc(rt, SmallService(2));
  OpenLoopConfig w = SmallWorkload(0.0);  // closed loop: nothing is shed
  w.mix = &kAllKindsMix;
  svc.Warm(w);
  return svc.Run(w);
}

// Wall time is sampled 1 op in kWallSampleStride per kind with weight
// kWallSampleStride; virtual latency is recorded for every op. So per kind
// the virtual Count is exactly the op count, the wall Count is at most one
// stride above it, and the virtual histograms and epoch series repeat byte
// for byte even though the wall samples do not.
TEST(Service, WallTimingIsSampledAndVirtualRecordingIsExact) {
  OpenLoopConfig w = SmallWorkload(0.0);
  w.mix = &kAllKindsMix;
  uint64_t expected[metrics::kNumOpKinds] = {};
  OpenLoopGenerator gen(w);
  Request req;
  while (gen.Next(&req)) {
    expected[static_cast<size_t>(KindOfRequest(req.op))]++;
  }

  ServiceResult a = RunAllKinds();
  ServiceResult b = RunAllKinds();
  ASSERT_EQ(a.shed, 0u);
  ASSERT_EQ(a.completed, w.ops);
  const uint64_t stride = metrics::kWallSampleStride;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    const metrics::Histogram& virt = a.metrics_snapshot.op_virtual[k];
    const metrics::Histogram& wall = a.metrics_snapshot.op_wall[k];
    EXPECT_EQ(virt.Count(), expected[k]) << metrics::OpKindName(static_cast<metrics::OpKind>(k));
    EXPECT_GE(wall.Count(), virt.Count());
    EXPECT_LT(wall.Count(), virt.Count() + stride);
    EXPECT_EQ(wall.Count() % stride, 0u);

    const metrics::Histogram& virt_b = b.metrics_snapshot.op_virtual[k];
    EXPECT_EQ(virt.Count(), virt_b.Count());
    EXPECT_EQ(virt.Sum(), virt_b.Sum());
    EXPECT_EQ(virt.Min(), virt_b.Min());
    EXPECT_EQ(virt.Max(), virt_b.Max());
    for (int p = 0; p <= 1000; p++) {
      ASSERT_EQ(virt.Percentile(p / 10.0), virt_b.Percentile(p / 10.0)) << "p" << p / 10.0;
    }
  }
  EXPECT_GT(expected[static_cast<size_t>(metrics::OpKind::kScan)], stride);
  ASSERT_FALSE(a.epochs.empty());
  EXPECT_EQ(metrics::SerializeEpochSeries(a.epochs), metrics::SerializeEpochSeries(b.epochs));
  // The epoch series counts every op, not the sampled ones.
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    uint64_t in_epochs = 0;
    for (const metrics::EpochRecord& e : a.epochs) {
      in_epochs += e.ops[static_cast<size_t>(k)];
    }
    EXPECT_EQ(in_epochs, expected[k]);
  }
}

// --- admission control -------------------------------------------------------

TEST(Service, OverloadShedsInsteadOfGrowingQueues) {
  // Offered load far beyond anything the simulated device can serve.
  ServiceResult result = RunFresh(1000.0);
  EXPECT_GT(result.shed, 0u);
  EXPECT_GT(result.shed_rate, 0.5);
  EXPECT_EQ(result.completed, result.admitted);  // every admitted request acked
  for (const ShardStats& sh : result.shards) {
    EXPECT_LE(sh.max_queue_depth, 32u);  // bounded by queue_capacity
  }
  uint64_t admits =
      result.metrics_snapshot.counter(metrics::Counter::kServiceAdmits);
  uint64_t sheds = result.metrics_snapshot.counter(metrics::Counter::kServiceSheds);
  EXPECT_EQ(admits, result.admitted);
  EXPECT_EQ(sheds, result.shed);
  EXPECT_EQ(admits + sheds, result.offered);
}

TEST(Service, LightLoadShedsLittleAndKeepsLatencyNearService) {
  ServiceResult light = RunFresh(1.0);
  ServiceResult heavy = RunFresh(1000.0);
  EXPECT_LT(light.shed_rate, 0.01);
  // Queueing delay dominates under overload: admitted-request p99 latency
  // (arrival -> ack) must be clearly above the light-load p99.
  const metrics::Histogram& hl =
      light.metrics_snapshot.virt(metrics::OpKind::kUpsert);
  const metrics::Histogram& hh =
      heavy.metrics_snapshot.virt(metrics::OpKind::kUpsert);
  ASSERT_GT(hl.Count(), 0u);
  ASSERT_GT(hh.Count(), 0u);
  EXPECT_GT(hh.Percentile(99), hl.Percentile(99));
}

// --- crash consistency across shard queues -----------------------------------

// Looks `key` up in every recovered shard tree; at most one owns it.
bool LookupAnyShard(std::vector<std::unique_ptr<core::CclBTree>>& trees, uint64_t key,
                    uint64_t* value_out) {
  for (auto& tree : trees) {
    if (tree->Lookup(key, value_out)) {
      return true;
    }
  }
  return false;
}

// Insert-only stream: every key is written exactly once, so acked => must
// survive.
OpenLoopConfig CrashWorkload() {
  OpenLoopConfig w = SmallWorkload(4.0);
  w.mix = &kYcsbInsertOnly;
  w.ops = 4'000;
  w.warm_keys = 1'000;
  return w;
}

ServiceConfig CrashService(int th_log_pct) {
  ServiceConfig config = SmallService(2);
  config.track_acked = true;
  config.index_config.tree.th_log_pct = th_log_pct;
  return config;
}

// Probe pass: runs the measured phase uninterrupted under a count-only
// injector and returns the fences it executes (the arrival stream and
// service schedule are deterministic, so per-target replays see the
// identical fence sequence). `windows` receives each shard tree's GC step
// windows, one list per shard.
using StepWindows = std::vector<std::vector<core::CclBTree::GcFenceWindow>>;
uint64_t ProbeFences(const ServiceConfig& config, const OpenLoopConfig& w, StepWindows* windows) {
  kvindex::Runtime rt(SmallRuntime());
  ShardedKvService svc(rt, config);
  svc.Warm(w);
  pmsim::CrashInjector injector;
  rt.device().SetCrashInjector(&injector);
  injector.Arm(/*fence_target=*/0);  // count-only
  svc.Run(w);
  rt.device().SetCrashInjector(nullptr);
  for (int s = 0; s < svc.shards(); s++) {
    windows->push_back(dynamic_cast<core::CclBTree&>(svc.shard_index(s)).gc_fence_windows());
  }
  return injector.fences_observed();
}

// Replays the run, crashes at fence `target` (clean or torn), restarts every
// shard from its root slot and requires every write acked before the crash.
// *fired reports whether the crash point fired (nothing is audited if not).
void CrashAndAudit(const ServiceConfig& config, const OpenLoopConfig& w, uint64_t target,
                   bool torn, bool* fired) {
  kvindex::Runtime rt(SmallRuntime());
  auto svc = std::make_unique<ShardedKvService>(rt, config);
  svc->Warm(w);
  pmsim::CrashInjector injector;
  rt.device().SetCrashInjector(&injector);
  injector.Arm(target, torn ? pmsim::CrashInjector::Mode::kTorn
                            : pmsim::CrashInjector::Mode::kClean,
               /*torn_seed=*/target);
  *fired = false;
  try {
    svc->Run(w);
  } catch (const pmsim::CrashPointReached&) {
    *fired = true;
  }
  rt.device().SetCrashInjector(nullptr);
  if (!*fired) {
    return;
  }
  // Settle the media while the shard contexts are still alive (the torn
  // lottery draws from their pending unfenced lines), then tear the service
  // down and restart.
  if (torn) {
    rt.device().CrashTorn(target);
  } else {
    rt.device().Crash();
  }
  std::map<uint64_t, uint64_t> acked = svc->acked();
  const int shards = svc->shards();
  svc.reset();
  std::string error;
  ASSERT_TRUE(rt.Reopen(&error)) << error;

  std::vector<std::unique_ptr<core::CclBTree>> trees;
  for (int s = 0; s < shards; s++) {
    core::TreeOptions options = config.index_config.tree;
    options.root_slot = s;  // shard s persisted its root in app-root slot s
    auto tree = std::make_unique<core::CclBTree>(rt, options, kvindex::Lifecycle::kAttach);
    ASSERT_TRUE(tree->Recover(rt, /*recovery_threads=*/1)) << "shard " << s;
    trees.push_back(std::move(tree));
  }
  // Post-recovery reads charge PM latency: they need a live context
  // (recovery itself opens its own).
  pmsim::ThreadContext verify_ctx(rt.device(), /*socket=*/0, /*worker_id=*/0);
  for (int s = 0; s < shards; s++) {
    EXPECT_TRUE(trees[static_cast<size_t>(s)]->CheckInvariants()) << "shard " << s;
  }
  // Warm keys were fully upserted before the injector armed: durable.
  for (uint64_t i = 0; i < w.warm_keys; i += 17) {
    uint64_t value = 0;
    ASSERT_TRUE(LookupAnyShard(trees, ServiceWarmKey(i), &value)) << "warm key " << i;
    EXPECT_EQ(value, ServiceValue(i));
  }
  // Group-commit contract: a write acked before the crash must never be
  // lost, whichever shard queue it crossed. (Unacked writes may or may not
  // survive — that is the crash matrix's lost-update distinction.)
  EXPECT_FALSE(acked.empty());
  for (const auto& [key, value] : acked) {
    uint64_t got = 0;
    ASSERT_TRUE(LookupAnyShard(trees, key, &got)) << "acked key " << key << " lost";
    EXPECT_EQ(got, value);
  }
  // Satellite: the value-store gauges ride along on every recovered tree's
  // gauge sample (pmctl top/series visibility of the leak counter).
  std::vector<std::pair<std::string, uint64_t>> gauges;
  trees[0]->SampleGauges(&gauges);
  bool has_leak_gauge = false;
  for (const auto& [name, unused] : gauges) {
    has_leak_gauge |= name == "valuestore_leaked_bytes";
  }
  EXPECT_TRUE(has_leak_gauge);
}

TEST(Service, CrashDuringOpenLoopRunLosesNoAckedWrite) {
  ServiceConfig config = CrashService(core::TreeOptions{}.th_log_pct);
  OpenLoopConfig w = CrashWorkload();
  StepWindows windows;
  uint64_t total_fences = ProbeFences(config, w, &windows);
  ASSERT_GT(total_fences, 100u);
  for (bool torn : {false, true}) {
    for (uint64_t target : {total_fences / 4, total_fences / 2, (3 * total_fences) / 4}) {
      SCOPED_TRACE("fence_target=" + std::to_string(target) + " torn=" + std::to_string(torn));
      bool fired = false;
      CrashAndAudit(config, w, target, torn, &fired);
      EXPECT_TRUE(fired);
    }
  }
}

// Service-paced GC sweeps span many batches: crash inside GC steps and
// between two steps of one sweep (old B-log still live, part of the
// buffered KVs already copied to the I-log). A low TH_log makes sweeps run
// inside the 4k-op stream.
TEST(Service, CrashInsideGcStepsLosesNoAckedWrite) {
  ServiceConfig config = CrashService(/*th_log_pct=*/4);
  OpenLoopConfig w = CrashWorkload();
  StepWindows windows;
  uint64_t total_fences = ProbeFences(config, w, &windows);
  ASSERT_GT(total_fences, 100u);

  // In-step points: every kStride-th fence inside the step windows.
  constexpr uint64_t kStride = 10;
  std::vector<uint64_t> in_step;
  uint64_t ordinal = 0;
  // Between two steps of one sweep: the first fence after a step whose
  // successor on the same shard tree belongs to the same sweep.
  uint64_t between = 0;
  for (const auto& shard_windows : windows) {
    for (size_t i = 0; i < shard_windows.size(); i++) {
      const core::CclBTree::GcFenceWindow& window = shard_windows[i];
      for (uint64_t f = window.first_fence; f <= window.last_fence; f++) {
        if (ordinal++ % kStride == 0) {
          in_step.push_back(f);
        }
      }
      if (between == 0 && i + 1 < shard_windows.size() &&
          shard_windows[i + 1].sweep == window.sweep &&
          shard_windows[i + 1].first_fence > window.last_fence + 1) {
        between = window.last_fence + 1;
      }
    }
  }
  ASSERT_GE(in_step.size(), 20u) << "too few GC step fences; lower th_log_pct";
  ASSERT_NE(between, 0u) << "no sweep spanned two steps";

  int fired = 0;
  for (bool torn : {false, true}) {
    for (uint64_t target : in_step) {
      SCOPED_TRACE("in-step fence_target=" + std::to_string(target) +
                   " torn=" + std::to_string(torn));
      bool hit = false;
      CrashAndAudit(config, w, target, torn, &hit);
      fired += hit ? 1 : 0;
    }
    SCOPED_TRACE("between-steps fence_target=" + std::to_string(between) +
                 " torn=" + std::to_string(torn));
    bool hit = false;
    CrashAndAudit(config, w, between, torn, &hit);
    EXPECT_TRUE(hit);
  }
  EXPECT_GE(fired, 20);
}

// Service-paced GC keeps GC bursts out of the request tail: at half of the
// closed-loop capacity the insert-intensive mix sheds nothing and its upsert
// p99.9 stays under 100 us. Deterministic, so this is a regression guard.
TEST(Service, HalfLoadShedsNothingAndKeepsUpsertTailUnderSlo) {
  double capacity = 0;
  {
    kvindex::Runtime rt(SmallRuntime());
    ShardedKvService probe(rt, SmallService(2));
    OpenLoopConfig w = SmallWorkload(0.0);
    probe.Warm(w);
    capacity = probe.Run(w).achieved_mops;
  }
  ASSERT_GT(capacity, 0.0);
  ServiceResult half = RunFresh(capacity / 2);
  EXPECT_EQ(half.shed, 0u);
  const metrics::Histogram& upsert = half.metrics_snapshot.virt(metrics::OpKind::kUpsert);
  ASSERT_GT(upsert.Count(), 0u);
  EXPECT_LT(upsert.Percentile(99.9), 100'000u) << "upsert p99.9 ns at " << capacity / 2
                                               << " Mop/s";
}

// --- satellite: Reopen value-store leak accounting ---------------------------

TEST(ReopenLeak, ValueStoreRestartLeakIsCountedAndBounded) {
  kvindex::Runtime rt(SmallRuntime());
  constexpr uint64_t kRegionBytes = 1 << 20;  // ValueStore's per-socket region
  const int sockets = rt.options().device.num_sockets;
  std::vector<std::byte> payload(256, std::byte{0x7C});
  uint64_t prev_leaked = 0;
  for (int restart = 1; restart <= 4; restart++) {
    {
      // Reserve a region on each socket so the pre-crash store always has an
      // unused remainder to orphan.
      pmsim::ThreadContext ctx(rt.device(), 0);
      for (int s = 0; s < sockets; s++) {
        rt.values().Append(payload, s);
      }
    }
    EXPECT_GT(rt.values().unused_reserved_bytes(), 0u);
    rt.device().Crash();
    std::string error;
    ASSERT_TRUE(rt.Reopen(&error)) << error;
    uint64_t leaked = rt.values().leaked_bytes();
    // Monotone growth across crash-recover cycles (the silent pre-fix
    // behavior reset this to zero every restart)...
    EXPECT_GT(leaked, prev_leaked) << "restart " << restart;
    // ...bounded by one region per socket per restart.
    EXPECT_LE(leaked, static_cast<uint64_t>(restart) *
                          static_cast<uint64_t>(sockets) * kRegionBytes);
    prev_leaked = leaked;
  }
}

}  // namespace
}  // namespace cclbt::service
