// GC scheduling (DESIGN.md §10): deterministic virtual-time GC (the default)
// runs rounds at reproducible points via the cooperative quantum and the
// explicit GcTick() API; GcStep() advances the same sweep by a bounded
// number of copies and resumes where it stopped; the legacy kOsThread
// escape hatch backs off on a condition variable (no timed polling) and
// never starts before recovery is settled. The kOsThread tests double as the TSan coverage of the real
// GC thread (tools/ci.sh includes this binary in the sanitizer presets).
#include <chrono>
#include <memory>
#include <thread>

#include <gtest/gtest.h>

#include "src/common/rng.h"
#include "src/core/ccl_btree.h"
#include "src/kvindex/runtime.h"

namespace cclbt::core {
namespace {

using kvindex::Runtime;
using kvindex::RuntimeOptions;

std::unique_ptr<Runtime> MakeRuntime(size_t pool_bytes = 128 << 20) {
  RuntimeOptions options;
  options.device.pool_bytes = pool_bytes;
  return std::make_unique<Runtime>(options);
}

// Aggressive trigger so small tests reach GC quickly.
TreeOptions GcOptions() {
  TreeOptions options;
  options.th_log_pct = 5;
  options.gc_quantum_ops = 16;
  return options;
}

void InsertMany(CclBTree& tree, uint64_t count, uint64_t seed) {
  for (uint64_t i = 0; i < count; i++) {
    tree.Upsert(Mix64(seed + i) | 1, i + 1);
  }
}

TEST(GcSchedulingTest, DeterministicQuantumRunsGcAtTrigger) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();  // background_gc on, kDeterministic
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 4000, /*seed=*/1);
  EXPECT_GT(tree.gc_rounds(), 0u) << "cooperative quantum never ran a round";
  // The round ran on the tree-owned GC context, fast-forwarded to the
  // virtual-time frontier — not at time zero, not on the worker's clock.
  EXPECT_GT(tree.gc_vtime_ns(), 0u);
}

TEST(GcSchedulingTest, DeterministicGcIsReproducible) {
  uint64_t rounds[2];
  uint64_t live_bytes[2];
  uint64_t gc_vtime[2];
  for (int run = 0; run < 2; run++) {
    auto rt = MakeRuntime();
    CclBTree tree(*rt, GcOptions());
    pmsim::ThreadContext ctx(rt->device(), 0, 0);
    InsertMany(tree, 4000, /*seed=*/1);
    rounds[run] = tree.gc_rounds();
    live_bytes[run] = tree.log_live_bytes();
    gc_vtime[run] = tree.gc_vtime_ns();
  }
  EXPECT_GT(rounds[0], 0u);
  EXPECT_EQ(rounds[0], rounds[1]);
  EXPECT_EQ(live_bytes[0], live_bytes[1]);
  EXPECT_EQ(gc_vtime[0], gc_vtime[1]);
}

TEST(GcSchedulingTest, ManualGcTickHonorsTriggerAndHysteresis) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.background_gc = false;  // rounds only via explicit ticks
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 2000, /*seed=*/2);
  EXPECT_EQ(tree.gc_rounds(), 0u);
  ASSERT_TRUE(tree.GcTriggerReached());
  EXPECT_TRUE(tree.GcTick());
  EXPECT_EQ(tree.gc_rounds(), 1u);
  // Immediately after a round the hysteresis floor holds the trigger down.
  EXPECT_FALSE(tree.GcTick());
  EXPECT_EQ(tree.gc_rounds(), 1u);
}

TEST(GcSchedulingTest, GcTickIsNoOpInGcModeNone) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_mode = GcMode::kNone;
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 500, /*seed=*/3);
  EXPECT_FALSE(tree.GcTick());
  EXPECT_EQ(tree.gc_rounds(), 0u);
  EXPECT_EQ(tree.gc_vtime_ns(), 0u);
}

// Naive GC under deterministic scheduling is stop-the-world: after a round,
// every live worker clock has been raised to the barrier's end.
TEST(GcSchedulingTest, NaiveGcRaisesWorkerClocksToBarrierEnd) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_mode = GcMode::kNaive;
  options.background_gc = false;
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  InsertMany(tree, 2000, /*seed=*/4);
  ASSERT_TRUE(tree.GcTick());
  EXPECT_GE(ctx.now_ns(), tree.gc_vtime_ns());
}

// --- resumable locality-aware sweep (GcStep) ----------------------------------

// A tree past its GC trigger with rounds paced only by explicit calls.
std::unique_ptr<CclBTree> TriggeredTree(Runtime& rt) {
  TreeOptions options = GcOptions();
  options.background_gc = false;
  auto tree = std::make_unique<CclBTree>(rt, options);
  InsertMany(*tree, 2000, /*seed=*/6);
  EXPECT_TRUE(tree->GcTriggerReached());
  return tree;
}

TEST(GcSchedulingTest, GcStepCopiesAtMostItsBudget) {
  auto rt = MakeRuntime();
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  auto tree = TriggeredTree(*rt);
  for (uint64_t budget : {1, 3, 2}) {
    uint64_t live_before = tree->log_live_bytes();
    EXPECT_FALSE(tree->GcStep(budget)) << "budget " << budget;
    // Nothing else appended in between: the growth is the step's copies.
    EXPECT_EQ(tree->log_live_bytes() - live_before, budget * sizeof(LogEntry))
        << "budget " << budget;
  }
  EXPECT_EQ(tree->gc_rounds(), 0u);
}

TEST(GcSchedulingTest, RepeatedGcStepsFinishTheRoundLikeAFullRound) {
  auto rt = MakeRuntime();
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  uint64_t full_round_live = 0;
  {
    auto reference = TriggeredTree(*rt);
    ASSERT_TRUE(reference->GcTick());
    full_round_live = reference->log_live_bytes();
  }
  auto rt2 = MakeRuntime();
  pmsim::ThreadContext ctx2(rt2->device(), 0, 0);
  auto tree = TriggeredTree(*rt2);
  uint64_t live_before = tree->log_live_bytes();
  int steps = 1;
  while (!tree->GcStep(2)) {
    ASSERT_EQ(tree->gc_rounds(), 0u);
    ASSERT_LT(++steps, 10'000) << "sweep never finished";
  }
  EXPECT_GT(steps, 1);
  EXPECT_EQ(tree->gc_rounds(), 1u);
  // The old B-log is released: what stays live is the I-log of copies, the
  // same bytes a full round leaves.
  EXPECT_LT(tree->log_live_bytes(), live_before);
  EXPECT_EQ(tree->log_live_bytes(), full_round_live);
  // The hysteresis floor is set: the copies alone keep the log over TH_log,
  // yet no new sweep opens right away.
  ASSERT_GT(tree->log_live_bytes() * 100,
            tree->leaf_bytes() * static_cast<uint64_t>(GcOptions().th_log_pct));
  EXPECT_FALSE(tree->GcTriggerReached());
  EXPECT_FALSE(tree->GcStep(2));
  EXPECT_EQ(tree->gc_rounds(), 1u);
}

TEST(GcSchedulingTest, GcTickMidSweepFinishesTheSweep) {
  auto rt = MakeRuntime();
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  auto tree = TriggeredTree(*rt);
  ASSERT_FALSE(tree->GcStep(2));  // opens the sweep
  // Foreground writes between steps land in the new epoch's I-log.
  InsertMany(*tree, 300, /*seed=*/1'000'000);
  EXPECT_TRUE(tree->GcTick());
  EXPECT_EQ(tree->gc_rounds(), 1u);
  EXPECT_FALSE(tree->GcStep(2));
  EXPECT_EQ(tree->gc_rounds(), 1u);
  for (uint64_t seed : {6, 1'000'000}) {
    uint64_t count = seed == 6 ? 2000 : 300;
    for (uint64_t i = 0; i < count; i += 7) {
      uint64_t value = 0;
      ASSERT_TRUE(tree->Lookup(Mix64(seed + i) | 1, &value));
      EXPECT_EQ(value, i + 1);
    }
  }
  EXPECT_TRUE(tree->CheckInvariants());
}

// Lifecycle audit: a kAttach instance whose Recover() fails (pool was never
// formatted) must destruct cleanly with background GC configured — no GC
// state may exist before recovered_ is settled. Run under ASan/TSan via the
// sanitizer presets.
TEST(GcSchedulingTest, FailedRecoveryDestructsCleanly) {
  for (GcScheduling scheduling : {GcScheduling::kDeterministic, GcScheduling::kOsThread}) {
    auto rt = MakeRuntime();
    TreeOptions options = GcOptions();
    options.gc_scheduling = scheduling;
    auto tree = std::make_unique<CclBTree>(*rt, options, kvindex::Lifecycle::kAttach);
    EXPECT_FALSE(tree->Recover(*rt, /*recovery_threads=*/2));
    tree.reset();  // must not join/stop anything that was never started
  }
}

TEST(GcSchedulingTest, RecoverOnCreateInstanceFails) {
  auto rt = MakeRuntime();
  CclBTree tree(*rt, GcOptions());
  EXPECT_FALSE(tree.Recover(*rt, 1));
}

// Legacy escape hatch: the GC thread parks on a condition variable and is
// woken by trigger producers — rounds still happen without any timed poll.
TEST(GcSchedulingTest, OsThreadModeRunsGcWhenSignalled) {
  auto rt = MakeRuntime();
  TreeOptions options = GcOptions();
  options.gc_scheduling = GcScheduling::kOsThread;
  CclBTree tree(*rt, options);
  pmsim::ThreadContext ctx(rt->device(), 0, 0);
  auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  uint64_t seed = 5;
  while (tree.gc_rounds() == 0 && std::chrono::steady_clock::now() < deadline) {
    InsertMany(tree, 200, seed);
    seed += 200;
  }
  EXPECT_GT(tree.gc_rounds(), 0u) << "GC thread never woke on the trigger signal";
}

// Destruction with the GC thread parked (trigger never reached) must not
// hang: StopBackgroundGc signals the condition variable.
TEST(GcSchedulingTest, OsThreadModeStopsPromptlyWhenIdle) {
  auto rt = MakeRuntime();
  TreeOptions options;  // default trigger: never reached with zero ops
  options.gc_scheduling = GcScheduling::kOsThread;
  CclBTree tree(*rt, options);
}

}  // namespace
}  // namespace cclbt::core
