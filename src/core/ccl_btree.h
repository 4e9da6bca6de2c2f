// CCL-BTree: crash-consistent locality-aware B+-tree (the paper's
// contribution). See DESIGN.md for the module map.
//
// Structure (paper Figure 6):
//   inner nodes   DRAM  kvindex::DramBTree separators -> BufferNode*
//   buffer nodes  DRAM  N_batch write-merging slots + read cache (§3.2)
//   leaf nodes    PM    256 B, unsorted, ordered between leaves (§4.1)
//   WALs          PM    per-thread, write-conservative (§3.3)
//   GC            background, locality-aware B-log/I-log flip (§3.4)
#ifndef SRC_CORE_CCL_BTREE_H_
#define SRC_CORE_CCL_BTREE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <thread>
#include <vector>

#include "src/common/lock.h"
#include "src/core/buffer_node.h"
#include "src/core/leaf_node.h"
#include "src/core/options.h"
#include "src/core/wal.h"
#include "src/kvindex/dram_btree.h"
#include "src/kvindex/kv_index.h"
#include "src/kvindex/runtime.h"
#include "src/pmem/slab_allocator.h"

namespace cclbt::core {

class CclBTree : public kvindex::KvIndex {
 public:
  // Formats a fresh tree in the runtime's pool (Lifecycle::kCreate), or
  // binds to an existing persistent tree after Runtime::Reopen()
  // (Lifecycle::kAttach) — an attached tree must complete Recover() before
  // any operation.
  CclBTree(kvindex::Runtime& runtime, const TreeOptions& options,
           kvindex::Lifecycle lifecycle = kvindex::Lifecycle::kCreate);

  ~CclBTree() override;

  CclBTree(const CclBTree&) = delete;
  CclBTree& operator=(const CclBTree&) = delete;

  // --- kvindex::KvIndex -----------------------------------------------------
  void Upsert(uint64_t key, uint64_t value) override;
  bool Lookup(uint64_t key, uint64_t* value_out) override;
  bool Remove(uint64_t key) override;  // tombstone upsert (§4.2)
  size_t Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) override;
  const char* name() const override { return "CCL-BTree"; }
  kvindex::MemoryFootprint Footprint() const override;
  void FlushAll() override;

  // --- persistence lifecycle (paper §3.3, DESIGN.md §9) ----------------------
  bool recoverable() const override { return true; }
  // Torn fence groups are safe: WAL entries carry a generation^checksum tag
  // that rejects partially persisted entries, and leaf batches persist data
  // lines before the header line that publishes them.
  bool tolerates_torn_crash() const override { return true; }
  // Failure recovery: rebuilds the DRAM layers from the persistent leaf
  // list, replays WALs, resets leaf timestamps, reclaims unreachable leaves
  // and log chunks. `recovery_threads` parallelizes the log scan/replay
  // phase (paper Figure 17). Only valid once, on a kAttach instance; returns
  // false if the pool holds no valid tree root.
  bool Recover(kvindex::Runtime& runtime, int recovery_threads) override;

  // --- GC (paper §3.4, scheduling DESIGN.md §10) -----------------------------
  // Locality-aware GC is a resumable sweep: a step flips the epoch if no
  // sweep is open, copies old-epoch buffered KVs into the I-log, and closes
  // the sweep (releasing the old B-log) once every buffer node of its
  // snapshot has been visited. A full round is a step with no budget.
  //
  // One full round in the caller's thread, on the caller's context and WAL
  // (finishes an open sweep instead of starting a new one).
  void RunGcOnce();
  bool GcTriggerReached() const;
  // Deterministic virtual-time GC: if a sweep is open or the trigger has
  // fired, runs one full round on the tree-owned GC context, fast-forwarded
  // to the frontier of all live worker clocks. Called automatically every
  // gc_quantum_ops-th upsert when background_gc is on in kDeterministic
  // scheduling; drivers, benches and the crash matrix may also call it
  // directly at virtual-time epochs. Returns true if a round finished. No-op
  // in GcMode::kNone and while another thread is mid-round.
  bool GcTick() override;
  // Bounded step of the same sweep: copies at most `budget` entries, with
  // the PM cost charged to the GC context (like GcTick) but the copies
  // appended to the caller's own WAL, whose I-log chunk is already live.
  // Naive GC has no step and runs a full round. Returns true if a round
  // finished. Costs one trigger check when no sweep is open.
  bool GcStep(uint64_t budget) override;
  // Fence-count windows [first, last] (1-based, inclusive) of completed GC
  // steps (one per full round), recorded only while a pmsim::CrashInjector
  // is installed. `sweep` numbers the sweep the step belongs to (1-based),
  // so two windows with the same number are steps of one sweep. The crash
  // matrix schedules points inside these windows to crash mid-GC.
  struct GcFenceWindow {
    uint64_t first_fence = 0;
    uint64_t last_fence = 0;
    uint64_t sweep = 0;
  };
  std::vector<GcFenceWindow> gc_fence_windows() const;

  // --- introspection ----------------------------------------------------------
  uint64_t log_live_bytes() const { return wals_->live_bytes(); }
  uint64_t log_peak_bytes() const { return wals_->peak_bytes(); }
  uint64_t leaf_bytes() const { return leaf_slab_->allocated_slots() * kLeafBytes; }
  uint64_t dram_hits() const { return dram_hits_.load(std::memory_order_relaxed); }
  uint64_t buffer_flushes() const { return buffer_flushes_.load(std::memory_order_relaxed); }
  uint64_t splits() const { return splits_.load(std::memory_order_relaxed); }
  uint64_t merges() const { return merges_.load(std::memory_order_relaxed); }
  uint64_t gc_rounds() const { return gc_rounds_.load(std::memory_order_relaxed); }
  // Virtual clock of the deterministic GC context (0 when GC runs on the
  // legacy OS thread or gc_mode is kNone). Benches fold this into the run's
  // modeled elapsed time.
  uint64_t gc_vtime_ns() const { return gc_ctx_ ? gc_ctx_->now_ns() : 0; }
  // Modeled duration of the last Recover() call: serial rebuild walk plus
  // the slowest parallel replay worker (paper Figure 17).
  uint64_t last_recovery_modeled_ns() const override {
    return last_recovery_modeled_ns_.load(std::memory_order_relaxed);
  }
  const TreeOptions& options() const { return options_; }

  // Metrics epoch gauges (kv_index.h contract): GC round count and log
  // backlog, buffer churn, structural counters — all reads of existing
  // relaxed counters/accessors, no pmsim traffic.
  void SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const override;

  // Walks the persistent leaf list and verifies structural invariants
  // (ordering between leaves, bitmap/fingerprint agreement). Test hook.
  bool CheckInvariants() const;

 private:
  struct TreeRoot {  // persistent root record (pool app-root slot
                     // TreeOptions::root_slot, default 0)
    uint64_t magic;
    uint64_t head_leaf_offset;
    uint64_t slab_registry_offset;
    uint64_t arena_registry_offset;
  };
  static constexpr uint64_t kTreeMagic = 0xCC1B7123ULL;

  // --- write path -------------------------------------------------------------
  void UpsertInternal(uint64_t key, uint64_t value);
  // Routes to the covering buffer node and acquires its version lock,
  // retrying on concurrent splits/merges.
  BufferNode* RouteAndLock(uint64_t key);
  // Flushes all buffered KVs plus `extra` into the leaf in one batch
  // (bn locked). `ts` stamps the leaf.
  void FlushBuffer(BufferNode* bn, const kvindex::KeyValue* extra, uint64_t ts);
  // Applies `n` KVs to bn's leaf: in-place updates, tombstones, new slots;
  // splits when full. Persists data lines then the header (bn locked).
  // When update_ts is false the leaf timestamp is preserved (recovery replay).
  void BatchInsertLeaf(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts,
                       bool update_ts = true);
  // Logless split (paper §4.2); returns the new right-hand buffer node.
  BufferNode* SplitLeaf(BufferNode* bn);
  // Merge bn's underutilized leaf into its left sibling if possible
  // (paper §4.2). Called with bn *unlocked*; takes locks in key order.
  void TryMergeLeft(uint64_t sep);

  // --- GC internals ------------------------------------------------------------
  // Step budget of a full round: the sweep runs to the end.
  static constexpr uint64_t kFullRound = UINT64_MAX;
  // Starts the configured GC scheduler. Called exactly once per instance,
  // only after the tree is fully initialized (end of the kCreate constructor
  // or after recovered_ is set in Recover()) — no code path may start GC on
  // a tree whose recovery is unsettled.
  void InitGc();
  // Stops and joins the legacy OS GC thread if one is running. Idempotent.
  void StopBackgroundGc();
  // Post-op hook in kOsThread scheduling: wakes the GC thread when the
  // trigger is reached (it otherwise blocks on gc_cv_ instead of polling).
  void NotifyGcThreadIfTriggered();
  void GcThreadBody();
  // An open sweep or a reached trigger: a step has work to do.
  bool GcDue() const;
  // Takes gc_tick_mu_ (no-op if another step holds it), installs the GC
  // context (fast-forwarded to the frontier) and runs one step of `budget`
  // entries appended to `wal_worker`'s WAL.
  bool StepOnGcContext(uint64_t budget, int wal_worker);
  // One GC step in the current context (trace scope, fence window); the
  // caller holds gc_tick_mu_. Returns true if a round finished.
  bool RunGcStep(uint64_t budget, int wal_worker);
  void NaiveGc();
  bool LocalityAwareSweep(uint64_t budget, int wal_worker);
  // Copies up to `limit` of bn's pending old-epoch slots into `wal_worker`'s
  // I-log. Returns the number copied; *done is false when old-epoch slots
  // remain because the limit ran out.
  uint64_t CopyOldEpochSlots(BufferNode* bn, uint64_t limit, int wal_worker, bool* done);
  // Collects live buffer nodes in key order (brief shared-lock windows).
  std::vector<BufferNode*> CollectBufferNodes() const;

  // --- recovery internals --------------------------------------------------------
  void RebuildFromLeafList();
  void ReplayLogs(int threads);
  void ResetLeafTimestamps();

  // --- helpers ----------------------------------------------------------------
  PmLeaf* AllocLeaf(int socket);
  BufferNode* NewBufferNode(PmLeaf* leaf, uint64_t sep, uint64_t recovery_ts);
  uint64_t LeafOffset(const PmLeaf* leaf) const;
  PmLeaf* LeafAt(uint64_t offset) const;
  void ChargeDram(uint64_t accesses) const;
  void ChargeInnerDescent() const;  // ChargeDram(8) under a kInner scope

  kvindex::Runtime& rt_;
  TreeOptions options_;
  kvindex::Lifecycle lifecycle_;
  bool recovered_ = false;

  std::unique_ptr<pmem::SlabAllocator> leaf_slab_;
  std::unique_ptr<pmem::LogArena> log_arena_;
  std::unique_ptr<WalSet> wals_;

  kvindex::DramBTree<BufferNode*> inner_;
  PmLeaf* head_leaf_ = nullptr;

  std::atomic<uint32_t> global_epoch_{0};
  // Gate used only by the naive GC baseline: upserts shared, GC exclusive.
  sync::SharedMutex naive_gate_{"tree.naive_gate"};

  // All buffer nodes ever created (owned; freed in the destructor — dead
  // nodes stay allocated so optimistic readers never touch freed memory).
  mutable sync::Mutex all_bns_mu_{"tree.all_bns"};
  std::vector<BufferNode*> all_bns_ GUARDED_BY(all_bns_mu_);
  std::atomic<uint64_t> live_bn_count_{0};

  std::atomic<uint64_t> dram_hits_{0};
  std::atomic<uint64_t> buffer_flushes_{0};
  std::atomic<uint64_t> splits_{0};
  std::atomic<uint64_t> merges_{0};
  std::atomic<uint64_t> gc_rounds_{0};
  // Live log bytes right after the last GC round (hysteresis floor).
  std::atomic<uint64_t> post_gc_live_bytes_{0};
  std::atomic<uint64_t> last_recovery_modeled_ns_{0};
  std::atomic<uint64_t> replay_max_vtime_ns_{0};

  // --- GC scheduling state (DESIGN.md §10) ------------------------------------
  // Deterministic scheduling: the tree-owned context all GC PM traffic is
  // charged to (fig14's GC cost model), serialized by gc_tick_mu_.
  std::unique_ptr<pmsim::ThreadContext> gc_ctx_;
  sync::Mutex gc_tick_mu_{"tree.gc_tick"};
  // Upserts since creation; every gc_quantum_ops-th one checks the trigger.
  std::atomic<uint64_t> gc_op_counter_{0};
  // The open locality-aware sweep (serialized by gc_tick_mu_; sweep_open_ is
  // also read without it as GcStep's cheap pre-check): the buffer nodes
  // snapshotted at the flip and the next one to visit.
  std::atomic<bool> sweep_open_{false};
  uint32_t sweep_old_epoch_ = 0;
  std::vector<BufferNode*> sweep_bns_;
  size_t sweep_next_ = 0;
  // Completed GC rounds as fence-count windows; recorded only while a crash
  // injector is installed (crash-matrix runs), so the hot path never locks.
  mutable sync::Mutex gc_windows_mu_{"tree.gc_windows"};
  std::vector<GcFenceWindow> gc_fence_windows_ GUARDED_BY(gc_windows_mu_);
  // Legacy kOsThread scheduling: trigger-signalled worker (no timed polling).
  std::atomic<bool> stop_gc_{false};
  sync::Mutex gc_cv_mu_{"tree.gc_cv"};
  // _any: sync::Mutex is BasicLockable but is not std::mutex.
  std::condition_variable_any gc_cv_;
  std::thread gc_thread_;
};

}  // namespace cclbt::core

#endif  // SRC_CORE_CCL_BTREE_H_
