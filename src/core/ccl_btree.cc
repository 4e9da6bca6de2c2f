#include "src/core/ccl_btree.h"

#include <algorithm>
#include <cstdio>
#include <cassert>
#include <cstring>
#include <map>
#include <optional>
#include <unordered_set>
#include <vector>

#include "src/common/simd.h"
#include "src/metrics/metrics.h"
#include "src/pmsim/crash_injector.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/trace.h"

namespace cclbt::core {

namespace {

// Leaf cacheline geometry: line 0 holds the header plus slots 0-1; slots 2-5,
// 6-9, 10-13 occupy lines 1-3.
uint32_t LineOfSlot(int slot) {
  return static_cast<uint32_t>((32 + 16 * slot) / 64);
}

int FindSlotWithBitmap(const PmLeaf* leaf, uint64_t bitmap, uint64_t key) {
  uint8_t fp = Fingerprint8(key);
  for (uint32_t cand = simd::FpMatch16(leaf->fingerprints, fp, static_cast<uint32_t>(bitmap));
       cand != 0; cand &= cand - 1) {
    int slot = __builtin_ctz(cand);
    if (leaf->kvs[slot].key == key) {
      return slot;
    }
  }
  return -1;
}

// Bitmask of buffer slots whose key equals `key`. The slots are atomics
// mutated under the node's version lock; the SIMD probe reads them with
// plain vector loads — exactly the optimistic race the version-validation
// protocol accounts for. Under TSan the scalar loop keeps each access a
// relaxed atomic load so the race checker sees the protocol, not the
// vector shortcut.
uint32_t BufferKeyMatch(const BufferSlot* slots, int nbatch, uint64_t key) {
  if constexpr (simd::kTsanBuild) {
    uint32_t out = 0;
    for (int i = 0; i < nbatch; i++) {
      if (slots[i].key.load(std::memory_order_relaxed) == key) {
        out |= 1u << i;
      }
    }
    return out;
  } else {
    return simd::KeyMatchStride2(reinterpret_cast<const uint64_t*>(slots), nbatch, key,
                                 (1u << nbatch) - 1);
  }
}

}  // namespace

CclBTree::CclBTree(kvindex::Runtime& runtime, const TreeOptions& options,
                   kvindex::Lifecycle lifecycle)
    : rt_(runtime), options_(options), lifecycle_(lifecycle) {
  assert(options_.nbatch >= 1 && options_.nbatch <= 6);
  if (lifecycle_ == kvindex::Lifecycle::kAttach) {
    // Binding to the persistent image is deferred to Recover(), which
    // validates the root record instead of asserting on it.
    return;
  }
  pmsim::ThreadContext boot_ctx(rt_.device(), /*socket=*/0, /*worker_id=*/0);

  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  slab_options.tag = pmsim::StreamTag::kLeaf;
  leaf_slab_ = pmem::SlabAllocator::Create(rt_.pool(), slab_options);
  log_arena_ = pmem::LogArena::Create(rt_.pool());
  wals_ = std::make_unique<WalSet>(*log_arena_, options_.max_workers);

  head_leaf_ = AllocLeaf(/*socket=*/0);
  assert(head_leaf_ != nullptr);
  std::memset(static_cast<void*>(head_leaf_), 0, kLeafBytes);
  {
    // Formatting persist: the empty head leaf must be durable even though a
    // fresh pool already holds zeroes (a reused slot would not).
    pmsim::PmCheckExpect format_expect(pmsim::PmCheckClass::kRedundantFlush);
    pmsim::Persist(head_leaf_, kLeafBytes);
  }

  auto* root = static_cast<TreeRoot*>(
      rt_.pool().AllocateRaw(sizeof(TreeRoot), 0, pmsim::StreamTag::kOther));
  assert(root != nullptr);
  root->magic = kTreeMagic;
  root->head_leaf_offset = LeafOffset(head_leaf_);
  root->slab_registry_offset = leaf_slab_->registry_offset();
  root->arena_registry_offset = log_arena_->registry_offset();
  pmsim::Persist(root, sizeof(TreeRoot));
  rt_.pool().SetAppRoot(options_.root_slot, rt_.pool().ToOffset(root));

  BufferNode* head_bn = NewBufferNode(head_leaf_, /*sep=*/0, /*recovery_ts=*/0);
  inner_.Insert(0, head_bn);

  InitGc();
}

bool CclBTree::Recover(kvindex::Runtime& runtime, int recovery_threads) {
  assert(&runtime == &rt_ && "Recover must use the runtime the tree was constructed with");
  (void)runtime;
  if (lifecycle_ != kvindex::Lifecycle::kAttach || recovered_) {
    return false;
  }
  uint64_t root_offset = rt_.pool().GetAppRoot(options_.root_slot);
  if (root_offset == 0) {
    return false;  // the pool was never formatted with a tree
  }
  auto* root = static_cast<TreeRoot*>(rt_.pool().ToAddr(root_offset));
  if (root->magic != kTreeMagic) {
    return false;
  }

  pmsim::ThreadContext boot_ctx(rt_.device(), /*socket=*/0, /*worker_id=*/0);
  uint64_t boot_start = boot_ctx.now_ns();
  pmsim::ReadPm(root, sizeof(TreeRoot));

  pmem::SlabAllocator::Options slab_options;
  slab_options.slot_bytes = kLeafBytes;
  slab_options.tag = pmsim::StreamTag::kLeaf;
  leaf_slab_ = pmem::SlabAllocator::Open(rt_.pool(), root->slab_registry_offset, slab_options);
  log_arena_ = pmem::LogArena::Open(rt_.pool(), root->arena_registry_offset);
  wals_ = std::make_unique<WalSet>(*log_arena_, options_.max_workers);
  head_leaf_ = LeafAt(root->head_leaf_offset);

  RebuildFromLeafList();
  ReplayLogs(recovery_threads);
  ResetLeafTimestamps();
  // Modeled recovery duration: the serial work on this thread (leaf-list
  // walk, chunk reclaim, timestamp reset) plus the slowest replay worker.
  last_recovery_modeled_ns_.store(
      boot_ctx.now_ns() - boot_start + replay_max_vtime_ns_.load(std::memory_order_relaxed),
      std::memory_order_relaxed);
  recovered_ = true;
  // GC may only start now: every earlier return leaves the instance without
  // GC state, so a failed recovery destructs without joining anything.
  InitGc();
  return true;
}

CclBTree::~CclBTree() {
  StopBackgroundGc();
  sync::LockGuard<sync::Mutex> guard(all_bns_mu_);
  for (BufferNode* bn : all_bns_) {
    BufferNode::Delete(bn);
  }
}

// --- helpers -----------------------------------------------------------------

PmLeaf* CclBTree::AllocLeaf(int socket) {
  return static_cast<PmLeaf*>(leaf_slab_->Allocate(socket));
}

BufferNode* CclBTree::NewBufferNode(PmLeaf* leaf, uint64_t sep, uint64_t recovery_ts) {
  BufferNode* bn = BufferNode::New(leaf, options_.nbatch);
  bn->set_sep(sep);
  bn->set_recovery_orig_ts(recovery_ts);
  {
    sync::LockGuard<sync::Mutex> guard(all_bns_mu_);
    all_bns_.push_back(bn);
  }
  live_bn_count_.fetch_add(1, std::memory_order_relaxed);
  return bn;
}

uint64_t CclBTree::LeafOffset(const PmLeaf* leaf) const { return rt_.pool().ToOffset(leaf); }

PmLeaf* CclBTree::LeafAt(uint64_t offset) const {
  return static_cast<PmLeaf*>(rt_.pool().ToAddr(offset));
}

void CclBTree::ChargeDram(uint64_t accesses) const {
  pmsim::AdvanceCpu(accesses * rt_.device().config().cost.dram_access_ns);
}

void CclBTree::ChargeInnerDescent() const {
  // Upsert's and Lookup's descent cost, attributed to the inner index. It is
  // not charged inside RouteAndLock: recovery's log replay routes through
  // that uncharged, and moving the charge would move the virtual clock.
  trace::TraceScope scope(trace::Component::kInner);
  ChargeDram(8);
}

// --- write path ----------------------------------------------------------------

BufferNode* CclBTree::RouteAndLock(uint64_t key) {
  trace::TraceScope scope(trace::Component::kInner);
  for (;;) {
    bool found = false;
    BufferNode* bn = inner_.RouteFloor(key, &found);
    assert(found && "sentinel separator 0 must exist");
    if (!bn->TryLock()) {
      std::this_thread::yield();
      continue;
    }
    // Re-validate under the lock: the node may have died (merge) or split
    // away the range containing `key` between routing and locking.
    if (bn->dead() || inner_.RouteFloor(key) != bn) {
      bn->Unlock();
      continue;
    }
    return bn;
  }
}

void CclBTree::Upsert(uint64_t key, uint64_t value) {
  assert(key != 0 && "key 0 is reserved for the head sentinel separator");
  if (options_.gc_mode == GcMode::kNaive) {
    sync::SharedLockGuard<sync::SharedMutex> gate(naive_gate_);
    UpsertInternal(key, value);
  } else {
    UpsertInternal(key, value);
  }
  // Cooperative GC quantum, outside the naive gate (NaiveGc takes it
  // exclusively; scheduling from inside the shared section would deadlock).
  if (options_.background_gc && options_.gc_mode != GcMode::kNone) {
    if (options_.gc_scheduling == GcScheduling::kDeterministic) {
      uint64_t n = gc_op_counter_.fetch_add(1, std::memory_order_relaxed) + 1;
      if (options_.gc_quantum_ops > 0 &&
          n % static_cast<uint64_t>(options_.gc_quantum_ops) == 0) {
        GcTick();
      }
    } else {
      NotifyGcThreadIfTriggered();
    }
  }
}

void CclBTree::UpsertInternal(uint64_t key, uint64_t value) {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  ChargeInnerDescent();

  if (!options_.buffering) {
    // Ablation "Base": write straight to the PM leaf, FPTree-style. The
    // leaf's bitmap-commit makes the single-KV insert crash-consistent
    // without any WAL.
    BufferNode* bn = RouteAndLock(key);
    kvindex::KeyValue kv{key, value};
    BatchInsertLeaf(bn, &kv, 1, rt_.ordo().Now(ctx->socket()));
    uint64_t sep = bn->sep();
    bool underflow = value == kTombstone && bn->leaf()->LiveCount() < kLeafSlots / 2 && sep != 0;
    bn->Unlock();
    if (underflow) {
      TryMergeLeft(sep);
    }
    return;
  }

  BufferNode* bn = RouteAndLock(key);
  BufferSlot* slots = bn->slots();
  int pos = bn->pos();
  int nbatch = bn->nbatch();
  // The global epoch must be read inside the critical section: the GC flips
  // it and then visits every buffer node under its lock, so any slot tagged
  // with the old epoch here is guaranteed to be seen by the GC scan (§3.4).
  uint32_t epoch = global_epoch_.load(std::memory_order_acquire);

  // One SIMD probe over the {key,value} slots; a key appears at most once in
  // the buffer (see the stale-eviction below), so first-match == only-match.
  uint32_t match = BufferKeyMatch(slots, nbatch, key);
  uint32_t current_bits = match & ((1u << pos) - 1);
  uint32_t stale_bits = match & ~((1u << pos) - 1);
  int current_match = current_bits != 0 ? __builtin_ctz(current_bits) : -1;
  int stale_match = stale_bits != 0 ? __builtin_ctz(stale_bits) : -1;
  ChargeDram(static_cast<uint64_t>(nbatch));

  if (current_match >= 0) {
    // Update of a KV still buffered: overwrite in place. Logged always (it
    // never triggers a flush).
    uint64_t ts = rt_.ordo().Now(ctx->socket());
    bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts);
    assert(logged && "log arena exhausted");
    (void)logged;
    slots[current_match].value.store(value, std::memory_order_release);
    bn->SetEpochBit(current_match, epoch);
    bn->Unlock();
    metrics::Add(metrics::Counter::kBufferAbsorbs);
    return;
  }

  if (pos < nbatch) {
    // Non-trigger write: append the WAL entry first, then fill the slot
    // (§3.3 — the log is the recovery source for buffered KVs).
    uint64_t ts = rt_.ordo().Now(ctx->socket());
    bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts);
    assert(logged && "log arena exhausted");
    (void)logged;
    if (stale_match >= 0 && stale_match != pos) {
      // Evict the stale cached copy of this key into the slot we are about
      // to consume, so no key ever appears twice in the buffer.
      slots[stale_match].key.store(slots[pos].key.load(std::memory_order_relaxed),
                                   std::memory_order_relaxed);
      slots[stale_match].value.store(slots[pos].value.load(std::memory_order_relaxed),
                                     std::memory_order_relaxed);
    }
    slots[pos].key.store(key, std::memory_order_relaxed);
    slots[pos].value.store(value, std::memory_order_release);
    bn->SetEpochBit(pos, epoch);
    bn->set_pos(pos + 1);
    bn->Unlock();
    metrics::Add(metrics::Counter::kBufferAbsorbs);
    return;
  }

  // Trigger write: the buffer is full — flush everything plus this KV in one
  // XPLine batch. Write-conservative logging skips the WAL entry because the
  // KV becomes durable via the leaf flush itself (§3.3).
  uint64_t ts = rt_.ordo().Now(ctx->socket());
  if (!options_.write_conservative_logging) {
    bool logged = wals_->Append(ctx->worker_id(), static_cast<int>(epoch), key, value, ts);
    assert(logged && "log arena exhausted");
    (void)logged;
  }
  kvindex::KeyValue extra{key, value};
  FlushBuffer(bn, &extra, ts);
  uint64_t sep = bn->sep();
  bool underflow = bn->leaf()->LiveCount() < kLeafSlots / 2 && sep != 0;
  bn->Unlock();
  if (underflow) {
    TryMergeLeft(sep);
  }
}

bool CclBTree::Remove(uint64_t key) {
  Upsert(key, kTombstone);
  return true;
}

void CclBTree::FlushBuffer(BufferNode* bn, const kvindex::KeyValue* extra, uint64_t ts) {
  trace::TraceScope scope(trace::Component::kBufferNode);
  BufferSlot* slots = bn->slots();
  int pos = bn->pos();
  kvindex::KeyValue batch[8];
  assert(pos + (extra != nullptr ? 1 : 0) <= 8);
  for (int i = 0; i < pos; i++) {
    batch[i].key = slots[i].key.load(std::memory_order_relaxed);
    batch[i].value = slots[i].value.load(std::memory_order_relaxed);
  }
  int n = pos;
  if (extra != nullptr) {
    batch[n++] = *extra;
  }
  trace::Emit(trace::EventType::kBufferFlush, static_cast<uint64_t>(n));
  metrics::Add(metrics::Counter::kBufferFlushes);
  metrics::Add(metrics::Counter::kBufferFlushEntries, static_cast<uint64_t>(n));
  BatchInsertLeaf(bn, batch, n, ts);
  buffer_flushes_.fetch_add(1, std::memory_order_relaxed);
  // The slots keep serving reads as a cache (§3.2: "even when the buffered
  // KVs are flushed to the leaf nodes, they are still reserved in the buffer
  // nodes until overwritten"). A slot is only a valid cache entry while it
  // mirrors this leaf: a split inside the batch moves upper-range keys to a
  // new leaf, and a later merge could make such out-of-range slots reachable
  // again with stale values — so revalidate every slot against the leaf and
  // blank the ones that no longer mirror it.
  bn->set_pos(0);
  if (extra != nullptr) {
    slots[0].key.store(extra->key, std::memory_order_relaxed);
    slots[0].value.store(extra->value, std::memory_order_release);
  }
  PmLeaf* leaf = bn->leaf();
  for (int i = 0; i < bn->nbatch(); i++) {
    uint64_t cached_key = slots[i].key.load(std::memory_order_relaxed);
    if (cached_key == 0) {
      continue;
    }
    int slot = leaf->FindSlot(cached_key);
    uint64_t leaf_value = slot >= 0 ? leaf->kvs[slot].value : kTombstone;
    uint64_t cached_value = slots[i].value.load(std::memory_order_relaxed);
    if (slot < 0 && cached_value == kTombstone) {
      continue;  // cached tombstone of an absent key still mirrors the leaf
    }
    if (slot < 0 || leaf_value != cached_value) {
      slots[i].key.store(0, std::memory_order_relaxed);
      slots[i].value.store(0, std::memory_order_relaxed);
    }
  }
}

void CclBTree::BatchInsertLeaf(BufferNode* bn, kvindex::KeyValue* kvs, int n, uint64_t ts,
                               bool update_ts) {
  trace::TraceScope scope(trace::Component::kLeaf);
  PmLeaf* leaf = bn->leaf();
  // The writer reads the header (bitmap + fingerprints) before modifying.
  pmsim::ReadPm(leaf, 64);
  uint64_t bitmap = leaf->bitmap();

  // Dry pass: how many fresh slots does this batch need?
  int need = 0;
  for (int i = 0; i < n; i++) {
    if (kvs[i].value == kTombstone) {
      continue;
    }
    if (FindSlotWithBitmap(leaf, bitmap, kvs[i].key) < 0) {
      need++;
    }
  }
  int free_slots = kLeafSlots - __builtin_popcountll(bitmap);
  if (need > free_slots) {
    // Logless split (§4.2), then dispatch the batch across the two halves.
    BufferNode* right_bn = SplitLeaf(bn);  // returned locked
    uint64_t split_key = right_bn->sep();
    kvindex::KeyValue left_kvs[8];
    kvindex::KeyValue right_kvs[8];
    int nl = 0;
    int nr = 0;
    for (int i = 0; i < n; i++) {
      if (kvs[i].key < split_key) {
        left_kvs[nl++] = kvs[i];
      } else {
        right_kvs[nr++] = kvs[i];
      }
    }
    if (nl > 0) {
      BatchInsertLeaf(bn, left_kvs, nl, ts, update_ts);
    }
    if (nr > 0) {
      BatchInsertLeaf(right_bn, right_kvs, nr, ts, update_ts);
    }
    right_bn->Unlock();
    return;
  }

  // Step 1 (paper §4.2): write the entries into the data region, recording
  // the modified cachelines.
  uint32_t dirty_lines = 0;
  bool header_changed = false;
  // Set when a store knowingly rewrites bytes equal to the line's current
  // content (re-deleting a fence entry, re-upserting an unchanged KV): the
  // line may then be byte-identical to its durable image, and the step-2
  // flush — kept unconditional because the flush schedule is part of the
  // published figures — would be reported by pmcheck as a clean-line flush.
  bool identical_rewrite = false;
  for (int i = 0; i < n; i++) {
    const kvindex::KeyValue& kv = kvs[i];
    int slot = FindSlotWithBitmap(leaf, bitmap, kv.key);
    if (kv.value == kTombstone) {
      if (slot >= 0) {
        // Deleting the leaf's minimum key would raise the recovery-time
        // separator (min key) above the runtime separator (split key) and
        // misroute WAL replay. Keep such keys as fence entries: valid slot,
        // value 0, invisible to lookups and scans.
        uint64_t min_key = simd::MinKeyStride2(reinterpret_cast<const uint64_t*>(leaf->kvs),
                                               kLeafSlots, static_cast<uint32_t>(bitmap));
        if (leaf->kvs[slot].key == min_key) {
          identical_rewrite |= leaf->kvs[slot].value == kTombstone;
          leaf->kvs[slot].value = kTombstone;
          dirty_lines |= 1u << LineOfSlot(slot);
        } else {
          bitmap &= ~(1ULL << slot);
          header_changed = true;
        }
      }
      continue;
    }
    if (slot >= 0) {
      identical_rewrite |= leaf->kvs[slot].value == kv.value;
      leaf->kvs[slot].value = kv.value;  // in-place update, 8 B atomic width
      dirty_lines |= 1u << LineOfSlot(slot);
      continue;
    }
    int free = __builtin_ctzll(~bitmap & kBitmapMask);
    identical_rewrite |= leaf->kvs[free].key == kv.key && leaf->kvs[free].value == kv.value;
    leaf->kvs[free] = kv;
    leaf->fingerprints[free] = Fingerprint8(kv.key);
    bitmap |= 1ULL << free;
    dirty_lines |= 1u << LineOfSlot(free);
    header_changed = true;
  }

  // Step 2: persist the modified data cachelines with one fence.
  auto* lines = reinterpret_cast<const std::byte*>(leaf);
  bool flushed_any = false;
  {
    std::optional<pmsim::PmCheckExpect> rewrite_expect;
    if (identical_rewrite) {
      rewrite_expect.emplace(pmsim::PmCheckClass::kRedundantFlush);
    }
    for (uint32_t line = 1; line < 4; line++) {  // header line is flushed in step 3
      if ((dirty_lines >> line) & 1) {
        pmsim::FlushLine(lines + line * 64);
        flushed_any = true;
      }
    }
  }
  if (flushed_any) {
    pmsim::Fence();
  }

  // Step 3: commit — update timestamp then publish the new bitmap with one
  // atomic meta store, persist the header line. Nothing in this batch is
  // visible before the meta line lands (§4.2).
  if (update_ts) {
    leaf->timestamp = ts;
  }
  uint64_t next_offset = leaf->next_offset();
  leaf->meta.store(MakeMeta(bitmap, next_offset), std::memory_order_release);
  pmsim::FlushLine(leaf);
  pmsim::Fence();

  (void)header_changed;
}

BufferNode* CclBTree::SplitLeaf(BufferNode* bn) {
  trace::TraceScope scope(trace::Component::kLeaf);
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  PmLeaf* leaf = bn->leaf();
  uint64_t bitmap = leaf->bitmap();
  int valid = __builtin_popcountll(bitmap);
  assert(valid > 1 && "cannot split a leaf with fewer than two keys");

  // Median split key over the (unsorted) valid entries.
  uint64_t keys[16];
  int n = 0;
  for (uint64_t bits = bitmap; bits != 0; bits &= bits - 1) {
    keys[n++] = leaf->kvs[__builtin_ctzll(bits)].key;
  }
  std::sort(keys, keys + n);
  uint64_t split_key = keys[n / 2];
  ChargeDram(static_cast<uint64_t>(n) * 4);

  // Build the new right leaf: compact copy of entries >= split_key.
  PmLeaf* new_leaf = AllocLeaf(ctx->socket());
  assert(new_leaf != nullptr && "PM exhausted");
  std::memset(static_cast<void*>(new_leaf), 0, kLeafBytes);
  uint64_t new_bitmap = 0;
  uint64_t old_bitmap = bitmap;
  int out = 0;
  for (uint64_t bits = bitmap; bits != 0; bits &= bits - 1) {
    int slot = __builtin_ctzll(bits);
    if (leaf->kvs[slot].key >= split_key) {
      new_leaf->kvs[out] = leaf->kvs[slot];
      new_leaf->fingerprints[out] = leaf->fingerprints[slot];
      new_bitmap |= 1ULL << out;
      old_bitmap &= ~(1ULL << slot);
      out++;
    }
  }
  new_leaf->timestamp = leaf->timestamp;
  new_leaf->meta.store(MakeMeta(new_bitmap, leaf->next_offset()), std::memory_order_release);
  // Persist the entire new leaf with a single fence; it is unreachable until
  // the old leaf's meta word lands, so no log is needed (§4.2). The tail
  // lines of a fresh slab slot are all-zero and content-equal to media, which
  // pmcheck flags as clean-line flushes; the whole-leaf persist is kept
  // regardless so the split's flush count — and every published virtual-time
  // figure — matches the paper's batch-persist description.
  {
    pmsim::PmCheckExpect split_expect(pmsim::PmCheckClass::kRedundantFlush);
    for (int line = 0; line < 4; line++) {
      pmsim::FlushLine(reinterpret_cast<const std::byte*>(new_leaf) + line * 64);
    }
  }
  pmsim::Fence();

  // Atomically shrink the old leaf and link the new one: one 8 B meta store
  // carries both the reduced bitmap and the new next pointer. The timestamp
  // must NOT advance here: the split commit lands before the flush batch is
  // dispatched into the two halves, and a crash in that window would leave a
  // durable timestamp covering WAL entries that never reached a leaf —
  // recovery replay would skip them (found by the crash-injection matrix).
  // Each half's BatchInsertLeaf publishes the flush timestamp atomically
  // with its own data commit instead.
  leaf->meta.store(MakeMeta(old_bitmap, LeafOffset(new_leaf)), std::memory_order_release);
  pmsim::FlushLine(leaf);
  pmsim::Fence();

  // Publish the DRAM side: new buffer node + separator.
  BufferNode* right_bn = NewBufferNode(new_leaf, split_key, bn->recovery_orig_ts());
  right_bn->Lock();  // returned locked; caller dispatches pending KVs
  inner_.Insert(split_key, right_bn);
  splits_.fetch_add(1, std::memory_order_relaxed);
  trace::Emit(trace::EventType::kLeafSplit, split_key);
  return right_bn;
}

void CclBTree::TryMergeLeft(uint64_t sep) {
  trace::TraceScope scope(trace::Component::kLeaf);
  assert(sep != 0);
  for (;;) {
    bool found = false;
    BufferNode* left = inner_.RouteFloor(sep - 1, &found);
    if (!found) {
      return;
    }
    BufferNode* right = nullptr;
    if (!inner_.Get(sep, &right)) {
      return;  // Already merged away.
    }
    if (left == right) {
      return;
    }
    // Lock in key order (left separator < right separator): no deadlock.
    if (!left->TryLock()) {
      std::this_thread::yield();
      continue;
    }
    if (left->dead() || inner_.RouteFloor(sep - 1) != left) {
      left->Unlock();
      continue;
    }
    if (!right->TryLock()) {
      left->Unlock();
      continue;
    }
    if (right->dead()) {
      right->Unlock();
      left->Unlock();
      return;
    }
    // The merge commit below raises the left leaf's timestamp to cover the
    // right leaf's flushed entries. Any *unflushed* left-buffer entry has a
    // smaller timestamp and would be skipped by the recovery replay filter,
    // so drain the left buffer first (its flush timestamp is globally fresh).
    if (left->pos() > 0) {
      pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
      FlushBuffer(left, nullptr, rt_.ordo().Now(ctx->socket()));
    }
    PmLeaf* left_leaf = left->leaf();
    PmLeaf* right_leaf = right->leaf();
    // Conditions (paper §4.2): right still underutilized, physically adjacent
    // (the left-buffer flush above may have split the left leaf, which the
    // adjacency check detects), right's buffer drained, and the union fits.
    int left_valid = left_leaf->ValidCount();
    int right_live = right_leaf->LiveCount();
    if (LeafOffset(right_leaf) != left_leaf->next_offset() || right->pos() != 0 ||
        right_leaf->LiveCount() >= kLeafSlots / 2 || left_valid + right_live > kLeafSlots) {
      right->Unlock();
      left->Unlock();
      return;
    }

    // Move the right leaf's live entries into free slots of the left leaf
    // (fence entries — tombstoned boundary keys — die with the right leaf).
    pmsim::ReadPm(right_leaf, kLeafBytes);
    uint64_t left_bitmap = left_leaf->bitmap();
    uint64_t right_bitmap = right_leaf->bitmap();
    uint32_t dirty_lines = 0;
    for (uint64_t bits = right_bitmap; bits != 0; bits &= bits - 1) {
      int slot = __builtin_ctzll(bits);
      if (right_leaf->kvs[slot].value == kTombstone) {
        continue;
      }
      int free = __builtin_ctzll(~left_bitmap & kBitmapMask);
      left_leaf->kvs[free] = right_leaf->kvs[slot];
      left_leaf->fingerprints[free] = right_leaf->fingerprints[slot];
      left_bitmap |= 1ULL << free;
      dirty_lines |= 1u << LineOfSlot(free);
    }
    bool flushed_any = false;
    {
      // A merge often reunites entries that an earlier split moved out of this
      // very leaf: ctz slot choice puts them back into the slots they came
      // from, so a data line can be byte-identical to its durable image. The
      // merge cannot diff against media, and the flush schedule is part of
      // the published figures — annotate instead of skipping.
      pmsim::PmCheckExpect merge_expect(pmsim::PmCheckClass::kRedundantFlush);
      for (uint32_t line = 1; line < 4; line++) {
        if ((dirty_lines >> line) & 1) {
          pmsim::FlushLine(reinterpret_cast<const std::byte*>(left_leaf) + line * 64);
          flushed_any = true;
        }
      }
    }
    if (flushed_any) {
      pmsim::Fence();
    }
    // Single 8 B commit: validates the moved entries in the left leaf AND
    // detaches the right leaf from the linked list (§4.2).
    left_leaf->timestamp = std::max(left_leaf->timestamp, right_leaf->timestamp);
    left_leaf->meta.store(MakeMeta(left_bitmap, right_leaf->next_offset()),
                          std::memory_order_release);
    pmsim::FlushLine(left_leaf);
    pmsim::Fence();

    inner_.Remove(sep);
    right->MarkDead();
    live_bn_count_.fetch_sub(1, std::memory_order_relaxed);
    leaf_slab_->Free(right_leaf);
    merges_.fetch_add(1, std::memory_order_relaxed);
    trace::Emit(trace::EventType::kLeafMerge, sep);
    right->Unlock();
    left->Unlock();
    return;
  }
}

// --- read path ------------------------------------------------------------------

bool CclBTree::Lookup(uint64_t key, uint64_t* value_out) {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  for (;;) {
    ChargeInnerDescent();
    bool found = false;
    BufferNode* bn = inner_.RouteFloor(key, &found);
    if (!found) {
      return false;
    }
    uint64_t snapshot = bn->ReadBegin();
    if (bn->dead() || inner_.RouteFloor(key) != bn) {
      continue;
    }
    // Start the PM leaf's header line (bitmap + fingerprints) toward the
    // cache now: on a buffer miss the probe below needs it immediately.
    __builtin_prefetch(bn->leaf());
    if (options_.buffering) {
      // Buffer first: slots [0,pos) hold the newest unflushed values, slots
      // [pos,nbatch) mirror flushed leaf state (§3.2/§4.3).
      BufferSlot* slots = bn->slots();
      int nbatch = bn->nbatch();
      ChargeDram(static_cast<uint64_t>(nbatch));
      uint32_t match = BufferKeyMatch(slots, nbatch, key);
      if (match != 0) {
        uint64_t value = slots[__builtin_ctz(match)].value.load(std::memory_order_acquire);
        if (!bn->ReadValidate(snapshot)) {
          continue;  // Retry from routing.
        }
        dram_hits_.fetch_add(1, std::memory_order_relaxed);
        if (value == kTombstone) {
          return false;
        }
        *value_out = value;
        return true;
      }
      if (!bn->ReadValidate(snapshot)) {
        continue;
      }
    }
    // Miss in the buffer: one XPLine read from the PM leaf, filtered by the
    // header's bitmap + fingerprints.
    PmLeaf* leaf = bn->leaf();
    pmsim::ReadPm(leaf, kLeafBytes);
    int slot = leaf->FindSlot(key);
    uint64_t value = slot >= 0 ? leaf->kvs[slot].value : 0;
    if (!bn->ReadValidate(snapshot)) {
      continue;
    }
    if (slot < 0 || value == kTombstone) {
      return false;  // absent, or a fence entry (tombstoned boundary key)
    }
    *value_out = value;
    return true;
  }
}

size_t CclBTree::Scan(uint64_t start_key, size_t count, kvindex::KeyValue* out) {
  assert(pmsim::ThreadContext::Current() != nullptr);
  size_t produced = 0;
  uint64_t cursor = start_key;
  std::vector<kvindex::KeyValue> window;
  window.reserve(kLeafSlots + 8);
  for (;;) {
    if (produced >= count) {
      break;
    }
    bool found = false;
    BufferNode* bn = inner_.RouteFloor(cursor, &found);
    if (!found) {
      break;
    }
    uint64_t next_sep = 0;
    BufferNode* next_bn = nullptr;
    bool have_next = inner_.NextEntry(cursor, &next_sep, &next_bn);

    // Optimistically snapshot the buffer node + leaf.
    window.clear();
    uint64_t snapshot = bn->ReadBegin();
    if (bn->dead()) {
      continue;  // Re-route: the separator map has changed.
    }
    PmLeaf leaf_copy;
    std::memcpy(static_cast<void*>(&leaf_copy), static_cast<const void*>(bn->leaf()), kLeafBytes);
    pmsim::ReadPm(bn->leaf(), kLeafBytes);
    int pos = bn->pos();
    int nbatch = bn->nbatch();
    kvindex::KeyValue buffered[8];
    for (int i = 0; i < pos; i++) {
      buffered[i].key = bn->slots()[i].key.load(std::memory_order_acquire);
      buffered[i].value = bn->slots()[i].value.load(std::memory_order_acquire);
    }
    if (!bn->ReadValidate(snapshot)) {
      continue;
    }

    // Merge: leaf entries, overlaid by the newest buffered values (§4.3 —
    // "retain the entries stored in the buffer nodes since [they] always
    // store the latest versions").
    for (uint64_t bits = MetaBitmap(leaf_copy.meta.load(std::memory_order_relaxed)); bits != 0;
         bits &= bits - 1) {
      window.push_back(leaf_copy.kvs[__builtin_ctzll(bits)]);
    }
    for (int i = 0; i < pos; i++) {
      bool replaced = false;
      for (auto& entry : window) {
        if (entry.key == buffered[i].key) {
          entry.value = buffered[i].value;
          replaced = true;
          break;
        }
      }
      if (!replaced) {
        window.push_back(buffered[i]);
      }
    }
    std::sort(window.begin(), window.end(),
              [](const kvindex::KeyValue& a, const kvindex::KeyValue& b) { return a.key < b.key; });
    ChargeDram(window.size() * 6 + static_cast<uint64_t>(nbatch));

    for (const auto& entry : window) {
      if (entry.key < cursor || entry.value == kTombstone) {
        continue;
      }
      if (have_next && entry.key >= next_sep) {
        break;  // Belongs to a later window (keys moved by a racing split).
      }
      out[produced++] = entry;
      if (produced >= count) {
        break;
      }
    }
    if (!have_next) {
      break;
    }
    cursor = next_sep;
  }
  return produced;
}

// --- GC ----------------------------------------------------------------------------

bool CclBTree::GcTriggerReached() const {
  uint64_t leaves = leaf_bytes();
  if (leaves == 0) {
    return false;
  }
  uint64_t live = wals_->live_bytes();
  if (live * 100 <= leaves * static_cast<uint64_t>(options_.th_log_pct)) {
    return false;
  }
  // Hysteresis: a GC round cannot shrink the log below the still-buffered
  // entries (its floor). Without re-arming only after the log has grown well
  // past the previous floor, a buffer-heavy tree whose floor sits above
  // TH_log would garbage-collect in a busy loop.
  return live >= 2 * post_gc_live_bytes_.load(std::memory_order_relaxed);
}

void CclBTree::InitGc() {
  if (options_.gc_mode == GcMode::kNone) {
    return;
  }
  if (options_.background_gc && options_.gc_scheduling == GcScheduling::kOsThread) {
    // Legacy escape hatch: a real OS thread, for concurrency stress only.
    gc_thread_ = std::thread([this] { GcThreadBody(); });
    return;
  }
  // Deterministic participant: a tree-owned context that all GC PM traffic
  // is charged to, whether rounds come from the cooperative quantum or from
  // explicit GcTick() callers (benches, crash matrix). Constructed with no
  // thread-local current installed so the context is bound to no OS thread
  // and carries no dangling `previous_` restore target.
  pmsim::ThreadContext* saved = pmsim::ThreadContext::Current();
  pmsim::ThreadContext::SetCurrent(nullptr);
  gc_ctx_ = std::make_unique<pmsim::ThreadContext>(rt_.device(), /*socket=*/0,
                                                   /*worker_id=*/options_.max_workers - 1);
  pmsim::ThreadContext::SetCurrent(saved);
}

void CclBTree::StopBackgroundGc() {
  {
    sync::LockGuard<sync::Mutex> guard(gc_cv_mu_);
    stop_gc_.store(true, std::memory_order_release);
  }
  gc_cv_.notify_all();
  if (gc_thread_.joinable()) {
    gc_thread_.join();
  }
}

void CclBTree::NotifyGcThreadIfTriggered() {
  if (!gc_thread_.joinable() || !GcTriggerReached()) {
    return;
  }
  // The empty critical section pairs with the predicate re-check inside
  // GcThreadBody's wait: either the waiter sees the trigger, or it is parked
  // inside wait() when this notify lands — no lost wakeup either way.
  { sync::LockGuard<sync::Mutex> guard(gc_cv_mu_); }
  gc_cv_.notify_one();
}

void CclBTree::GcThreadBody() {
  pmsim::ThreadContext gc_ctx(rt_.device(), /*socket=*/0,
                              /*worker_id=*/options_.max_workers - 1);
  std::unique_lock<sync::Mutex> lock(gc_cv_mu_);
  while (!stop_gc_.load(std::memory_order_acquire)) {
    gc_cv_.wait(lock, [this] {
      return stop_gc_.load(std::memory_order_acquire) || GcTriggerReached();
    });
    if (stop_gc_.load(std::memory_order_acquire)) {
      break;
    }
    lock.unlock();
    RunGcOnce();
    lock.lock();
  }
}

bool CclBTree::GcTick() {
  if (gc_ctx_ == nullptr || options_.gc_mode == GcMode::kNone || !GcTriggerReached()) {
    return false;
  }
  sync::TryLockGuard<sync::Mutex> tick(gc_tick_mu_);
  if (!tick.owns()) {
    return false;  // another worker is mid-round; it covers this trigger
  }
  if (!GcTriggerReached()) {
    return false;  // the round that just finished already cleared it
  }
  // Fast-forward the GC context to the frontier of every live clock: the
  // round happens "now" in the simulated timeline, after the work that
  // tripped the trigger, not at whatever stale time the last round ended.
  gc_ctx_->ResetClock(std::max(gc_ctx_->now_ns(), rt_.device().MaxContextClockNs()));
  pmsim::ThreadContext* saved = pmsim::ThreadContext::Current();
  // A crash injector may abort the round mid-stream (CrashPointReached):
  // restore the caller's context on every exit path.
  struct Restore {
    pmsim::ThreadContext* saved;
    ~Restore() { pmsim::ThreadContext::SetCurrent(saved); }
  } restore{saved};
  pmsim::ThreadContext::SetCurrent(gc_ctx_.get());
  RunGcOnce();
  if (options_.gc_mode == GcMode::kNaive) {
    // Stop-the-world: every worker resumes only after the barrier ends.
    rt_.device().RaiseContextClocks(gc_ctx_->now_ns());
  }
  return true;
}

std::vector<CclBTree::GcFenceWindow> CclBTree::gc_fence_windows() const {
  sync::LockGuard<sync::Mutex> guard(gc_windows_mu_);
  return gc_fence_windows_;
}

void CclBTree::SampleGauges(std::vector<std::pair<std::string, uint64_t>>* out) const {
  out->emplace_back("gc_rounds", gc_rounds());
  out->emplace_back("log_live_bytes", log_live_bytes());
  out->emplace_back("log_peak_bytes", log_peak_bytes());
  out->emplace_back("leaf_bytes", leaf_bytes());
  out->emplace_back("buffer_flushes", buffer_flushes());
  out->emplace_back("splits", splits());
  out->emplace_back("merges", merges());
  out->emplace_back("dram_hits", dram_hits());
  // Value-store health: allocation growth plus the bytes orphaned by
  // restarts (Runtime::Reopen region leak) — pmctl top/series watch the
  // latter grow across repeated crash-recover cycles.
  out->emplace_back("valuestore_bytes", rt_.values().allocated_bytes());
  out->emplace_back("valuestore_leaked_bytes", rt_.values().leaked_bytes());
}

void CclBTree::RunGcOnce() {
  if (options_.gc_mode == GcMode::kNone) {
    return;
  }
  // With a crash injector installed (crash-matrix runs only), record this
  // round's fence window so the matrix can schedule points that land inside
  // GC's own flush/fence stream.
  pmsim::CrashInjector* injector = rt_.device().crash_injector();
  const uint64_t first_fence = injector != nullptr ? injector->fences_observed() + 1 : 0;
  trace::TraceScope scope(trace::Component::kGc);
  trace::Emit(trace::EventType::kGcBegin, wals_->live_bytes());
  switch (options_.gc_mode) {
    case GcMode::kNone:
      break;
    case GcMode::kNaive:
      NaiveGc();
      break;
    case GcMode::kLocalityAware:
      LocalityAwareGc();
      break;
  }
  trace::Emit(trace::EventType::kGcEnd, wals_->live_bytes());
  if (injector != nullptr) {
    uint64_t last_fence = injector->fences_observed();
    if (last_fence >= first_fence) {
      sync::LockGuard<sync::Mutex> guard(gc_windows_mu_);
      gc_fence_windows_.push_back({first_fence, last_fence});
    }
  }
}

std::vector<BufferNode*> CclBTree::CollectBufferNodes() const {
  std::vector<BufferNode*> bns;
  bns.reserve(static_cast<size_t>(live_bn_count_.load(std::memory_order_relaxed)) + 16);
  inner_.ForEachFrom(0, [&bns](uint64_t /*sep*/, BufferNode* bn) {
    bns.push_back(bn);
    return true;
  });
  return bns;
}

void CclBTree::NaiveGc() {
  // Paper §3.4 "Naive GC": stop foreground buffering/logging with a global
  // lock, flush every buffer node's pending KVs to its (random) leaf, then
  // recycle all log chunks.
  sync::LockGuard<sync::SharedMutex> gate(naive_gate_);
  for (BufferNode* bn : CollectBufferNodes()) {
    bn->Lock();
    if (!bn->dead() && bn->pos() > 0) {
      FlushBuffer(bn, nullptr, rt_.ordo().Now(pmsim::ThreadContext::Current()->socket()));
    }
    bn->Unlock();
  }
  wals_->ReleaseEpoch(0);
  wals_->ReleaseEpoch(1);
  post_gc_live_bytes_.store(wals_->live_bytes(), std::memory_order_relaxed);
  gc_rounds_.fetch_add(1, std::memory_order_relaxed);
  metrics::Add(metrics::Counter::kGcRounds);
}

void CclBTree::LocalityAwareGc() {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  // Flip the global epoch: appends from now on go to the I-log (§3.4).
  uint32_t old_epoch = global_epoch_.load(std::memory_order_acquire);
  uint32_t new_epoch = old_epoch ^ 1u;
  global_epoch_.store(new_epoch, std::memory_order_release);

  // Copy every still-buffered KV tagged with the old epoch into the I-log —
  // sequential appends, never a random leaf write. The copy gets a fresh
  // timestamp, which is safe: the slot holds the newest value for its key
  // and every later update will receive a still-larger timestamp.
  std::vector<BufferNode*> bns = CollectBufferNodes();
  auto scan_partition = [this, &bns, old_epoch, new_epoch](size_t begin, size_t end) {
    // Helper threads don't inherit the caller's scope: re-enter kGc here so
    // their WAL appends attribute as GC-driven I-log traffic.
    trace::TraceScope scope(trace::Component::kGc);
    pmsim::ThreadContext* gc_ctx = pmsim::ThreadContext::Current();
    for (size_t b = begin; b < end; b++) {
      BufferNode* bn = bns[b];
      bn->Lock();
      if (!bn->dead()) {
        BufferSlot* slots = bn->slots();
        int pos = bn->pos();
        for (int i = 0; i < pos; i++) {
          if (bn->EpochBit(i) == old_epoch) {
            uint64_t ts = rt_.ordo().Now(gc_ctx->socket());
            bool logged = wals_->Append(gc_ctx->worker_id(), static_cast<int>(new_epoch),
                                        slots[i].key.load(std::memory_order_relaxed),
                                        slots[i].value.load(std::memory_order_relaxed), ts);
            assert(logged && "log arena exhausted during GC");
            (void)logged;
            bn->SetEpochBit(i, new_epoch);
          }
        }
      }
      bn->Unlock();
    }
  };
  int gc_threads = std::max(1, options_.gc_threads);
  if (gc_threads == 1 || bns.size() < 1024) {
    scan_partition(0, bns.size());
  } else {
    // Each helper gets its own WAL (reserved worker-id range) and I-logs to
    // its local socket.
    std::vector<std::thread> helpers;
    size_t per = (bns.size() + static_cast<size_t>(gc_threads) - 1) /
                 static_cast<size_t>(gc_threads);
    for (int t = 0; t < gc_threads; t++) {
      size_t begin = static_cast<size_t>(t) * per;
      size_t end = std::min(bns.size(), begin + per);
      if (begin >= end) {
        break;
      }
      helpers.emplace_back([this, &scan_partition, begin, end, t] {
        pmsim::ThreadContext helper_ctx(rt_.device(), t % rt_.device().config().num_sockets,
                                        options_.max_workers - 1 - t);
        scan_partition(begin, end);
      });
    }
    for (auto& helper : helpers) {
      helper.join();
    }
  }
  // Every buffered-but-unflushed KV now lives in the I-log (either copied
  // above or logged there by foreground threads after the flip): the old
  // B-logs are dead and all their chunks return to the free list.
  wals_->ReleaseEpoch(static_cast<int>(old_epoch));
  post_gc_live_bytes_.store(wals_->live_bytes(), std::memory_order_relaxed);
  gc_rounds_.fetch_add(1, std::memory_order_relaxed);
  metrics::Add(metrics::Counter::kGcRounds);
}

void CclBTree::FlushAll() {
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  assert(ctx != nullptr);
  for (BufferNode* bn : CollectBufferNodes()) {
    bn->Lock();
    if (!bn->dead() && bn->pos() > 0) {
      FlushBuffer(bn, nullptr, rt_.ordo().Now(ctx->socket()));
    }
    bn->Unlock();
  }
}

// --- recovery ---------------------------------------------------------------------

void CclBTree::RebuildFromLeafList() {
  std::unordered_set<uint64_t> reachable;
  // Head sentinel.
  reachable.insert(LeafOffset(head_leaf_));
  BufferNode* head_bn = NewBufferNode(head_leaf_, 0, head_leaf_->timestamp);
  inner_.Insert(0, head_bn);

  PmLeaf* prev = head_leaf_;
  uint64_t next_offset = head_leaf_->next_offset();
  uint64_t prev_min = 0;
  while (next_offset != 0) {
    PmLeaf* leaf = LeafAt(next_offset);
    pmsim::ReadPm(leaf, kLeafBytes);
    bool has_min = false;
    uint64_t min_key = leaf->MinKey(&has_min);
    if (!has_min) {
      // Empty leaf: unlink and let the slab reclaim it (it stays invisible).
      prev->meta.store(MakeMeta(prev->bitmap(), leaf->next_offset()), std::memory_order_release);
      pmsim::FlushLine(prev);
      pmsim::Fence();
      next_offset = leaf->next_offset();
      continue;
    }
    assert(min_key > prev_min && "leaf list must be ordered");
    prev_min = min_key;
    reachable.insert(next_offset);
    BufferNode* bn = NewBufferNode(leaf, min_key, leaf->timestamp);
    inner_.Insert(min_key, bn);
    prev = leaf;
    next_offset = leaf->next_offset();
  }
  leaf_slab_->Recover([this, &reachable](const void* slot) {
    return reachable.contains(rt_.pool().ToOffset(slot));
  });
}

void CclBTree::ReplayLogs(int threads) {
  assert(threads >= 1);
  // Phase 1: gather the chunks, then scan them (parallel by chunk),
  // bucketing entries by key hash so each key is replayed by one thread in
  // timestamp order.
  std::vector<std::byte*> chunks;
  log_arena_->ForEachChunk([&chunks](void* mem) { chunks.push_back(static_cast<std::byte*>(mem)); });

  auto buckets = std::vector<std::vector<LogEntry>>(static_cast<size_t>(threads));
  sync::Mutex buckets_mu{"tree.replay_buckets"};

  auto record_vtime = [this](const pmsim::ThreadContext& ctx) {
    uint64_t now = ctx.now_ns();
    uint64_t seen = replay_max_vtime_ns_.load(std::memory_order_relaxed);
    while (now > seen &&
           !replay_max_vtime_ns_.compare_exchange_weak(seen, now, std::memory_order_relaxed)) {
    }
  };
  auto scan_worker = [&](int worker) {
    pmsim::ThreadContext ctx(rt_.device(), rt_.SocketForWorker(worker), worker);
    // Lockless reads of the pre-crash workers' chunks; replay ordering comes
    // from timestamps, not locks (same exemption as WalSet::ScanAll).
    pmsim::LockCheckExpect scan_expect(pmsim::LockCheckClass::kLocksetEmpty);
    std::vector<std::vector<LogEntry>> local(static_cast<size_t>(threads));
    for (size_t c = static_cast<size_t>(worker); c < chunks.size();
         c += static_cast<size_t>(threads)) {
      std::byte* base = chunks[c];
      const auto* header = reinterpret_cast<const LogChunkHeader*>(base);
      if (header->magic != kLogChunkMagic || header->state != kChunkActive) {
        continue;
      }
      pmsim::ReadPm(header, sizeof(LogChunkHeader));
      const auto* entries = reinterpret_cast<const LogEntry*>(base + sizeof(LogChunkHeader));
      size_t max_entries = (pmem::kLogChunkBytes - sizeof(LogChunkHeader)) / sizeof(LogEntry);
      size_t consumed = 0;
      for (size_t i = 0; i < max_entries; i++) {
        if (!EntryValid(entries[i], header->generation)) {
          break;
        }
        size_t bucket = Mix64(entries[i].key) % static_cast<uint64_t>(threads);
        local[bucket].push_back(entries[i]);
        consumed++;
      }
      pmsim::ReadPm(entries, (consumed + 1) * sizeof(LogEntry));
    }
    {
      sync::LockGuard<sync::Mutex> guard(buckets_mu);
      for (int b = 0; b < threads; b++) {
        auto& bucket = buckets[static_cast<size_t>(b)];
        bucket.insert(bucket.end(), local[static_cast<size_t>(b)].begin(),
                      local[static_cast<size_t>(b)].end());
      }
    }
    record_vtime(ctx);
  };

  // Phase 2: apply each bucket in timestamp order. Entries are filtered
  // against the leaf's *pre-crash* timestamp snapshot (recovery_orig_ts):
  // an entry newer than the last flush was buffered in DRAM and lost, so it
  // is re-applied straight to the leaf. Replay is idempotent — a crash during
  // recovery leaves the logs in place and the snapshot unchanged (leaf
  // timestamps are only reset after the logs are reclaimed).
  auto apply_worker = [&](int worker) {
    pmsim::ThreadContext ctx(rt_.device(), rt_.SocketForWorker(worker), worker);
    auto& bucket = buckets[static_cast<size_t>(worker)];
    std::sort(bucket.begin(), bucket.end(), [](const LogEntry& a, const LogEntry& b) {
      return a.timestamp() < b.timestamp();
    });
    for (const LogEntry& entry : bucket) {
      BufferNode* bn = RouteAndLock(entry.key);
      if (entry.timestamp() > bn->recovery_orig_ts()) {
        kvindex::KeyValue kv{entry.key, entry.value};
        BatchInsertLeaf(bn, &kv, 1, /*ts=*/0, /*update_ts=*/false);
      }
      bn->Unlock();
    }
    record_vtime(ctx);
  };

  if (threads == 1) {
    scan_worker(0);
    apply_worker(0);
  } else {
    std::vector<std::thread> workers;
    for (int t = 0; t < threads; t++) {
      workers.emplace_back(scan_worker, t);
    }
    for (auto& worker : workers) {
      worker.join();
    }
    workers.clear();
    for (int t = 0; t < threads; t++) {
      workers.emplace_back(apply_worker, t);
    }
    for (auto& worker : workers) {
      worker.join();
    }
  }

  // Phase 3: every log chunk is now dead — reclaim them all. The free-marker
  // writes land in headers the pre-crash workers wrote; recovery owns the
  // whole image, which lockcheck cannot express as a lock.
  pmsim::LockCheckExpect reclaim_expect(pmsim::LockCheckClass::kUnlockedWrite);
  log_arena_->ResetVolatile();
  log_arena_->ForEachChunk([this](void* mem) {
    auto* header = reinterpret_cast<LogChunkHeader*>(mem);
    if (header->magic == kLogChunkMagic && header->state == kChunkActive) {
      header->state = kChunkFree;
      pmsim::Persist(&header->state, sizeof(header->state));
    }
    log_arena_->FreeChunk(mem);
  });
  // Clear the replay filter snapshots.
  for (BufferNode* bn : CollectBufferNodes()) {
    bn->set_recovery_orig_ts(0);
  }
}

void CclBTree::ResetLeafTimestamps() {
  PmLeaf* leaf = head_leaf_;
  bool flushed_any = false;
  while (leaf != nullptr) {
    if (leaf->timestamp != 0) {
      leaf->timestamp = 0;
      pmsim::FlushLine(leaf);
      flushed_any = true;
    }
    uint64_t next = leaf->next_offset();
    leaf = next == 0 ? nullptr : LeafAt(next);
  }
  if (flushed_any) {
    pmsim::Fence();
  }
}

// --- introspection ---------------------------------------------------------------

kvindex::MemoryFootprint CclBTree::Footprint() const {
  kvindex::MemoryFootprint footprint;
  footprint.dram_bytes =
      inner_.MemoryBytes() +
      live_bn_count_.load(std::memory_order_relaxed) * BufferNode::PackedBytes(options_.nbatch);
  footprint.pm_bytes = rt_.pool().AllocatedBytes();
  return footprint;
}

void CclBTree::DumpKeyState(uint64_t key) const {
  bool found = false;
  BufferNode* bn = inner_.RouteFloor(key, &found);
  if (!found) {
    std::fprintf(stderr, "[dump] no route for key %llu\n", (unsigned long long)key);
    return;
  }
  std::fprintf(stderr, "[dump] key=%llu bn=%p sep=%llu pos=%d dead=%d\n", (unsigned long long)key,
               static_cast<void*>(bn), (unsigned long long)bn->sep(), bn->pos(), bn->dead());
  for (int i = 0; i < bn->nbatch(); i++) {
    std::fprintf(stderr, "[dump]   slot[%d] key=%llu value=%llu epoch=%u\n", i,
                 (unsigned long long)bn->slots()[i].key.load(),
                 (unsigned long long)bn->slots()[i].value.load(), bn->EpochBit(i));
  }
  const PmLeaf* leaf = bn->leaf();
  std::fprintf(stderr, "[dump]   leaf=%llu ts=%llu bitmap=%llx\n",
               (unsigned long long)LeafOffset(leaf), (unsigned long long)leaf->timestamp,
               (unsigned long long)leaf->bitmap());
  for (int slot = 0; slot < kLeafSlots; slot++) {
    if (leaf->SlotValid(slot)) {
      std::fprintf(stderr, "[dump]   leaf_slot[%d] key=%llu value=%llu fp=%u (want_fp=%u)\n", slot,
                   (unsigned long long)leaf->kvs[slot].key,
                   (unsigned long long)leaf->kvs[slot].value, leaf->fingerprints[slot],
                   Fingerprint8(leaf->kvs[slot].key));
    }
  }
}

bool CclBTree::CheckInvariants() const {
  const PmLeaf* leaf = head_leaf_;
  uint64_t prev_max = 0;
  bool first = true;
  while (leaf != nullptr) {
    uint64_t bits = leaf->bitmap();
    uint64_t local_min = ~0ULL;
    uint64_t local_max = 0;
    for (uint64_t walk = bits; walk != 0; walk &= walk - 1) {
      int slot = __builtin_ctzll(walk);
      uint64_t key = leaf->kvs[slot].key;
      if (leaf->fingerprints[slot] != Fingerprint8(key)) {
        return false;
      }
      local_min = std::min(local_min, key);
      local_max = std::max(local_max, key);
    }
    if (bits != 0) {
      if (!first && local_min <= prev_max) {
        return false;  // Inter-leaf ordering violated.
      }
      prev_max = local_max;
      first = false;
    }
    uint64_t next = leaf->next_offset();
    leaf = next == 0 ? nullptr : LeafAt(next);
  }
  return true;
}

}  // namespace cclbt::core
