// The simulated persistent-memory device. See DESIGN.md §1-2 for the
// substitution rationale.
//
// Address space: one contiguous pool. The pool is split into one contiguous
// region per socket; within a socket, addresses interleave across the
// socket's DIMMs at `interleave_bytes` granularity (mirroring how the kernel
// interleaves an App Direct namespace across DIMMs).
//
// Persistence model (ADR, the default backend): regular stores hit the
// working image only. A cacheline becomes persistent when it has been
// flushed (FlushLine) *and* a subsequent fence executed on the same thread;
// at that point the line is copied into the shadow persistent image and
// pushed through the XPBuffer model, which generates media traffic on
// eviction. Crash() restores the working image from the shadow image, so
// unflushed/unfenced stores vanish exactly as they would on real ADR
// hardware. Every shadow write marks its 4 KB page in a monotone page map,
// so the restore costs O(pages the shadow has seen), not O(pool_bytes).
//
// Everything backend-specific — the eADR flush-free domain with its modeled
// CPU cache, the CXL page-buffer staging, the per-backend pmcheck rule
// table — lives behind the MediaModel owned by the device (media_model.h,
// DESIGN.md §14). The device caches the model's two hot-path predicates as
// plain bools, so the default ADR fence/commit loop is exactly the
// pre-refactor code path.
#ifndef SRC_PMSIM_DEVICE_H_
#define SRC_PMSIM_DEVICE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <memory>
#include <optional>
#include <vector>

#include "src/common/lock.h"
#include "src/pmsim/config.h"
#include "src/pmsim/crash_injector.h"
#include "src/pmsim/stats.h"
#include "src/pmsim/thread_context.h"
#include "src/pmsim/xpbuffer.h"

namespace cclbt::pmsim {

class LockCheck;
class MediaModel;
class PmCheck;

class PmDevice {
 public:
  explicit PmDevice(const DeviceConfig& config);
  ~PmDevice();

  PmDevice(const PmDevice&) = delete;
  PmDevice& operator=(const PmDevice&) = delete;

  std::byte* base() { return pool_.get(); }
  const std::byte* base() const { return pool_.get(); }
  size_t size() const { return config_.pool_bytes; }
  const DeviceConfig& config() const { return config_; }
  Stats& stats() { return stats_; }

  bool Contains(const void* addr) const {
    auto p = reinterpret_cast<const std::byte*>(addr);
    return p >= pool_.get() && p < pool_.get() + config_.pool_bytes;
  }
  uintptr_t OffsetOf(const void* addr) const {
    return static_cast<uintptr_t>(reinterpret_cast<const std::byte*>(addr) - pool_.get());
  }
  void* AddrOf(uintptr_t offset) { return pool_.get() + offset; }

  // Socket/DIMM mapping sits on the per-flush hot path; the divisors are
  // precomputed at construction and use shifts when they are powers of two
  // (the default geometry; arbitrary values fall back to division).
  int SocketOf(uintptr_t offset) const {
    return static_cast<int>(socket_shift_ >= 0 ? offset >> socket_shift_
                                               : offset / config_.socket_region_bytes());
  }
  // Global DIMM index in [0, total_dimms).
  int DimmOf(uintptr_t offset) const { return DimmOfAt(offset, SocketOf(offset)); }
  // Variant for callers that already know the socket (the commit path needs
  // both and computes SocketOf once).
  int DimmOfAt(uintptr_t offset, int socket) const {
    uintptr_t in_socket =
        socket_shift_ >= 0 ? offset & (config_.socket_region_bytes() - 1)
                           : offset % config_.socket_region_bytes();
    uintptr_t slot = interleave_shift_ >= 0 ? in_socket >> interleave_shift_
                                            : in_socket / config_.interleave_bytes;
    auto dimm_in_socket = static_cast<int>(
        dimm_mask_ != 0 ? slot & dimm_mask_
                        : slot % static_cast<size_t>(config_.dimms_per_socket));
    return socket * config_.dimms_per_socket + dimm_in_socket;
  }

  // --- stream attribution -------------------------------------------------
  // Allocators register the ranges they hand out so evicted XPLines can be
  // attributed to leaf vs log traffic (Figure 13(b)).
  void RegisterRange(const void* start, size_t len, StreamTag tag);
  StreamTag TagOf(uintptr_t offset) const;

  // --- persistence primitives ----------------------------------------------
  // clwb: marks one 64 B line for persistence at the next fence.
  void FlushLine(ThreadContext& ctx, const void* addr);
  // sfence: commits all pending lines (shadow copy + XPBuffer + media cost).
  void Fence(ThreadContext& ctx);
  // Convenience: flush every line covering [addr, addr+len) and fence.
  void PersistRange(ThreadContext& ctx, const void* addr, size_t len);

  // --- read path ------------------------------------------------------------
  // Charges PM read latency for [addr, addr+len) and records media reads for
  // XPLines not resident in the XPBuffer.
  void ReadPm(ThreadContext& ctx, const void* addr, size_t len);

  // --- end-of-run / failure -------------------------------------------------
  // Flush all XPBuffers to media (power-down accounting; keeps persistence).
  void DrainBuffers();
  // Power failure: pending (unfenced) lines are lost, XPBuffer content is
  // preserved (it sits behind ADR), the working image is restored from the
  // persistent image. Callers must have quiesced all worker threads.
  void Crash() { CrashWithSeed(std::nullopt); }
  // Like Crash(), but each pending unfenced line independently persists with
  // probability 1/2 (clwb without sfence *may* reach the DIMM). Exercises
  // recovery under torn fence groups.
  void CrashTorn(uint64_t seed) { CrashWithSeed(seed); }

  // The shadow persistent image — what a crash restores the working image
  // to — or null without crash_tracking. Read-only: every write to it goes
  // through WriteShadowLine so the page map stays exact.
  const std::byte* persistent_image() const { return shadow_.get(); }

  // Installs (or with nullptr removes) a crash-injection policy: every fence
  // reports to the injector before committing, which may throw
  // CrashPointReached at a scheduled fence count. The caller owns the
  // injector and must uninstall it before destroying it. Disarmed cost is
  // one pointer test per fence; with no injector installed the fence path is
  // unchanged.
  void SetCrashInjector(CrashInjector* injector) { injector_ = injector; }
  CrashInjector* crash_injector() const { return injector_; }

  // The persistency-ordering checker (DESIGN.md §11), present only when
  // enabled via DeviceConfig::pmcheck or CCL_PMCHECK=1 at construction;
  // nullptr otherwise. The pointer doubles as the runtime gate: the fence
  // path reads it once per fence (same pattern as the crash injector).
  PmCheck* pmcheck() const { return pmcheck_.get(); }

  // The locking-discipline checker (DESIGN.md §16), present only when enabled
  // via DeviceConfig::lockcheck or CCL_LOCKCHECK=1 at construction; nullptr
  // otherwise. Same gate pattern as pmcheck: one pointer test per
  // flush/fence/read on the disabled path, zero virtual-time writes either way.
  LockCheck* lockcheck() const { return lockcheck_.get(); }

  // The persistence-domain backend (DESIGN.md §14), never null. The resolved
  // backend kind is also visible as config().backend.
  MediaModel& media() const { return *media_; }

  // Largest virtual completion time across DIMM write servers; a run's
  // modeled elapsed time is max(worker clocks, this).
  uint64_t MaxDimmBusyNs() const;

  // XPBuffer occupancy/churn aggregated over every DIMM's buffer, for the
  // metrics epoch gauges. Each per-buffer accessor takes that buffer's lock;
  // exact when quiesced, a consistent-enough sample otherwise. Windowed
  // eviction rate = delta of `evictions` across consecutive samples.
  struct XpBufferTotals {
    uint64_t resident = 0;
    uint64_t insertions = 0;
    uint64_t evictions = 0;
  };
  XpBufferTotals SampleXpBuffers() const;

  // Frontier of all registered contexts' virtual clocks. A deterministic
  // background participant (e.g. CCL-BTree's GC context) fast-forwards to
  // this point before running, so its work lands "now" in the simulated
  // timeline rather than at whatever stale time its private clock holds.
  uint64_t MaxContextClockNs() const;
  // Raises every registered context's clock to at least `to_ns`. Models a
  // stop-the-world phase (naive GC): all workers observe the barrier's end.
  void RaiseContextClocks(uint64_t to_ns);

  // Reset performance accounting between bench phases (not persistence state).
  void ResetCosts();

  // --- pmtrace heatmap -------------------------------------------------------
  // Per-media-unit write counts, recorded when config.record_unit_heatmap.
  bool heatmap_enabled() const { return num_units_ != 0; }
  size_t num_units() const { return num_units_; }
  uint32_t UnitWriteCount(uint64_t unit) const {
    return unit_writes_[unit].load(std::memory_order_relaxed);
  }

 private:
  friend class ThreadContext;
  friend class PmCheck;     // reads pool_/shadow_/config_ at construction
  friend class MediaModel;  // backend hooks drive PushLine / the images

  // Commits ctx's whole pending set: pmcheck hook (when kChecked) followed by
  // the per-line CommitLine loop. Templated on both runtime gates so Fence
  // reads each gate once and the unchecked/untraced instantiation carries
  // zero checker/tracing instructions (DESIGN.md §8, §11).
  template <bool kTraced, bool kChecked>
  void CommitPending(ThreadContext& ctx, trace::Component comp);
  // Copies one line to the shadow image and pushes it through the XPBuffer,
  // charging media costs to `ctx`. `comp` is the component whose scope
  // committed the line (stamped into the buffered XPLine for attribution at
  // eviction time). Templated on the trace gate so Fence reads the gate once
  // and the untraced instantiation of the per-line loop carries zero tracing
  // instructions (the <2% disabled-overhead contract, DESIGN.md §8).
  template <bool kTraced>
  void CommitLine(ThreadContext& ctx, uintptr_t line_offset, trace::Component comp);
  // The one writer of the shadow image: copies the 64 B line image `src` to
  // `line_offset` and marks the line's page written (a relaxed load first,
  // so an already-marked page costs no store). No-op without crash_tracking.
  void WriteShadowLine(uintptr_t line_offset, const std::byte* src) {
    if (shadow_.data == nullptr) {
      return;
    }
    std::memcpy(shadow_.get() + line_offset, src, kCachelineBytes);
    std::atomic<uint8_t>& mark = shadow_pages_[line_offset / kTagPageBytes];
    if (mark.load(std::memory_order_relaxed) == 0) {
      mark.store(1, std::memory_order_relaxed);
    }
  }
  // Crash() and CrashTorn(): with a torn seed, each pending line persists
  // with probability 1/2; without one, every pending line is dropped.
  void CrashWithSeed(std::optional<uint64_t> torn_seed);
  // Makes the working image equal the shadow image in O(written pages).
  void RestorePoolFromShadow();
  template <bool kTraced>
  void PushThroughXpBuffer(ThreadContext& ctx, uintptr_t line_offset, trace::Component comp);
  // Gate-dispatching wrapper for per-line callers off the fence loop (eADR
  // cache eviction, end-of-run drains).
  void PushLine(ThreadContext& ctx, uintptr_t line_offset, trace::Component comp);
  // Context-free variant for end-of-run drains: records media traffic on the
  // shared base counters, charges no virtual time.
  void PushThroughXpBufferAccountingOnly(uintptr_t line_offset);

  // Media-unit ("XPLine") index and cacheline position within it.
  uint64_t UnitOf(uintptr_t offset) const {
    return unit_shift_ >= 0 ? offset >> unit_shift_ : offset / config_.xpline_bytes;
  }
  int LineInUnit(uintptr_t offset) const {
    size_t in_unit = unit_shift_ >= 0 ? offset & (config_.xpline_bytes - 1)
                                      : offset % config_.xpline_bytes;
    return static_cast<int>(in_unit / kCachelineBytes);
  }
  // Advances `dimm`'s write-server timeline by `service` virtual ns and
  // returns how far `now` lags behind the new completion time. Caller must
  // hold that DIMM's buffer lock (xpbuffers_[dimm]->mutex()).
  uint64_t AdvanceDimmClockLocked(int dimm, uint64_t now, uint64_t service) {
    uint64_t& clock = dimm_busy_until_ns_[static_cast<size_t>(dimm)].busy_until_ns;
    uint64_t finish = (clock > now ? clock : now) + service;
    clock = finish;
    return finish - now;
  }
  // Bumps the heatmap counter for `unit` if the heatmap is on. The fetch_add
  // only ever runs behind an explicit config opt-in.
  void NoteMediaWrite(uint64_t unit) {
    if (num_units_ != 0) {
      unit_writes_[unit].fetch_add(1, std::memory_order_relaxed);
    }
  }

  void RegisterContext(ThreadContext* ctx);
  void UnregisterContext(ThreadContext* ctx);

  // Pool and shadow image are private anonymous mappings: zero-filled lazily
  // by the kernel, so a large pool costs nothing until touched. A shadow page
  // the page map has never marked is therefore still all zero, and the crash
  // restore zeroes the pool's copy of it with madvise(MADV_DONTNEED) instead
  // of copying it.
  struct Mapping {
    std::byte* data = nullptr;
    size_t bytes = 0;
    std::byte* get() const { return data; }
  };
  static Mapping MapAnonymous(size_t bytes);
  static void Unmap(Mapping& mapping);

  DeviceConfig config_;
  // Hot-path divisor caches: log2 of the divisor when it is a power of two,
  // -1 to fall back to division/modulo.
  int socket_shift_ = -1;
  int interleave_shift_ = -1;
  int unit_shift_ = -1;
  size_t dimm_mask_ = 0;  // dimms_per_socket - 1 when pow2, else 0
  uint64_t unit_scale_ = 1;  // xpline_bytes / 256 (media service multiplier)
  // Heatmap write counters, one per media unit; null/0 unless
  // config.record_unit_heatmap. Declared among the hot members: num_units_
  // is tested on every XPLine eviction (NoteMediaWrite), so it must share a
  // cacheline with fields that hot path touches anyway.
  size_t num_units_ = 0;
  std::unique_ptr<std::atomic<uint32_t>[]> unit_writes_;
  Mapping pool_;
  Mapping shadow_;
  Stats stats_;
  CrashInjector* injector_ = nullptr;
  std::unique_ptr<PmCheck> pmcheck_;      // persistency checker; null = disabled
  std::unique_ptr<LockCheck> lockcheck_;  // locking checker; null = disabled
  std::vector<std::unique_ptr<XpBuffer>> xpbuffers_;  // one per DIMM
  // One virtual write-server timeline per DIMM, cacheline-padded against
  // false sharing and stored contiguously. Plain (non-atomic) because every
  // access — hot-path advances, MaxDimmBusyNs, ResetCosts — happens under
  // the matching DIMM's buffer lock, which saves an atomic RMW per committed
  // line over the old standalone CAS loop.
  struct alignas(64) DimmClock {
    uint64_t busy_until_ns = 0;
  };
  std::vector<DimmClock> dimm_busy_until_ns_;

  // Stream tag per 4 KB pool page. Written at allocator-registration time,
  // read on every XPLine eviction; relaxed atomics keep concurrent
  // registration/eviction well-defined.
  static constexpr size_t kTagPageBytes = 4096;
  std::unique_ptr<std::atomic<uint8_t>[]> page_tags_;
  // Shadow page map, same 4 KB granularity: nonzero once WriteShadowLine has
  // written into the page. Monotone (never cleared); null without
  // crash_tracking.
  std::unique_ptr<std::atomic<uint8_t>[]> shadow_pages_;

  mutable sync::Mutex contexts_mu_{"pm.contexts"};
  std::vector<ThreadContext*> contexts_ GUARDED_BY(contexts_mu_);

  // The persistence-domain backend (media_model.h); constructed before the
  // checker so pmcheck can copy its rule table.
  std::unique_ptr<MediaModel> media_;
  // Hot-path cache of the model's predicates: FlushLine/Fence test
  // explicit_persist_ and the commit loop tests durable_at_commit_ as plain
  // bools, so the default ADR path never takes a virtual call.
  bool explicit_persist_ = true;
  bool durable_at_commit_ = true;
};

// Free-function helpers used by index code; they resolve the calling
// thread's context. Index implementations call these instead of threading a
// context parameter through every layer.
void FlushLine(const void* addr);
void Fence();
void Persist(const void* addr, size_t len);
void ReadPm(const void* addr, size_t len);
void AdvanceCpu(uint64_t ns);

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_DEVICE_H_
