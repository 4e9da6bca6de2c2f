// Persistence-domain backends for pmsim (DESIGN.md §14).
//
// PmDevice models the universal machinery — per-thread virtual clocks, the
// per-DIMM write-combining buffer and media servers, stats/trace — while
// everything that depends on *which* persistence domain the machine has
// lives behind MediaModel:
//
//   AdrOptaneModel  ADR Optane DCPMM: explicit clwb+sfence discipline,
//                   power-protected XPBuffer. Pure policy object — the
//                   device's templated commit loop IS this backend, so the
//                   default path carries no virtual calls and its virtual
//                   metrics are byte-for-byte those of the pre-refactor
//                   device.
//   EadrModel       flush-free persistence domain: owns the modeled CPU
//                   cache (randomized implicit evictions, paper §5.5) that
//                   used to be an ad-hoc vector on PmDevice. Same eviction
//                   stream (same RNG seed, same victim discipline), but the
//                   std::mutex is replaced by the XPBuffer's TTAS spinlock
//                   and storage is a preallocated flat array — the last
//                   fence-adjacent std::mutex in the simulator is gone.
//                   Note: open-addressing dedup of the dirty set was
//                   considered and rejected — it would change the eviction
//                   stream and break bit-identity with the pre-refactor eADR
//                   metrics (duplicates in the modeled cache are part of the
//                   recorded behavior).
//   CxlMemModel     CXL memory-semantic device (Memory-Semantic SSD /
//                   XL-FLASH class): page-granular write combining, media
//                   unit configurable 256 B – 4 KB. With a power-protected
//                   internal buffer (default) it is the ADR commit path at
//                   page geometry; with cxl_volatile_buffer the buffer is
//                   volatile — fence commits stage line contents and
//                   durability happens at unit eviction, so the crash window
//                   is page-sized.
//
// Crash-window semantics per backend:
//   ADR      unfenced pending lines are lost; XPBuffer content survives.
//   eADR     no pending window at all — content is durable at FlushLine; a
//            crash only cold-starts the modeled cache (no data loss).
//   CXL      as ADR when power-protected; with a volatile buffer, staged
//            (committed-but-not-evicted) lines are additionally lost.
#ifndef SRC_PMSIM_MEDIA_MODEL_H_
#define SRC_PMSIM_MEDIA_MODEL_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <unordered_map>

#include "src/common/rng.h"
#include "src/pmsim/config.h"
#include "src/pmsim/pmcheck.h"
#include "src/pmsim/xpbuffer.h"
#include "src/trace/component.h"

namespace cclbt::pmsim {

class PmDevice;
class ThreadContext;

// Stable slug ("adr" / "eadr" / "cxl") used by the CCL_BACKEND selector,
// dump headers and bench row names. kAuto maps to "auto".
const char* MediaBackendName(MediaBackend backend);

// Resolves config.backend in place to a concrete backend: the legacy `eadr`
// flag wins when backend is kAuto, then the CCL_BACKEND environment selector
// (adr | eadr | cxl; cxl also applies CCL_CXL_PAGE, default 4096, to
// xpline_bytes and sizes the combining buffer to hold 64 pages), then
// kAdrOptane. Afterwards config.eadr mirrors the resolved backend.
void ResolveMediaBackend(DeviceConfig& config);

class MediaModel {
 public:
  virtual ~MediaModel();

  virtual MediaBackend kind() const = 0;
  const char* name() const { return MediaBackendName(kind()); }

  // False for flush-free persistence domains (eADR): FlushLine is free and
  // immediately durable, fences carry no persistence meaning, and there is
  // no unfenced-pending crash window.
  virtual bool explicit_persist() const { return true; }
  // False when fence commit does NOT reach the persistence boundary: line
  // contents are staged in a volatile device buffer and only become durable
  // when the containing media unit is evicted (or at clean power-down).
  virtual bool durable_at_commit() const { return true; }

  // pmcheck severity for one diagnostic class on this backend (the rule
  // table; DESIGN.md §14).
  virtual PmCheckAction check_action(PmCheckClass /*cls*/) const {
    return PmCheckAction::kReport;
  }

  // --- flush-free hooks (eADR) ---------------------------------------------
  // FlushLine on a flush-free backend: absorb the dirty line into the
  // modeled CPU cache (may push implicit evictions through the device).
  virtual void AbsorbFlushFree(ThreadContext& /*ctx*/, uintptr_t /*line_offset*/) {}

  // --- volatile-buffer hooks (CXL with cxl_volatile_buffer) ----------------
  // Fence commit of one line when !durable_at_commit(): capture the line's
  // working-image content in the device buffer instead of the shadow image.
  virtual void StageCommittedLine(uintptr_t /*line_offset*/) {}
  // A media unit left the combining buffer: its staged lines are now on
  // media — promote them to the shadow (durable) image.
  virtual void CommitStagedUnit(uint64_t /*unit*/) {}

  // --- lifecycle -----------------------------------------------------------
  // DrainBuffers(), before the XPBuffer drain: flush any modeled CPU cache
  // through the device (eADR's implicit-eviction backlog).
  virtual void DrainResidual() {}
  // DrainBuffers(): clean power-down persists the device buffer — promote
  // every staged line to the shadow image.
  virtual void CommitAllStaged() {}
  // Crash()/CrashTorn(): discard volatile backend state. Returns the number
  // of acked-durable lines the backend lost (0 unless the persistence
  // boundary sits below fence commit, i.e. a volatile CXL buffer).
  virtual uint64_t DropVolatileOnCrash() { return 0; }

  // Lines currently held in backend-private buffering (modeled CPU cache /
  // staged device buffer), for gauges and tests.
  virtual uint64_t ResidentLines() const { return 0; }

 protected:
  // PmDevice internals the concrete backends drive; routed through the base
  // class so PmDevice befriends MediaModel alone.
  static void PushLine(PmDevice& device, ThreadContext& ctx, uintptr_t line_offset,
                       trace::Component comp);
  static void PushAccountingOnly(PmDevice& device, uintptr_t line_offset);
  static std::byte* Pool(PmDevice& device);
  // PmDevice::WriteShadowLine: the only way a backend writes the shadow.
  static void WriteShadowLine(PmDevice& device, uintptr_t line_offset, const std::byte* src);
};

// ADR Optane: the backend the device's built-in commit loop models. All
// hooks are no-ops; the rule table reports every class.
class AdrOptaneModel final : public MediaModel {
 public:
  MediaBackend kind() const override { return MediaBackend::kAdrOptane; }
};

// eADR: flush-free domain with a modeled CPU cache of dirty lines.
class EadrModel final : public MediaModel {
 public:
  EadrModel(PmDevice& device, size_t capacity_lines);

  MediaBackend kind() const override { return MediaBackend::kEadr; }
  bool explicit_persist() const override { return false; }
  PmCheckAction check_action(PmCheckClass cls) const override;

  void AbsorbFlushFree(ThreadContext& ctx, uintptr_t line_offset) override;
  void DrainResidual() override;
  uint64_t DropVolatileOnCrash() override;
  uint64_t ResidentLines() const override;

 private:
  PmDevice& device_;
  const size_t capacity_;
  // Flat multiset of dirty line offsets (duplicates allowed — reinserting a
  // line does not refresh its eviction odds, matching the pre-refactor
  // modeled cache bit-for-bit). Preallocated: AbsorbFlushFree is
  // allocation-free. capacity_ + 1 slots: the insert lands before the
  // while-loop evicts back down to capacity.
  mutable XpBufferLock mu_{"pm.eadr_cache"};
  std::unique_ptr<uintptr_t[]> lines_ PT_GUARDED_BY(mu_);
  size_t size_ GUARDED_BY(mu_) = 0;
  Rng rng_ GUARDED_BY(mu_){0xeadcac4eULL};
};

// CXL memory-semantic device: page-granular combining buffer; optionally
// volatile (staged durability).
class CxlMemModel final : public MediaModel {
 public:
  CxlMemModel(PmDevice& device, size_t unit_bytes, bool volatile_buffer);

  MediaBackend kind() const override { return MediaBackend::kCxlMem; }
  bool durable_at_commit() const override { return !volatile_buffer_; }

  void StageCommittedLine(uintptr_t line_offset) override;
  void CommitStagedUnit(uint64_t unit) override;
  void CommitAllStaged() override;
  uint64_t DropVolatileOnCrash() override;
  uint64_t ResidentLines() const override;

 private:
  struct LineImage {
    std::byte bytes[kCachelineBytes];
  };

  PmDevice& device_;
  const size_t unit_bytes_;
  const bool volatile_buffer_;
  mutable XpBufferLock mu_{"pm.cxl_staged"};
  // line offset -> content captured at fence commit. Only populated in
  // volatile mode; bounded by the combining buffer's line capacity.
  std::unordered_map<uint64_t, LineImage> staged_ GUARDED_BY(mu_);
};

// Backend factory for a resolved config (ResolveMediaBackend already ran).
std::unique_ptr<MediaModel> MakeMediaModel(PmDevice& device, const DeviceConfig& config);

}  // namespace cclbt::pmsim

#endif  // SRC_PMSIM_MEDIA_MODEL_H_
