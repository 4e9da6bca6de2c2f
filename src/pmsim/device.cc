#include "src/pmsim/device.h"

#include <sys/mman.h>

#include <algorithm>
#include <cassert>
#include <cstdlib>
#include <cstring>

#include "src/common/rng.h"
#include "src/pmsim/lockcheck.h"
#include "src/pmsim/media_model.h"
#include "src/pmsim/pmcheck.h"
#include "src/trace/event.h"
#include "src/trace/trace.h"

namespace cclbt::pmsim {

namespace {
thread_local ThreadContext* tl_current_context = nullptr;

// Installs `ctx`'s trace ring + virtual clock in the trace library's
// thread-local slots (cleared when no context is current), so TraceScope and
// Emit can timestamp without a trace -> pmsim dependency.
void BindTraceFor(ThreadContext* ctx) {
  if (ctx == nullptr) {
    trace::BindThread(nullptr, nullptr);
  } else {
    trace::BindThread(ctx->trace_ring(), ctx->now_ns_addr());
  }
}

// Installed as the trace library's ring factory: lets an emit on a thread
// whose context predates SetEnabled(true) (e.g. the background GC worker)
// lazily acquire its ring.
trace::TraceRing* RingFactoryImpl() {
  ThreadContext* ctx = tl_current_context;
  return ctx == nullptr ? nullptr : ctx->EnsureTraceRing();
}

uintptr_t LineOf(uintptr_t offset) { return offset & ~(kCachelineBytes - 1); }

// log2(n) if n is a nonzero power of two, else -1.
int ShiftFor(size_t n) {
  if (n == 0 || (n & (n - 1)) != 0) {
    return -1;
  }
  int shift = 0;
  while ((n >> shift) != 1) {
    shift++;
  }
  return shift;
}
}  // namespace

ThreadContext::ThreadContext(PmDevice& device, int socket, int worker_id)
    : device_(device), socket_(socket), worker_id_(worker_id) {
  pending_lines_.reserve(64);
  pending_dedup_.resize(128);
  if (trace::Enabled()) {
    trace_ring_ = trace::AcquireRing(worker_id_, socket_);
  }
  previous_ = tl_current_context;
  tl_current_context = this;
  BindTraceFor(this);
  device_.RegisterContext(this);
}

ThreadContext::~ThreadContext() {
  device_.UnregisterContext(this);
  if (trace_ring_ != nullptr) {
    trace::ReleaseRing(trace_ring_);
  }
  if (tl_current_context == this) {
    tl_current_context = previous_;
    BindTraceFor(previous_);
  } else {
    // Out-of-order teardown (e.g. a service destroying its shard contexts in
    // creation order): splice this context out of the calling thread's
    // previous_ chain so a later destruction of the current context cannot
    // restore a pointer to freed memory.
    for (ThreadContext* c = tl_current_context; c != nullptr; c = c->previous_) {
      if (c->previous_ == this) {
        c->previous_ = previous_;
        break;
      }
    }
  }
}

trace::TraceRing* ThreadContext::EnsureTraceRing() {
  if (trace_ring_ == nullptr) {
    trace_ring_ = trace::AcquireRing(worker_id_, socket_);
    if (tl_current_context == this) {
      BindTraceFor(this);
    }
  }
  return trace_ring_;
}

ThreadContext* ThreadContext::Current() { return tl_current_context; }

void ThreadContext::SetCurrent(ThreadContext* ctx) {
  tl_current_context = ctx;
  BindTraceFor(ctx);
}

PmDevice::PmDevice(const DeviceConfig& config)
    : config_(config),
      dimm_busy_until_ns_(static_cast<size_t>(config.total_dimms())) {
  assert(config_.pool_bytes % (config_.socket_region_bytes()) == 0);
  // Backend resolution comes first: the CCL_BACKEND=cxl selector may change
  // the media-unit geometry the shift caches below derive from.
  ResolveMediaBackend(config_);
  // pmcheck enablement resolves before the mappings: the checker needs the
  // shadow image, so it forces crash_tracking on. CCL_PMCHECK overrides the
  // config flag in either direction ("0" turns a configured checker off for
  // A/B runs). Severity per class is the backend's call (the MediaModel rule
  // table), not an on/off switch here.
  if (const char* env = std::getenv("CCL_PMCHECK"); env != nullptr && env[0] != '\0') {
    config_.pmcheck = env[0] == '1';
  }
  if (config_.pmcheck) {
    config_.crash_tracking = true;
  }
  socket_shift_ = ShiftFor(config_.socket_region_bytes());
  interleave_shift_ = ShiftFor(config_.interleave_bytes);
  unit_shift_ = ShiftFor(config_.xpline_bytes);
  dimm_mask_ = ShiftFor(static_cast<size_t>(config_.dimms_per_socket)) >= 0
                   ? static_cast<size_t>(config_.dimms_per_socket) - 1
                   : 0;
  unit_scale_ = config_.xpline_bytes >= kXplineBytes ? config_.xpline_bytes / kXplineBytes : 1;
  pool_ = MapAnonymous(config_.pool_bytes);
  if (config_.crash_tracking) {
    shadow_ = MapAnonymous(config_.pool_bytes);
  }
  assert(config_.xpline_bytes >= kCachelineBytes && config_.xpline_bytes <= 4096 &&
         (config_.xpline_bytes & (config_.xpline_bytes - 1)) == 0 &&
         "media unit must be a power of two in [64, 4096]");
  for (int i = 0; i < config_.total_dimms(); i++) {
    xpbuffers_.push_back(std::make_unique<XpBuffer>(
        config_.xpbuffer_entries(),
        static_cast<int>(config_.xpline_bytes / kCachelineBytes)));
  }
  size_t num_pages = (config_.pool_bytes + kTagPageBytes - 1) / kTagPageBytes;
  page_tags_ = std::make_unique<std::atomic<uint8_t>[]>(num_pages);
  for (size_t i = 0; i < num_pages; i++) {
    page_tags_[i].store(static_cast<uint8_t>(StreamTag::kOther), std::memory_order_relaxed);
  }
  if (config_.crash_tracking) {
    shadow_pages_ = std::make_unique<std::atomic<uint8_t>[]>(num_pages);  // all zero
  }
  if (config_.record_unit_heatmap) {
    num_units_ = config_.pool_bytes / config_.xpline_bytes;
    unit_writes_ = std::make_unique<std::atomic<uint32_t>[]>(num_units_);
    for (size_t i = 0; i < num_units_; i++) {
      unit_writes_[i].store(0, std::memory_order_relaxed);
    }
  }
  media_ = MakeMediaModel(*this, config_);
  explicit_persist_ = media_->explicit_persist();
  durable_at_commit_ = media_->durable_at_commit();
  trace::SetRingFactory(&RingFactoryImpl);
  if (config_.pmcheck) {
    pmcheck_ = std::make_unique<PmCheck>(*this);
  }
  // Lockcheck resolves after pmcheck: its fence cross-check reads pmcheck's
  // shadow state when both are on, but neither requires the other.
  if (const char* env = std::getenv("CCL_LOCKCHECK"); env != nullptr && env[0] != '\0') {
    config_.lockcheck = env[0] == '1';
  }
  if (config_.lockcheck) {
    lockcheck_ = std::make_unique<LockCheck>(*this);
  }
}

PmDevice::~PmDevice() {
  Unmap(pool_);
  Unmap(shadow_);
}

PmDevice::Mapping PmDevice::MapAnonymous(size_t bytes) {
  void* mem = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  assert(mem != MAP_FAILED && "mmap failed");
  return Mapping{static_cast<std::byte*>(mem), bytes};
}

void PmDevice::Unmap(Mapping& mapping) {
  if (mapping.data != nullptr) {
    ::munmap(mapping.data, mapping.bytes);
    mapping.data = nullptr;
  }
}

void PmDevice::RegisterRange(const void* start, size_t len, StreamTag tag) {
  uintptr_t off = OffsetOf(start);
  size_t first = off / kTagPageBytes;
  size_t last = (off + len + kTagPageBytes - 1) / kTagPageBytes;
  for (size_t page = first; page < last; page++) {
    page_tags_[page].store(static_cast<uint8_t>(tag), std::memory_order_relaxed);
  }
}

StreamTag PmDevice::TagOf(uintptr_t offset) const {
  return static_cast<StreamTag>(page_tags_[offset / kTagPageBytes].load(std::memory_order_relaxed));
}

void PmDevice::FlushLine(ThreadContext& ctx, const void* addr) {
  assert(Contains(addr));
  ctx.stats_shard().AddLineFlush();
  uintptr_t line = LineOf(OffsetOf(addr));
  trace::Emit(trace::EventType::kFlush, line);
  if (!explicit_persist_) {
    // Flush-free domain (eADR): no explicit flush cost — the store is already
    // persistent. The checker hook runs before the shadow sync so it can see
    // whether the flush changed anything durable.
    if (pmcheck_ != nullptr) {
      pmcheck_->OnFlushFree(ctx, line);
    }
    if (lockcheck_ != nullptr) {
      lockcheck_->OnPmWrite(ctx, line);
    }
    WriteShadowLine(line, pool_.get() + line);
    ctx.stats_shard().AddCommittedLines(trace::CurrentComponent(), 1);
    // The dirty line reaches the XPBuffer via the backend's modeled
    // cache-eviction stream.
    media_->AbsorbFlushFree(ctx, line);
    return;
  }
  ctx.AdvanceCpu(config_.cost.cacheline_flush_ns);
  // Dedup within the pending set: repeated clwb of the same line before the
  // fence costs CPU but persists once.
  const bool newly_pending = ctx.AddPendingLine(line);
  if (pmcheck_ != nullptr) {
    pmcheck_->OnFlush(ctx, line, newly_pending);
  }
  if (lockcheck_ != nullptr) {
    // A flush is the commitment that the line was stored: lockcheck treats it
    // as the write event for the Eraser lockset state machine.
    lockcheck_->OnPmWrite(ctx, line);
  }
}

void PmDevice::Fence(ThreadContext& ctx) {
  ctx.stats_shard().AddFence();
  if (injector_ != nullptr) {
    // May throw CrashPointReached *before* the commit loop below: power is
    // lost at the sfence, so ctx's pending lines stay uncommitted for
    // Crash()/CrashTorn() to drop or tear.
    injector_->OnFence();
  }
  if (!explicit_persist_) {
    if (pmcheck_ != nullptr) {
      pmcheck_->OnFenceFree(ctx);
    }
    trace::Emit(trace::EventType::kFence, 0);
    return;  // No ordering cost modeled in a flush-free domain.
  }
  ctx.AdvanceCpu(config_.cost.fence_ns);
  // The pmcheck gate is read once per fence (same pattern as the trace gate
  // below); disabled runs pay one null test here and nothing in the loop.
  PmCheck* const check = pmcheck_.get();
  if (ctx.pending_lines_.empty()) {
    if (check != nullptr) {
      check->OnUselessFence(ctx);
    }
    trace::Emit(trace::EventType::kFence, 0);
    return;
  }
  // The component is read once per fence, not per line: a fence commits the
  // lines of the scope that issued it, and scopes cannot change mid-fence.
  const trace::Component comp = trace::CurrentComponent();
  ctx.stats_shard().AddCommittedLines(comp, ctx.pending_lines_.size());
  if (lockcheck_ != nullptr) {
    // Publish-window check (class 5) before the commit loop: is every
    // pending line's protecting lock still held at the fence that publishes
    // it? Cross-checks pmcheck's redirty detection when both are enabled.
    lockcheck_->OnFencePending(ctx, ctx.pending_lines_, comp, check);
  }
  // Likewise the trace gate: one read per fence picks the commit-loop
  // instantiation, so the disabled loop carries no tracing (or checking)
  // instructions.
  if (trace::Enabled()) {
    trace::Emit(trace::EventType::kFence, ctx.pending_lines_.size());
    if (check != nullptr) {
      CommitPending<true, true>(ctx, comp);
    } else {
      CommitPending<true, false>(ctx, comp);
    }
  } else {
    if (check != nullptr) {
      CommitPending<false, true>(ctx, comp);
    } else {
      CommitPending<false, false>(ctx, comp);
    }
  }
  ctx.ClearPending();
}

template <bool kTraced, bool kChecked>
void PmDevice::CommitPending(ThreadContext& ctx, trace::Component comp) {
  if constexpr (kChecked) {
    // Class-3 (dirty-at-fence) verification + Durable transition for the
    // whole pending set, before the commit loop copies lines to the shadow.
    pmcheck_->OnFenceCommit(ctx, ctx.pending_lines_, comp);
  }
  for (uintptr_t line : ctx.pending_lines_) {
    CommitLine<kTraced>(ctx, line, comp);
  }
}

void PmDevice::PersistRange(ThreadContext& ctx, const void* addr, size_t len) {
  auto start = LineOf(OffsetOf(addr));
  auto end = OffsetOf(addr) + len;
  for (uintptr_t line = start; line < end; line += kCachelineBytes) {
    FlushLine(ctx, pool_.get() + line);
  }
  Fence(ctx);
}

template <bool kTraced>
void PmDevice::CommitLine(ThreadContext& ctx, uintptr_t line_offset, trace::Component comp) {
  if (durable_at_commit_) {
    WriteShadowLine(line_offset, pool_.get() + line_offset);
  } else {
    // Volatile device buffer (CXL): the fence hands the line to the device,
    // but durability waits for the containing media unit's eviction.
    media_->StageCommittedLine(line_offset);
  }
  PushThroughXpBuffer<kTraced>(ctx, line_offset, comp);
}

void PmDevice::PushLine(ThreadContext& ctx, uintptr_t line_offset, trace::Component comp) {
  if (trace::Enabled()) {
    PushThroughXpBuffer<true>(ctx, line_offset, comp);
  } else {
    PushThroughXpBuffer<false>(ctx, line_offset, comp);
  }
}

template <bool kTraced>
void PmDevice::PushThroughXpBuffer(ThreadContext& ctx, uintptr_t line_offset,
                                   trace::Component comp) {
  int socket = SocketOf(line_offset);
  int dimm = DimmOfAt(line_offset, socket);
  bool remote = socket != ctx.socket();
  if (remote) {
    ctx.stats_shard().AddRemoteAccess();
  }
  size_t unit = config_.xpline_bytes;
  XpBuffer& buffer = *xpbuffers_[static_cast<size_t>(dimm)];
  XpBufferResult result;
  uint64_t lag = 0;
  {
    sync::LockGuard<XpBufferLock> guard(buffer.mutex());
    result = buffer.OnLineFlushLocked(UnitOf(line_offset), LineInUnit(line_offset),
                                      TagOf(line_offset), comp);
    if (result.evicted) {
      // Service time scales with the media unit (a 4 KB flash page takes
      // proportionally longer than a 256 B XPLine).
      uint64_t service = (config_.cost.xpline_write_service_ns +
                          (result.rmw ? config_.cost.xpline_rmw_extra_ns : 0)) *
                         unit_scale_;
      if (remote) {
        service = service * config_.cost.remote_penalty_pct / 100;
      }
      lag = AdvanceDimmClockLocked(dimm, ctx.now_ns(), service);
    }
  }
  if (result.evicted) {
    if (!durable_at_commit_) {
      // Eviction is the persistence boundary on a volatile-buffer backend.
      media_->CommitStagedUnit(result.evicted_xpline);
    }
    // The media write is charged to the component whose scope buffered the
    // evicted XPLine, which may differ from the committing scope `comp`.
    ctx.stats_shard().AddMediaWrite(result.evicted_tag, result.evicted_comp, unit);
    NoteMediaWrite(result.evicted_xpline);
    if constexpr (kTraced) {
      trace::Emit(trace::EventType::kXpbufEvict, result.evicted_xpline,
                  result.rmw ? 1u : 0u, static_cast<uint16_t>(dimm));
    }
    if (result.rmw) {
      ctx.stats_shard().AddMediaRead(unit);
    }
    // Media writes are asynchronous behind the WPQ, but a writer stalls once
    // the queue of unserviced media work exceeds the WPQ slack: this is what
    // makes XPLine count — not cacheline count — the bottleneck under load
    // (paper Figure 2).
    if (lag > config_.cost.wpq_slack_ns) {
      ctx.AdvanceCpu(lag - config_.cost.wpq_slack_ns);
    }
  } else if constexpr (kTraced) {
    trace::Emit(trace::EventType::kXpbufHit, UnitOf(line_offset), 0,
                static_cast<uint16_t>(dimm));
  }
}

// Cost-free accounting path for end-of-run drains that have no calling
// context: media traffic is recorded against the shared base counters and no
// virtual time is charged.
void PmDevice::PushThroughXpBufferAccountingOnly(uintptr_t line_offset) {
  int dimm = DimmOf(line_offset);
  size_t unit = config_.xpline_bytes;
  XpBufferResult result = xpbuffers_[static_cast<size_t>(dimm)]->OnLineFlush(
      UnitOf(line_offset), LineInUnit(line_offset), TagOf(line_offset),
      trace::CurrentComponent());
  if (result.evicted) {
    if (!durable_at_commit_) {
      media_->CommitStagedUnit(result.evicted_xpline);
    }
    stats_.AddMediaWrite(result.evicted_tag, result.evicted_comp, unit);
    NoteMediaWrite(result.evicted_xpline);
    if (result.rmw) {
      stats_.AddMediaRead(unit);
    }
  }
}

void PmDevice::ReadPm(ThreadContext& ctx, const void* addr, size_t len) {
  assert(Contains(addr));
  if (pmcheck_ != nullptr) {
    pmcheck_->OnReadRange(ctx, OffsetOf(addr), len);
  }
  if (lockcheck_ != nullptr) {
    lockcheck_->OnPmRead(ctx, OffsetOf(addr), len);
  }
  size_t unit = config_.xpline_bytes;
  uintptr_t start = UnitOf(OffsetOf(addr));
  uintptr_t end = UnitOf(OffsetOf(addr) + len + unit - 1);
  for (uintptr_t xpline = start; xpline < end; xpline++) {
    uintptr_t offset = xpline * unit;
    int socket = SocketOf(offset);
    int dimm = DimmOfAt(offset, socket);
    bool remote = socket != ctx.socket();
    XpBuffer& buffer = *xpbuffers_[static_cast<size_t>(dimm)];
    bool hit;
    uint64_t lag = 0;
    {
      sync::LockGuard<XpBufferLock> guard(buffer.mutex());
      hit = buffer.OnReadLocked(xpline);
      if (!hit) {
        // Read misses occupy the DIMM's media server: the read completes no
        // earlier than the queued media work, which is what saturates
        // read-heavy multi-thread workloads on real DCPMM.
        uint64_t service = config_.cost.xpline_read_service_ns;
        if (remote) {
          service = service * config_.cost.remote_penalty_pct / 100;
        }
        uint64_t full_lag = AdvanceDimmClockLocked(dimm, ctx.now_ns(), service);
        lag = full_lag > service ? full_lag - service : 0;
      }
    }
    ctx.stats_shard().AddPmRead(hit);
    trace::Emit(hit ? trace::EventType::kReadHit : trace::EventType::kReadMiss, xpline, 0,
                static_cast<uint16_t>(dimm));
    if (remote) {
      ctx.stats_shard().AddRemoteAccess();
    }
    uint64_t latency = hit ? config_.cost.pm_read_hit_ns : config_.cost.pm_read_ns;
    if (remote) {
      latency = latency * config_.cost.remote_penalty_pct / 100;
    }
    if (!hit) {
      ctx.stats_shard().AddMediaRead(unit);
      ctx.AdvanceCpu(lag);
    }
    ctx.AdvanceCpu(latency);
  }
}

void PmDevice::DrainBuffers() {
  // Backend residuals first: the eADR modeled CPU cache flushes through the
  // XPBuffers, and a volatile CXL buffer persists its staged lines (clean
  // power-down reaches the persistence boundary on every backend).
  media_->DrainResidual();
  media_->CommitAllStaged();
  if (pmcheck_ != nullptr) {
    // Pool close from the checker's point of view: anything still dirty now
    // was never made durable (class 4). Runs after the backend residuals
    // above (which settle durability) and before the XPBuffer drains below
    // (which only move already-durable XPLines to media).
    pmcheck_->OnClose();
  }
  // End-of-run accounting uses the configured media unit: draining a 4 KB
  // CXL-flash page writes 4 KB, not the 256 B XPLine default.
  uint64_t unit = config_.xpline_bytes;
  for (auto& xpbuffer : xpbuffers_) {
    xpbuffer->Drain([this, unit](bool rmw, StreamTag tag, trace::Component comp,
                                 uint64_t xpline) {
      stats_.AddMediaWrite(tag, comp, unit);
      NoteMediaWrite(xpline);
      if (rmw) {
        stats_.AddMediaRead(unit);
      }
    });
  }
}

void PmDevice::CrashWithSeed(std::optional<uint64_t> torn_seed) {
  assert(shadow_.data != nullptr && "Crash()/CrashTorn() require crash_tracking");
  if (pmcheck_ != nullptr) {
    // An injector-scheduled crash is the harness doing its job — in-flight
    // state is expected there, so the class-4 scan only runs for crashes
    // nobody scheduled. It is likewise skipped when the backend's volatile
    // buffer sits below fence commit: committed-but-staged lines differ from
    // the shadow by design, not by an ordering bug.
    pmcheck_->OnCrash((injector_ != nullptr && injector_->fired()) || !durable_at_commit_);
  }
  if (lockcheck_ != nullptr) {
    lockcheck_->OnCrash();
  }
  // Backend-owned crash window: a volatile CXL buffer loses its staged
  // (acked!) lines; eADR's modeled cache just goes cold (content already
  // durable, so it reports 0).
  uint64_t volatile_lines_lost = media_->DropVolatileOnCrash();
  Rng rng(torn_seed.value_or(0));
  uint64_t lines_dropped = 0;
  uint64_t torn_lines_applied = 0;
  {
    sync::LockGuard<sync::Mutex> guard(contexts_mu_);
    for (ThreadContext* ctx : contexts_) {
      for (uintptr_t line : ctx->pending_lines_) {
        if (torn_seed.has_value() && (rng.Next() & 1) != 0) {
          WriteShadowLine(line, pool_.get() + line);
          torn_lines_applied++;
        } else {
          lines_dropped++;
        }
      }
      ctx->ClearPending();
    }
  }
  stats_.AddCrash(lines_dropped + volatile_lines_lost, torn_lines_applied);
  RestorePoolFromShadow();
  // Fresh boot: the XPBuffer is power-protected, so its content already lives
  // in the shadow image; the model itself restarts cold.
  for (auto& xpbuffer : xpbuffers_) {
    xpbuffer->Drain([](bool, StreamTag, trace::Component, uint64_t) {});
  }
}

void PmDevice::RestorePoolFromShadow() {
  // Runs of written pages are copied back; a never-written run is all zero in
  // the shadow, so the pool's pages go back to kernel zero-fill. The walk is
  // ascending: if a kernel page larger than kTagPageBytes rounds a DONTNEED
  // run up, the spill lands in the written run that is copied next.
  const size_t num_pages = (config_.pool_bytes + kTagPageBytes - 1) / kTagPageBytes;
  for (size_t page = 0; page < num_pages;) {
    const uint8_t run_written = shadow_pages_[page].load(std::memory_order_relaxed);
    size_t end = page + 1;
    while (end < num_pages && shadow_pages_[end].load(std::memory_order_relaxed) == run_written) {
      end++;
    }
    const size_t offset = page * kTagPageBytes;
    const size_t len = std::min(end * kTagPageBytes, config_.pool_bytes) - offset;
    if (run_written != 0) {
      std::memcpy(pool_.get() + offset, shadow_.get() + offset, len);
    } else if (::madvise(pool_.get() + offset, len, MADV_DONTNEED) != 0) {
      std::memset(pool_.get() + offset, 0, len);
    }
    page = end;
  }
}

uint64_t PmDevice::MaxDimmBusyNs() const {
  uint64_t max_busy = 0;
  for (size_t dimm = 0; dimm < dimm_busy_until_ns_.size(); dimm++) {
    sync::LockGuard<XpBufferLock> guard(xpbuffers_[dimm]->mutex());
    max_busy = std::max(max_busy, dimm_busy_until_ns_[dimm].busy_until_ns);
  }
  return max_busy;
}

PmDevice::XpBufferTotals PmDevice::SampleXpBuffers() const {
  XpBufferTotals totals;
  for (const auto& xpbuffer : xpbuffers_) {
    totals.resident += xpbuffer->resident();
    totals.insertions += xpbuffer->insertions();
    totals.evictions += xpbuffer->evictions();
  }
  return totals;
}

uint64_t PmDevice::MaxContextClockNs() const {
  uint64_t frontier = 0;
  sync::LockGuard<sync::Mutex> guard(contexts_mu_);
  for (const ThreadContext* ctx : contexts_) {
    frontier = std::max(frontier, ctx->now_ns());
  }
  return frontier;
}

void PmDevice::RaiseContextClocks(uint64_t to_ns) {
  sync::LockGuard<sync::Mutex> guard(contexts_mu_);
  for (ThreadContext* ctx : contexts_) {
    if (ctx->now_ns() < to_ns) {
      ctx->ResetClock(to_ns);
    }
  }
}

void PmDevice::ResetCosts() {
  for (size_t dimm = 0; dimm < dimm_busy_until_ns_.size(); dimm++) {
    sync::LockGuard<XpBufferLock> guard(xpbuffers_[dimm]->mutex());
    dimm_busy_until_ns_[dimm].busy_until_ns = 0;
  }
  // The heatmap is performance accounting too: start each measured phase
  // clean so warm-up writes don't dominate the picture.
  for (size_t i = 0; i < num_units_; i++) {
    unit_writes_[i].store(0, std::memory_order_relaxed);
  }
  // Keep every live virtual clock coherent with the reset busy timeline
  // (background threads like a GC worker would otherwise re-enter with a
  // clock far ahead of fresh bench workers and stall them behind phantom
  // queueing).
  sync::LockGuard<sync::Mutex> guard(contexts_mu_);
  for (ThreadContext* ctx : contexts_) {
    ctx->ResetClock(0);
  }
}

void PmDevice::RegisterContext(ThreadContext* ctx) {
  stats_.RegisterShard(&ctx->stats_shard());
  size_t live;
  {
    sync::LockGuard<sync::Mutex> guard(contexts_mu_);
    contexts_.push_back(ctx);
    live = contexts_.size();
  }
  if (lockcheck_ != nullptr) {
    lockcheck_->OnContextCount(live);
  }
}

void PmDevice::UnregisterContext(ThreadContext* ctx) {
  // Folds the context's counter shard into the base so its contribution
  // outlives it.
  stats_.UnregisterShard(&ctx->stats_shard());
  size_t live;
  {
    sync::LockGuard<sync::Mutex> guard(contexts_mu_);
    contexts_.erase(std::remove(contexts_.begin(), contexts_.end(), ctx), contexts_.end());
    live = contexts_.size();
  }
  if (lockcheck_ != nullptr) {
    lockcheck_->OnContextCount(live);
  }
}

void FlushLine(const void* addr) {
  ThreadContext* ctx = ThreadContext::Current();
  assert(ctx != nullptr);
  ctx->device().FlushLine(*ctx, addr);
}

void Fence() {
  ThreadContext* ctx = ThreadContext::Current();
  assert(ctx != nullptr);
  ctx->device().Fence(*ctx);
}

void Persist(const void* addr, size_t len) {
  ThreadContext* ctx = ThreadContext::Current();
  assert(ctx != nullptr);
  ctx->device().PersistRange(*ctx, addr, len);
}

void ReadPm(const void* addr, size_t len) {
  ThreadContext* ctx = ThreadContext::Current();
  assert(ctx != nullptr);
  ctx->device().ReadPm(*ctx, addr, len);
}

void AdvanceCpu(uint64_t ns) {
  ThreadContext* ctx = ThreadContext::Current();
  assert(ctx != nullptr);
  ctx->AdvanceCpu(ns);
}

}  // namespace cclbt::pmsim
