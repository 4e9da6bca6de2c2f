#include "src/bench/driver.h"

#include <algorithm>
#include <cassert>
#include <cstdio>
#include <cstring>
#include <optional>

#include "src/bench/run_dump.h"
#include "src/common/env.h"
#include "src/common/rng.h"
#include "src/common/zipfian.h"
#include "src/metrics/metrics.h"
#include "src/pmem/value_store.h"
#include "src/pmsim/check_report.h"
#include "src/trace/trace.h"

namespace cclbt::bench {

namespace {

// Builds a value word: inline for <= 8 B, out-of-band handle otherwise.
// Callers pass an even seed_word that is unique across the whole run (warm,
// insert, and update phases use disjoint ranges): rewriting a key must always
// change its value, or the rewrite persists a cacheline whose content already
// equals the durable image — a redundant flush pmcheck rightly flags.
uint64_t MakeValue(kvindex::Runtime& rt, const RunConfig& config, uint64_t seed_word) {
  if (config.value_bytes <= 8) {
    return seed_word | 1;
  }
  std::vector<std::byte> payload(config.value_bytes, std::byte{0xAB});
  std::memcpy(payload.data(), &seed_word, sizeof(seed_word));
  pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
  return rt.values().Append(payload, ctx->socket());
}

// Variable-size keys are modeled at the driver level: each operation pays
// key-blob PM reads during traversal (two comparisons resolve to actual key
// data on average thanks to fingerprints), and each insert persists a new
// key blob. See DESIGN.md §6.
struct KeyBlobModel {
  std::vector<uint64_t> handles;  // sampled blob handles in PM

  void ChargeTraversal(kvindex::Runtime& rt, Rng& rng) const {
    if (handles.empty()) {
      return;
    }
    for (int probe = 0; probe < 2; probe++) {
      uint64_t handle = handles[rng.NextBounded(handles.size())];
      rt.values().Read(handle);
    }
  }
};

// Interleaves `threads` logical workers. Each call of `step(w)` performs a
// bounded slice of operations and returns false once worker w is finished.
// All workers share the calling OS thread, sliced round-robin so their
// virtual clocks advance roughly in lockstep (which the per-DIMM queueing
// model assumes).
template <typename StepFn>
void Schedule(const RunConfig& config, std::vector<std::unique_ptr<pmsim::ThreadContext>>& ctxs,
              StepFn&& step) {
  std::vector<bool> alive(static_cast<size_t>(config.threads), true);
  bool any_alive = true;
  while (any_alive) {
    any_alive = false;
    for (int w = 0; w < config.threads; w++) {
      if (!alive[static_cast<size_t>(w)]) {
        continue;
      }
      pmsim::ThreadContext::SetCurrent(ctxs[static_cast<size_t>(w)].get());
      alive[static_cast<size_t>(w)] = step(w);
      any_alive = any_alive || alive[static_cast<size_t>(w)];
    }
  }
  pmsim::ThreadContext::SetCurrent(nullptr);
}

// Ops per scheduling slice: small enough to bound virtual-clock skew between
// workers to a few microseconds.
constexpr uint64_t kSliceOps = 1;

std::vector<std::unique_ptr<pmsim::ThreadContext>> MakeContexts(kvindex::Runtime& runtime,
                                                                const RunConfig& config) {
  std::vector<std::unique_ptr<pmsim::ThreadContext>> ctxs;
  ctxs.reserve(static_cast<size_t>(config.threads));
  for (int w = 0; w < config.threads; w++) {
    ctxs.push_back(std::make_unique<pmsim::ThreadContext>(
        runtime.device(), runtime.SocketForWorker(w, config.threads_per_socket), w));
  }
  pmsim::ThreadContext::SetCurrent(nullptr);
  return ctxs;
}

// Appends a checker's section to the run's dump (when one was written) and
// prints its summary to stderr: totals, `stats` (the checker's own one-line
// stats), then one line per class that fired.
void ReportCheck(const std::string& label, const std::string& dump_path,
                 const pmsim::CheckSection& section, const std::string& stats) {
  if (!dump_path.empty()) {
    pmsim::AppendCheckSection(dump_path, section);
  }
  const char* name = section.checker.c_str();
  std::fprintf(stderr, "%s[%s]: %llu violation(s), %llu informational, %llu suppressed, %s\n",
               name, label.c_str(), static_cast<unsigned long long>(section.total()),
               static_cast<unsigned long long>(section.total_info()),
               static_cast<unsigned long long>(section.total_suppressed()), stats.c_str());
  for (const pmsim::CheckSection::ClassRow& row : section.classes) {
    if (row.count != 0) {
      std::fprintf(stderr, "%s[%s]:   %-20s %llu\n", name, label.c_str(), row.name.c_str(),
                   static_cast<unsigned long long>(row.count));
    }
  }
}

}  // namespace

uint64_t WarmKey(const RunConfig& config, uint64_t i) {
  if (config.preset_keys != nullptr) {
    return (*config.preset_keys)[i];
  }
  if (config.dist == KeyDistribution::kSequential) {
    return i + 1;
  }
  return Mix64(i) | 1;
}

RunResult RunWorkload(kvindex::Runtime& runtime, kvindex::KvIndex& index,
                      const RunConfig& config) {
  assert(config.threads >= 1);
  const bool dump = !env::Get().dump_prefix.empty();  // CCL_DUMP
  if (config.preset_keys != nullptr) {
    assert(config.preset_keys->size() >= config.warm_keys + config.ops);
  }

  KeyBlobModel key_blobs;

  // --- warm-up phase -----------------------------------------------------------
  {
    auto ctxs = MakeContexts(runtime, config);
    uint64_t per_thread = config.warm_keys / static_cast<uint64_t>(config.threads);
    std::vector<uint64_t> cursor(static_cast<size_t>(config.threads));
    std::vector<uint64_t> limit(static_cast<size_t>(config.threads));
    for (int w = 0; w < config.threads; w++) {
      cursor[static_cast<size_t>(w)] = static_cast<uint64_t>(w) * per_thread;
      limit[static_cast<size_t>(w)] =
          w + 1 == config.threads ? config.warm_keys : cursor[static_cast<size_t>(w)] + per_thread;
    }
    Schedule(config, ctxs, [&](int w) {
      uint64_t& i = cursor[static_cast<size_t>(w)];
      uint64_t end = std::min(limit[static_cast<size_t>(w)], i + kSliceOps);
      for (; i < end; i++) {
        index.Upsert(WarmKey(config, i), MakeValue(runtime, config, (i + 1) << 1));
      }
      return i < limit[static_cast<size_t>(w)];
    });
  }
  if (config.key_bytes > 8) {
    pmsim::ThreadContext ctx(runtime.device(), 0, 0);
    auto sample = static_cast<size_t>(std::min<uint64_t>(config.warm_keys, 100'000));
    std::vector<std::byte> blob(config.key_bytes, std::byte{0x5A});
    key_blobs.handles.reserve(sample);
    for (size_t i = 0; i < sample; i++) {
      key_blobs.handles.push_back(runtime.values().Append(blob, 0));
    }
  }

  // --- measurement phase ----------------------------------------------------------
  runtime.device().ResetCosts();
  // pmtrace: event tracing covers the measurement phase only. Rings are
  // cleared first so a dump shows this phase, not the warm-up; contexts
  // created below pick up rings because tracing is already enabled.
  const bool tracing = env::Get().trace;  // CCL_TRACE=1 (implies CCL_DUMP)
  if (tracing) {
    trace::ClearRings();
    trace::SetEnabled(true);
  }
  if (config.collect_component_latency) {
    trace::SetScopeTiming(true);
  }
  // Metrics registry: covers the measurement phase only (Reset after warm).
  // CPU-side by construction — enabling it cannot move a virtual metric.
  const bool metrics_on = config.metrics || config.collect_latency || dump;
  if (metrics_on) {
    metrics::Reset();
    metrics::SetEnabled(true);
  }
  pmsim::StatsSnapshot before = runtime.device().stats().Snapshot();

  struct WorkerState {
    Rng rng;
    ZipfianGenerator zipf;
    YcsbOpPicker picker;
    std::vector<kvindex::KeyValue> scan_out;
    uint64_t cursor = 0;
    uint64_t limit = 0;
    // Per-component share of each op's latency (collect_component_latency).
    // Whole-op latency goes through the metrics registry instead.
    std::array<metrics::Histogram, trace::kNumComponents> comp_latency;
    metrics::WallSampler wall;
    uint64_t final_vtime = 0;

    WorkerState(const RunConfig& config, int w)
        : rng(config.seed * 977 + static_cast<uint64_t>(w)),
          zipf(config.warm_keys + config.ops == 0 ? 1 : config.warm_keys + config.ops,
               config.zipf_theta, config.seed * 31 + static_cast<uint64_t>(w)),
          picker(config.mix != nullptr ? *config.mix : kYcsbInsertOnly,
                 config.seed + static_cast<uint64_t>(w) * 13),
          scan_out(config.scan_len) {}
  };

  std::vector<WorkerState> states;
  states.reserve(static_cast<size_t>(config.threads));
  uint64_t per_thread_ops = config.ops / static_cast<uint64_t>(config.threads);
  for (int w = 0; w < config.threads; w++) {
    states.emplace_back(config, w);
    states.back().cursor = static_cast<uint64_t>(w) * per_thread_ops;
    states.back().limit =
        w + 1 == config.threads ? config.ops : states.back().cursor + per_thread_ops;
  }

  uint64_t write_bytes = 8 + std::max<size_t>(config.value_bytes, 8) +
                         (config.key_bytes > 8 ? config.key_bytes - 8 : 0);

  auto run_one = [&](WorkerState& st, uint64_t i) {
    pmsim::ThreadContext* ctx = pmsim::ThreadContext::Current();
    OpType op = config.mix != nullptr ? st.picker.Next() : config.op;
    // Insert/update/delete are all upsert-class writes (the paper implements
    // all three as upsert, §4.2).
    const metrics::OpKind kind = op == OpType::kRead   ? metrics::OpKind::kLookup
                                 : op == OpType::kScan ? metrics::OpKind::kScan
                                                       : metrics::OpKind::kUpsert;
    uint64_t t0 = ctx->now_ns();
    // Sampled wall timing, only on the enabled path (shim clock, lint R6).
    if (metrics_on) {
      st.wall.Begin(kind);
    }
    // Scope-timing table snapshot at op start. The flush first charges any
    // straggler time (inter-op gaps, worker switches) outside the op, so the
    // end-of-op delta is exactly this op's per-component time.
    uint64_t comp_before[trace::kNumComponents] = {};
    if (config.collect_component_latency) {
      trace::FlushScopeTime();
      const uint64_t* table = trace::ThreadComponentNs();
      std::copy(table, table + trace::kNumComponents, comp_before);
    }
    if (config.key_bytes > 8) {
      key_blobs.ChargeTraversal(runtime, st.rng);
    }
    switch (op) {
      case OpType::kInsert: {
        // Fresh keys beyond the warm space (the paper "upserts the remaining
        // 50 M KVs"); Zipfian draws over the whole space (upsert semantics).
        uint64_t key;
        if (config.preset_keys != nullptr) {
          key = (*config.preset_keys)[config.warm_keys + i];
        } else if (config.dist == KeyDistribution::kZipfian) {
          key = Mix64(st.zipf.NextRank()) | 1;
        } else if (config.dist == KeyDistribution::kSequential) {
          key = config.warm_keys + i + 1;
        } else {
          key = Mix64(config.warm_keys + i) | 1;
        }
        ctx->stats_shard().AddUserBytes(write_bytes);
        index.Upsert(key, MakeValue(runtime, config, (config.warm_keys + i + 1) << 1));
        break;
      }
      case OpType::kUpdate: {
        uint64_t key = config.dist == KeyDistribution::kZipfian
                           ? Mix64(st.zipf.NextRank() % config.warm_keys) | 1
                           : WarmKey(config, st.rng.NextBounded(config.warm_keys));
        ctx->stats_shard().AddUserBytes(write_bytes);
        index.Upsert(key, MakeValue(runtime, config, (config.warm_keys + config.ops + i + 1) << 1));
        break;
      }
      case OpType::kDelete: {
        uint64_t key = WarmKey(config, st.rng.NextBounded(config.warm_keys));
        ctx->stats_shard().AddUserBytes(write_bytes);
        index.Remove(key);
        break;
      }
      case OpType::kRead: {
        uint64_t key = config.dist == KeyDistribution::kZipfian
                           ? Mix64(st.zipf.NextRank() % config.warm_keys) | 1
                           : WarmKey(config, st.rng.NextBounded(config.warm_keys));
        uint64_t value = 0;
        index.Lookup(key, &value);
        break;
      }
      case OpType::kScan: {
        uint64_t start = config.preset_keys != nullptr
                             ? (*config.preset_keys)[st.rng.NextBounded(config.warm_keys)]
                             : WarmKey(config, st.rng.NextBounded(config.warm_keys));
        index.Scan(start, config.scan_len, st.scan_out.data());
        break;
      }
    }
    if (metrics_on) {
      metrics::RecordOp(kind, ctx->now_ns() - t0, st.wall.End());
    }
    if (config.collect_component_latency) {
      trace::FlushScopeTime();
      const uint64_t* table = trace::ThreadComponentNs();
      for (int c = 0; c < trace::kNumComponents; c++) {
        uint64_t d = table[c] - comp_before[c];
        if (d != 0) {
          st.comp_latency[static_cast<size_t>(c)].Record(d);
        }
      }
    }
  };

  // Driver-paced GC epochs (gc_epoch_ops), counted across all workers.
  uint64_t gc_epoch_counter = 0;

  std::optional<EpochRecorder> epochs;
  if (metrics_on && config.ops > 0) {
    epochs.emplace(runtime.device(), before, [&](Gauges* g) { index.SampleGauges(g); });
  }

  {
    auto ctxs = MakeContexts(runtime, config);
    Schedule(config, ctxs, [&](int w) {
      WorkerState& st = states[static_cast<size_t>(w)];
      uint64_t end = std::min(st.limit, st.cursor + kSliceOps);
      for (; st.cursor < end; st.cursor++) {
        run_one(st, st.cursor);
        if (config.gc_epoch_ops != 0 && ++gc_epoch_counter % config.gc_epoch_ops == 0) {
          index.GcTick();
        }
        if (epochs) {
          epochs->Tick(pmsim::ThreadContext::Current()->now_ns());
        }
      }
      bool more = st.cursor < st.limit;
      if (!more) {
        st.final_vtime = pmsim::ThreadContext::Current()->now_ns();
      }
      return more;
    });
  }

  RunResult result;
  uint64_t busy_ns = runtime.device().MaxDimmBusyNs();
  uint64_t worker_ns = 0;
  for (const auto& st : states) {
    worker_ns = std::max(worker_ns, st.final_vtime);
  }
  uint64_t elapsed_ns = std::max(busy_ns, worker_ns);
  if (epochs) {
    result.epochs = epochs->Finish(worker_ns);
  }
  result.max_worker_vtime_ms = static_cast<double>(worker_ns) / 1e6;
  result.max_dimm_busy_ms = static_cast<double>(busy_ns) / 1e6;
  pmsim::StatsSnapshot after = runtime.device().stats().Snapshot();
  result.stats = after.Delta(before);
  result.cli_amplification = result.stats.CliAmplification();
  result.xbi_amplification = result.stats.XbiAmplification();
  result.elapsed_virtual_ms = static_cast<double>(elapsed_ns) / 1e6;
  result.mops = elapsed_ns == 0
                    ? 0.0
                    : static_cast<double>(config.ops) * 1e3 / static_cast<double>(elapsed_ns);
  for (const auto& st : states) {
    for (size_t c = 0; c < st.comp_latency.size(); c++) {
      result.component_latency[c].Merge(st.comp_latency[c]);
    }
  }
  if (metrics_on) {
    result.metrics_snapshot = metrics::Snapshot();
    metrics::SetEnabled(false);
    // Whole-op latency view (all kinds merged) — what collect_latency
    // callers consumed before the registry existed.
    for (int k = 0; k < metrics::kNumOpKinds; k++) {
      result.latency.Merge(result.metrics_snapshot.op_virtual[k]);
    }
  }
  result.footprint = index.Footprint();
  if (pmsim::PmCheck* check = runtime.device().pmcheck(); check != nullptr) {
    result.pmcheck = check->Snapshot();
  }
  if (pmsim::LockCheck* locks = runtime.device().lockcheck(); locks != nullptr) {
    result.lockcheck = locks->Snapshot();
  }

  if (dump) {
    result.dump_path = WriteRunDump(config.trace_label.empty() ? "run" : config.trace_label,
                                    runtime.device(), static_cast<uint64_t>(config.threads),
                                    config.ops, elapsed_ns, result.stats, result.epochs,
                                    result.metrics_snapshot);
  }
  if (tracing) {
    trace::SetEnabled(false);
    trace::ClearRings();
  }
  if (config.collect_component_latency) {
    trace::SetScopeTiming(false);
  }
  return result;
}

RunResult RunIndexWorkload(const std::string& index_name, const RunConfig& config,
                           const IndexConfig& index_config, size_t pool_bytes) {
  kvindex::RuntimeOptions runtime_options;
  runtime_options.device.pool_bytes = pool_bytes;
  // Under CCL_TRACE=1 the dump also carries the per-XPLine heatmap (the
  // counters only exist when enabled at device construction).
  runtime_options.device.record_unit_heatmap = env::Get().trace;
  runtime_options.device.backend = config.backend;
  kvindex::Runtime runtime(runtime_options);
  auto index = MakeIndex(index_name, runtime, index_config);
  const std::string label = config.trace_label.empty() ? index_name : config.trace_label;
  RunConfig labeled = config;
  labeled.trace_label = label;
  RunResult result = RunWorkload(runtime, *index, labeled);
  if (pmsim::PmCheck* check = runtime.device().pmcheck(); check != nullptr) {
    // The runtime is torn down on return, so this is the pool close from the
    // checker's point of view: run the unflushed-at-close scan and take the
    // final report. Happens after the metric snapshot above — media traffic
    // drained here never reaches the returned stats, and no virtual time is
    // charged (determinism contract, DESIGN.md §10).
    runtime.device().DrainBuffers();
    result.pmcheck = check->Snapshot();
    ReportCheck(label, result.dump_path, result.pmcheck.ToSection(),
                std::to_string(result.pmcheck.fence_epochs) + " fence epochs");
  }
  if (pmsim::LockCheck* locks = runtime.device().lockcheck(); locks != nullptr) {
    result.lockcheck = locks->Snapshot();
    ReportCheck(label, result.dump_path, result.lockcheck.ToSection(),
                std::to_string(result.lockcheck.locks_tracked) + " locks / " +
                    std::to_string(result.lockcheck.lines_tracked) + " lines tracked");
  }
  return result;
}

}  // namespace cclbt::bench
