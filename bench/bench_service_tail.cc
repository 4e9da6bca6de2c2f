// Tail latency of the sharded KV service under open-loop load (DESIGN.md
// §15). Closed-loop benches (fig10-12) measure service time only; this
// harness drives a Poisson (and one bursty) arrival process through
// admission control, per-shard bounded queues and group-commit batching, so
// an op's latency includes the queueing delay that XPBuffer-induced media
// stalls inflate near saturation.
//
// Each row first probes the configuration's saturation capacity (a
// closed-loop run on a fresh runtime), then offers load_pct% of that
// capacity open-loop on another fresh runtime: 50% (below saturation — tails
// track service time), 100% (at saturation — queues start to build), 200%
// (beyond — admission control sheds the excess and tails of *admitted*
// requests stay bounded by the queue depth). Rows sweep 2 and 4 shards,
// pinned round-robin across the device's 2 sockets by
// Runtime::SocketForWorker. Two bursty rows follow (see RegisterAll).
//
// Every reported counter is virtual-time/count data: rows are bit-identical
// run-to-run and participate in the run_benches.sh determinism diff and the
// bench_gate baseline. Under CCL_DUMP each row writes two dumps: the
// capacity probe's (label service_tail_s<N>_probe) and the measured run's
// (service_tail_s<N>); CCL_TRACE=1 adds event rings and the XPLine heatmap.
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "src/metrics/metrics.h"
#include "src/service/service.h"

namespace cclbt::bench {
namespace {

using service::ArrivalProcess;
using service::OpenLoopConfig;
using service::ServiceConfig;
using service::ServiceResult;
using service::ShardedKvService;

ServiceConfig MakeServiceConfig(int shards) {
  ServiceConfig config;
  config.shards = shards;
  config.queue_capacity = 64;
  config.batch_ops = 8;  // 4x the tree's default nbatch: full buffer-node slots
  config.label = "service_tail_s" + std::to_string(shards);
  return config;
}

OpenLoopConfig MakeWorkload(uint64_t scale, double offered_mops) {
  OpenLoopConfig w;
  w.ops = scale;
  w.warm_keys = scale / 2;
  w.offered_mops = offered_mops;
  w.mix = &kYcsbInsertIntensive;
  w.seed = 42;
  return w;
}

std::unique_ptr<kvindex::Runtime> MakeRuntime() {
  kvindex::RuntimeOptions options;  // default device: 2 sockets, 4 DIMMs each
  // Under CCL_TRACE=1 the dump also carries the per-XPLine heatmap (the
  // counters only exist when enabled at device construction).
  options.device.record_unit_heatmap = env::Get().trace;
  return std::make_unique<kvindex::Runtime>(options);
}

// Saturation throughput of this shard count: closed-loop (arrivals always
// available), on a runtime discarded afterwards so the probe leaves no state
// behind. Deterministic, so re-probing per row keeps rows independent under
// benchmark filters.
double ProbeCapacityMops(int shards, uint64_t scale) {
  auto runtime = MakeRuntime();
  ServiceConfig config = MakeServiceConfig(shards);
  config.label += "_probe";
  ShardedKvService probe(*runtime, config);
  OpenLoopConfig w = MakeWorkload(scale, /*offered_mops=*/0);
  probe.Warm(w);
  return probe.Run(w).achieved_mops;
}

void SetServiceCounters(benchmark::State& state, const ServiceResult& result) {
  state.counters["Mops"] = result.achieved_mops;
  state.counters["offered_Mops"] = result.offered_mops;
  state.counters["shed_rate"] = result.shed_rate;
  state.counters["virt_ms"] = result.elapsed_virtual_ms;
  state.counters["XBI"] = result.xbi_amplification;
  state.counters["CLI"] = result.cli_amplification;
  state.counters["epochs"] = static_cast<double>(result.epochs.size());
  // Queueing + service latency (virtual) per op kind, arrival -> ack.
  const metrics::MetricsSnapshot& m = result.metrics_snapshot;
  struct KindRow {
    metrics::OpKind kind;
    const char* name;
  };
  for (const KindRow& k : {KindRow{metrics::OpKind::kUpsert, "upsert"},
                           KindRow{metrics::OpKind::kLookup, "lookup"}}) {
    const metrics::Histogram& h = m.virt(k.kind);
    if (h.Count() == 0) {
      continue;
    }
    std::string p = k.name;
    state.counters[p + "_p50_us"] = static_cast<double>(h.Percentile(50)) / 1e3;
    state.counters[p + "_p99_us"] = static_cast<double>(h.Percentile(99)) / 1e3;
    state.counters[p + "_p999_us"] = static_cast<double>(h.Percentile(99.9)) / 1e3;
  }
  // Socket-pinning check: distinct sockets the shards landed on (2 on the
  // default 2-socket device for every shard count >= 2).
  uint64_t socket_mask = 0;
  uint64_t max_depth = 0;
  for (const service::ShardStats& s : result.shards) {
    socket_mask |= 1ULL << s.socket;
    max_depth = std::max(max_depth, s.max_queue_depth);
  }
  state.counters["sockets"] = static_cast<double>(__builtin_popcountll(socket_mask));
  state.counters["max_qdepth"] = static_cast<double>(max_depth);
}

// `burst_factor` applies to ArrivalProcess::kBurst only (duty stays 25%).
void RunRow(benchmark::State& state, int shards, int load_pct, ArrivalProcess process,
            double burst_factor, uint64_t scale) {
  for (auto _ : state) {
    double capacity = ProbeCapacityMops(shards, scale);
    auto runtime = MakeRuntime();
    ShardedKvService svc(*runtime, MakeServiceConfig(shards));
    OpenLoopConfig w =
        MakeWorkload(scale, capacity * static_cast<double>(load_pct) / 100.0);
    w.process = process;
    w.burst_factor = burst_factor;
    svc.Warm(w);
    ServiceResult result = svc.Run(w);
    state.counters["capacity_Mops"] = capacity;
    SetServiceCounters(state, result);
  }
}

void RegisterAll() {
  uint64_t scale = BenchScale();
  for (int shards : {2, 4}) {
    for (int load_pct : {50, 100, 200}) {
      std::string name = "service_tail/shards" + std::to_string(shards) + "/poisson/load" +
                         std::to_string(load_pct);
      benchmark::RegisterBenchmark(name.c_str(), [=](benchmark::State& state) {
        RunRow(state, shards, load_pct, ArrivalProcess::kPoisson, 1.0, scale);
      })->Iterations(1)->Unit(benchmark::kMillisecond);
    }
  }
  // Bursty rows: within each 1 ms period the first 25% arrives at
  // burst_factor x the mean rate, the rest at the rate that keeps the mean.
  //  * burst2x/load50: 2x bursts over a 50% mean — on-window at 100% of
  //    capacity, off-window at 33%.
  //  * onoff4x/peak400: factor 4 x duty 25% = 1 leaves no rate for the
  //    off-window, which is clamped to the 5% floor: a 4x on/off flash crowd
  //    peaking at 400% of capacity (mean ~104%), not a 100%-mean stream.
  struct BurstRow {
    const char* name;
    int load_pct;
    double factor;
  };
  for (const BurstRow& row : {BurstRow{"service_tail/shards2/burst2x/load50", 50, 2.0},
                              BurstRow{"service_tail/shards2/onoff4x/peak400", 100, 4.0}}) {
    benchmark::RegisterBenchmark(row.name, [=](benchmark::State& state) {
      RunRow(state, 2, row.load_pct, ArrivalProcess::kBurst, row.factor, scale);
    })->Iterations(1)->Unit(benchmark::kMillisecond);
  }
}

}  // namespace
}  // namespace cclbt::bench

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  cclbt::bench::RegisterAll();
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
