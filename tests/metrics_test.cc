// Tests for the metrics registry (src/metrics): the unified log-bucketed
// histogram (including the former src/common/histogram.h suite, migrated
// here when the implementations were unified), shard-merge conservation
// across real OS threads, the disabled-gate zero-registration contract, the
// deterministic epoch series (bit-identical across identical RunConfigs,
// including with background GC), the per-epoch component-bytes sum and
// window-tiling invariants for both the driver and the sharded service, and
// the .pmdump serialize/read round trip and reader rejections.
#include <algorithm>
#include <cstdint>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "src/bench/driver.h"
#include "src/common/rng.h"
#include "src/metrics/histogram.h"
#include "src/metrics/metrics.h"
#include "src/metrics/pmdump.h"
#include "src/service/service.h"

namespace cclbt {
namespace {

using metrics::Histogram;

// --- histogram: suite migrated from tests/common_test.cc -------------------

TEST(Histogram, PercentilesOrdered) {
  Histogram hist;
  Rng rng(1);
  for (int i = 0; i < 100000; i++) {
    hist.Record(rng.NextBounded(1000000));
  }
  EXPECT_LE(hist.Percentile(50), hist.Percentile(90));
  EXPECT_LE(hist.Percentile(90), hist.Percentile(99));
  EXPECT_LE(hist.Percentile(99), hist.Percentile(99.9));
  EXPECT_LE(hist.Percentile(99.9), hist.Max());
  EXPECT_GE(hist.Percentile(0), hist.Min());
}

TEST(Histogram, ExactForSmallValues) {
  Histogram hist;
  for (uint64_t v = 0; v < 20; v++) {
    hist.Record(v);
  }
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Max(), 19u);
  EXPECT_EQ(hist.Count(), 20u);
}

TEST(Histogram, MedianApproximatelyCorrect) {
  Histogram hist;
  for (uint64_t v = 1; v <= 10000; v++) {
    hist.Record(v);
  }
  uint64_t median = hist.Percentile(50);
  EXPECT_NEAR(static_cast<double>(median), 5000.0, 5000.0 * 0.05);
}

TEST(Histogram, MergeCombinesCounts) {
  Histogram a;
  Histogram b;
  a.Record(100);
  b.Record(1000000);
  a.Merge(b);
  EXPECT_EQ(a.Count(), 2u);
  EXPECT_EQ(a.Min(), 100u);
  EXPECT_EQ(a.Max(), 1000000u);
}

TEST(Histogram, EmptyReturnsZero) {
  Histogram hist;
  EXPECT_EQ(hist.Percentile(99), 0u);
  EXPECT_EQ(hist.Min(), 0u);
  EXPECT_EQ(hist.Mean(), 0.0);
}

// --- histogram: percentile oracle and boundedness --------------------------

// Percentile(p) reports the upper bound of the bucket holding the rank-p
// value, clamped into [Min, Max]. Against a sorted-vector oracle that means:
// never below the true rank value, never above that value's bucket bound.
TEST(Histogram, PercentileMatchesSortedOracle) {
  Histogram hist;
  Rng rng(7);
  std::vector<uint64_t> values;
  for (int i = 0; i < 20000; i++) {
    // Mixed magnitudes: shift a full-width draw by 0..49 bits so every
    // power-of-two range (exact unit buckets through wide buckets) is hit.
    uint64_t v = rng.Next() >> rng.NextBounded(50);
    values.push_back(v);
    hist.Record(v);
  }
  std::sort(values.begin(), values.end());
  for (double p : {0.0, 10.0, 25.0, 50.0, 75.0, 90.0, 99.0, 99.9, 100.0}) {
    auto rank = static_cast<uint64_t>(p / 100.0 * static_cast<double>(values.size()));
    rank = std::min(rank, static_cast<uint64_t>(values.size() - 1));
    uint64_t oracle = values[rank];
    uint64_t got = hist.Percentile(p);
    EXPECT_GE(got, oracle) << "p=" << p;
    EXPECT_LE(got, Histogram::BucketUpperBound(Histogram::BucketFor(oracle))) << "p=" << p;
  }
}

// The top bucket has a well-defined saturated bound: bucket bounds are
// non-decreasing all the way up (the previous implementation wrapped around
// uint64 and made the max bucket effectively open-ended).
TEST(Histogram, TopBucketBoundedNoOverflow) {
  uint64_t prev = 0;
  for (int i = 1; i < Histogram::kNumBuckets; i++) {
    uint64_t bound = Histogram::BucketUpperBound(i);
    EXPECT_GE(bound, prev) << "bucket " << i;
    prev = bound;
  }
  EXPECT_EQ(Histogram::MaxTrackable(), ~0ULL);

  Histogram hist;
  hist.Record(~0ULL);
  hist.Record(1);
  EXPECT_EQ(hist.Percentile(100), ~0ULL);
  EXPECT_EQ(hist.Percentile(0), 1u);
}

TEST(Histogram, DeltaIsWindowed) {
  Histogram hist;
  for (int i = 0; i < 100; i++) {
    hist.Record(500);
  }
  Histogram earlier = hist;
  for (int i = 0; i < 60; i++) {
    hist.Record(1000000);
  }
  Histogram window = hist.Delta(earlier);
  EXPECT_EQ(window.Count(), 60u);
  EXPECT_EQ(window.Sum(), 60u * 1000000u);
  // Window extremes are quantized bucket bounds around the one recorded value.
  EXPECT_GT(window.Min(), 500u);
  EXPECT_GE(window.Percentile(50), 1000000u);
  EXPECT_LE(window.Percentile(50),
            Histogram::BucketUpperBound(Histogram::BucketFor(1000000)));
}

// A value recorded with weight w is w observations of that value: a weighted
// histogram equals one that records every observation, under every view.
TEST(Histogram, WeightedRecordEqualsRepeatedRecord) {
  Histogram weighted;
  Histogram repeated;
  Rng rng(5);
  for (int i = 0; i < 500; i++) {
    uint64_t value = rng.NextBounded(1'000'000);
    uint64_t weight = rng.NextBounded(9);  // 0 records nothing
    weighted.Record(value, weight);
    for (uint64_t w = 0; w < weight; w++) {
      repeated.Record(value);
    }
  }
  ASSERT_EQ(weighted.Count(), repeated.Count());
  EXPECT_EQ(weighted.Sum(), repeated.Sum());
  EXPECT_EQ(weighted.Min(), repeated.Min());
  EXPECT_EQ(weighted.Max(), repeated.Max());
  for (double p : {0.0, 1.0, 25.0, 50.0, 90.0, 99.0, 99.9, 100.0}) {
    EXPECT_EQ(weighted.Percentile(p), repeated.Percentile(p)) << "p" << p;
  }
}

TEST(Histogram, WeightedMergeAndDelta) {
  Histogram a;
  a.Record(100, 8);
  Histogram earlier = a;
  a.Record(5000, 8);
  a.Record(5000, 8);
  Histogram window = a.Delta(earlier);
  EXPECT_EQ(window.Count(), 16u);
  EXPECT_EQ(window.Sum(), 16u * 5000u);
  EXPECT_GE(window.Percentile(50), 5000u);

  Histogram b;
  b.Record(7, 3);
  b.Merge(a);
  EXPECT_EQ(b.Count(), 3u + 24u);
  EXPECT_EQ(b.Sum(), 21u + 800u + 80000u);
  EXPECT_EQ(b.Min(), 7u);
  EXPECT_EQ(b.Max(), 5000u);
  // 3 of 27 observations are 7, 8 are 100: the 30th percentile is 100's
  // bucket.
  EXPECT_EQ(b.Percentile(30), Histogram::BucketUpperBound(Histogram::BucketFor(100)));
}

// The sampled wall timer times the first op of each kind and every
// kWallSampleStride-th after it, per kind; with weight kWallSampleStride the
// wall Count is within one stride above the exact op count.
TEST(WallSampler, SamplesOneInStridePerKind) {
  metrics::SetEnabled(true);
  metrics::Reset();
  metrics::WallSampler sampler;
  const uint64_t kOps[metrics::kNumOpKinds] = {1, 8, 9, 21};
  uint64_t timed[metrics::kNumOpKinds] = {};
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    auto kind = static_cast<metrics::OpKind>(k);
    for (uint64_t i = 0; i < kOps[k]; i++) {
      sampler.Begin(kind);
      metrics::WallSample wall = sampler.End();
      if (wall.weight != 0) {
        EXPECT_EQ(wall.weight, metrics::kWallSampleStride);
        EXPECT_EQ(i % metrics::kWallSampleStride, 0u) << "op " << i;
        timed[k]++;
      }
      metrics::RecordOp(kind, 100 + i, wall);
    }
  }
  metrics::MetricsSnapshot snap = metrics::Snapshot();
  metrics::SetEnabled(false);
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    auto kind = static_cast<metrics::OpKind>(k);
    uint64_t stride = metrics::kWallSampleStride;
    EXPECT_EQ(timed[k], (kOps[k] + stride - 1) / stride);
    EXPECT_EQ(snap.virt(kind).Count(), kOps[k]);
    EXPECT_GE(snap.wall(kind).Count(), kOps[k]);
    EXPECT_LT(snap.wall(kind).Count(), kOps[k] + stride);
  }
}

// --- registry: gate and shard lifecycle -------------------------------------

// The disabled gate must never register a shard: one relaxed load, no TLS
// allocation, no registry mutation (the <=2% disabled-cost budget).
TEST(MetricsRegistry, DisabledGateRegistersNoShard) {
  metrics::SetEnabled(false);
  size_t before = metrics::NumShards();
  std::thread t([] {
    for (int i = 0; i < 1000; i++) {
      metrics::Add(metrics::Counter::kBufferAbsorbs);
      metrics::RecordOp(metrics::OpKind::kUpsert, 100, {100, 1});
    }
  });
  t.join();
  EXPECT_EQ(metrics::NumShards(), before);
}

// Counts recorded by real OS threads are conserved through shard merge, even
// though the threads (and their TLS bindings) are gone by snapshot time.
TEST(MetricsRegistry, ShardMergeConservation) {
  metrics::SetEnabled(true);
  metrics::Reset();
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  uint64_t expected_ops = 0;
  for (int t = 0; t < kThreads; t++) {
    uint64_t ops = 1000 + static_cast<uint64_t>(t);
    expected_ops += ops;
    threads.emplace_back([t, ops] {
      for (uint64_t i = 0; i < ops; i++) {
        metrics::Add(metrics::Counter::kBufferAbsorbs);
        metrics::Add(metrics::Counter::kWalAppendBytes, 64);
        metrics::RecordOp(metrics::OpKind::kUpsert, 100 + static_cast<uint64_t>(t), {50, 1});
      }
    });
  }
  for (auto& t : threads) {
    t.join();
  }
  metrics::MetricsSnapshot snap = metrics::Snapshot();
  metrics::SetEnabled(false);
  EXPECT_EQ(snap.counter(metrics::Counter::kBufferAbsorbs), expected_ops);
  EXPECT_EQ(snap.counter(metrics::Counter::kWalAppendBytes), 64 * expected_ops);
  EXPECT_EQ(snap.virt(metrics::OpKind::kUpsert).Count(), expected_ops);
  EXPECT_EQ(snap.wall(metrics::OpKind::kUpsert).Count(), expected_ops);
  EXPECT_GE(metrics::NumShards(), 1u);
}

// --- epoch series: determinism and invariants -------------------------------

bench::RunConfig MetricsConfig() {
  bench::RunConfig config;
  config.threads = 4;
  config.threads_per_socket = 2;
  config.warm_keys = 20'000;
  config.ops = 20'000;
  config.op = OpType::kInsert;
  config.seed = 1234;
  config.metrics = true;
  return config;
}

// The serialized epoch series is the deterministic payload of a .pmdump
// file: identical RunConfigs must produce bit-identical bytes (DESIGN.md §10
// extended to time-resolved metrics).
TEST(MetricsEpochSeries, BitIdenticalAcrossRuns) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = false;
  bench::RunConfig config = MetricsConfig();
  bench::RunResult first = bench::RunIndexWorkload("cclbtree", config, index_config);
  bench::RunResult second = bench::RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_FALSE(first.epochs.empty());
  EXPECT_EQ(metrics::SerializeEpochSeries(first.epochs),
            metrics::SerializeEpochSeries(second.epochs));
}

// Same property with background GC enabled: GC rounds, WAL release bytes and
// the gc_rounds gauge land in epoch records and must stay deterministic
// under the virtual-time GC scheduling.
TEST(MetricsEpochSeries, BackgroundGcBitIdenticalAcrossRuns) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = true;
  bench::RunConfig config = MetricsConfig();
  bench::RunResult first = bench::RunIndexWorkload("cclbtree", config, index_config);
  bench::RunResult second = bench::RunIndexWorkload("cclbtree", config, index_config);
  ASSERT_FALSE(first.epochs.empty());
  EXPECT_EQ(metrics::SerializeEpochSeries(first.epochs),
            metrics::SerializeEpochSeries(second.epochs));
}

// Every epoch's per-component media bytes must sum to that epoch's windowed
// media_write_bytes, epoch windows must tile the measurement phase exactly
// (byte and op totals telescope to the phase totals), and window ends must be
// strictly increasing.
void ExpectEpochsTilePhase(const metrics::EpochSeries& epochs, uint64_t phase_media_bytes,
                           uint64_t phase_ops) {
  ASSERT_FALSE(epochs.empty());
  uint64_t media_bytes = 0;
  uint64_t ops = 0;
  uint64_t prev_t = 0;
  for (const metrics::EpochRecord& e : epochs) {
    EXPECT_EQ(e.ComponentBytesTotal(), e.media_write_bytes) << "epoch " << e.index;
    EXPECT_GT(e.t_ns, prev_t) << "epoch " << e.index;
    prev_t = e.t_ns;
    media_bytes += e.media_write_bytes;
    ops += e.TotalOps();
  }
  EXPECT_EQ(media_bytes, phase_media_bytes);
  EXPECT_EQ(ops, phase_ops);
  EXPECT_EQ(epochs.back().index, epochs.size() - 1);
}

TEST(MetricsEpochSeries, ComponentSumsAndWindowTiling) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = true;
  bench::RunConfig config = MetricsConfig();
  bench::RunResult result = bench::RunIndexWorkload("cclbtree", config, index_config);
  ExpectEpochsTilePhase(result.epochs, result.stats.media_write_bytes, config.ops);
}

// The sharded service records through the same epoch recorder as the
// driver; its series obeys the same invariants, closed-loop and open-loop,
// with one shard or several.
TEST(MetricsEpochSeries, ServiceComponentSumsAndWindowTiling) {
  for (int shards : {1, 4}) {
    for (double offered_mops : {0.0, 4.0}) {
      SCOPED_TRACE("shards=" + std::to_string(shards) +
                   " offered_mops=" + std::to_string(offered_mops));
      kvindex::RuntimeOptions options;
      options.device.pool_bytes = 256 << 20;
      options.device.num_sockets = 2;
      options.device.dimms_per_socket = 2;
      kvindex::Runtime rt(options);
      service::ServiceConfig config;
      config.shards = shards;
      config.queue_capacity = 32;
      config.batch_ops = 4;
      service::ShardedKvService svc(rt, config);
      service::OpenLoopConfig w;
      w.ops = 40'000;  // several epochs on every backend, closed-loop too
      w.warm_keys = 4'000;
      w.offered_mops = offered_mops;
      w.mix = &kYcsbInsertIntensive;
      w.seed = 7;
      svc.Warm(w);
      service::ServiceResult result = svc.Run(w);
      EXPECT_GT(result.epochs.size(), 1u);
      ExpectEpochsTilePhase(result.epochs, result.stats.media_write_bytes, result.completed);
    }
  }
}

// A run without the metrics flag (and no CCL_DUMP / latency collection)
// produces no epoch series and no registry activity.
TEST(MetricsEpochSeries, DisabledByDefault) {
  bench::IndexConfig index_config;
  index_config.tree.background_gc = false;
  bench::RunConfig config = MetricsConfig();
  config.metrics = false;
  bench::RunResult result = bench::RunIndexWorkload("cclbtree", config, index_config);
  EXPECT_TRUE(result.epochs.empty());
  EXPECT_EQ(result.metrics_snapshot.virt(metrics::OpKind::kUpsert).Count(), 0u);
}

// --- .pmdump: serialize/read round trip and rejections ------------------------

// A dump with every section filled: config, names, stats, two epochs with
// gauges, virt/wall summaries, a heatmap, one event ring and both checkers'
// sections.
metrics::PmDump FullDump() {
  metrics::PmDump d;
  d.label = "round \"trip\"";  // not file-name safe: written sanitized
  d.config = {"cxl", 1 << 30, 2, 4, 256, 1000000, 4, 20000, 1234567};
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    d.op_kinds.push_back(metrics::OpKindName(static_cast<metrics::OpKind>(k)));
    d.virt.push_back({10, 100, 200, 300, 400 + static_cast<uint64_t>(k)});
    d.wall.push_back({10, 90, 180, 270, 360});
  }
  for (int c = 0; c < metrics::kNumCounters; c++) {
    d.counters.push_back(metrics::CounterName(static_cast<metrics::Counter>(c)));
  }
  d.components = {"other", "wal", "leaf"};
  d.stats = {{"user_bytes", 160}, {"xpbuffer_write_bytes", 512}, {"media_write_bytes", 384}};
  d.tags = {{"other", 1}, {"leaf", 2}, {"log", 3}};
  d.comps = {{"other", 0, 0}, {"wal", 256, 4}, {"leaf", 128, 2}};
  for (uint64_t i = 0; i < 2; i++) {
    metrics::EpochRecord e;
    e.index = i;
    e.t_ns = 1000000 * (i + 1);
    e.ops = {10, 2, 0, 0};
    e.p50_ns = {100, 50, 0, 0};
    e.p99_ns = {200, 60, 0, 0};
    e.p999_ns = {300, 70, 0, 0};
    e.user_bytes = 160;
    e.xpbuffer_write_bytes = 512;
    e.media_write_bytes = 384;
    e.media_read_bytes = 256;
    e.line_flushes = 8;
    e.fences = 4;
    e.comp_bytes = {0, 256, 128};
    e.xpbuf_resident = 2;
    e.xpbuf_insertions = 8 + i;
    e.xpbuf_evictions = 6;
    e.counters.assign(static_cast<size_t>(metrics::kNumCounters), 3);
    e.gauges = {{"gc_rounds", 5 + i}, {"s0_queue_depth", 0}, {"leaf_bytes", 4096}};
    d.epochs.push_back(e);
  }
  d.heat_units = 1024;
  d.heat_per_bin = 2;
  d.heat_bins = {{0, 2, 7, 1, 5}, {6, 2, 1, 6, 1}};
  trace::NamedRing ring;
  ring.worker_id = 3;
  ring.socket = 1;
  ring.emitted = 9;
  trace::TraceEvent ev;
  ev.t_ns = 42;
  ev.arg = 4096;
  ev.aux = 7;
  ev.type = 2;
  ev.comp = 1;
  ev.dimm = 5;
  ring.events = {ev, ev};
  d.rings.push_back(ring);
  pmsim::CheckSection pm;
  pm.checker = "pmcheck";
  pm.stats = {{"fence_epochs", 12}, {"diagnostics_truncated", 0}};
  pm.classes = {{"redundant_flush", 1, 0, 0}, {"useless_fence", 0, 2, 1}};
  pm.diagnostics = {{"redundant_flush", false, "leaf", 3, "clean_line", "line=0x40 dimm=1",
                     {{"flush", "leaf", 3, "line=0x40"}, {"fence", "other", 3, ""}}}};
  pmsim::CheckSection lk;
  lk.checker = "lockcheck";
  lk.stats = {{"locks_tracked", 4}, {"diagnostics_truncated", 0}};
  lk.classes = {{"lock_cycle", 0, 0, 0}};
  d.checks = {pm, lk};
  return d;
}

std::string Serialize(const metrics::PmDump& dump) {
  std::ostringstream out;
  metrics::WritePmDump(out, dump);
  return out.str();
}

std::string WriteTemp(const std::string& name, const std::string& text) {
  std::string path = ::testing::TempDir() + "/" + name;
  std::ofstream out(path);
  out << text;
  return path;
}

// Serialize -> read -> serialize is byte-identical over every section, and
// the checker sections appended after the dump (as the driver appends them)
// read back through the same reader.
TEST(PmDumpFormat, SerializeParseRoundTrip) {
  metrics::PmDump dump = FullDump();
  metrics::PmDump unchecked = dump;
  unchecked.checks.clear();
  std::string path = WriteTemp("roundtrip.pmdump", Serialize(unchecked));
  for (const pmsim::CheckSection& section : dump.checks) {
    ASSERT_TRUE(pmsim::AppendCheckSection(path, section));
  }

  metrics::PmDump parsed;
  std::string error;
  ASSERT_TRUE(metrics::ReadPmDump(path, &parsed, &error)) << error;
  EXPECT_EQ(Serialize(parsed), Serialize(dump));
  EXPECT_EQ(parsed.label, "round--trip-");
  EXPECT_EQ(parsed.config.backend, "cxl");
  EXPECT_EQ(parsed.config.elapsed_virtual_ns, 1234567u);
  ASSERT_EQ(parsed.epochs.size(), 2u);
  EXPECT_EQ(parsed.epochs[1].gauges, dump.epochs[1].gauges);
  EXPECT_EQ(parsed.epochs[0].ComponentBytesTotal(), parsed.epochs[0].media_write_bytes);
  EXPECT_EQ(parsed.checks, dump.checks);
  ASSERT_EQ(parsed.rings.size(), 1u);
  EXPECT_EQ(parsed.rings[0].events.size(), 2u);
  EXPECT_EQ(parsed.rings[0].events[1].dimm, 5u);
  EXPECT_EQ(parsed.Stat("media_write_bytes"), 384u);
}

// `want` occurs in the reader's error for `text`, which names file and line.
void ExpectRejected(const std::string& name, const std::string& text, size_t line,
                    const std::string& want) {
  std::string path = WriteTemp(name, text);
  metrics::PmDump parsed;
  std::string error;
  EXPECT_FALSE(metrics::ReadPmDump(path, &parsed, &error));
  EXPECT_NE(error.find(path + ":" + std::to_string(line) + ": "), std::string::npos) << error;
  EXPECT_NE(error.find(want), std::string::npos) << error;
}

TEST(PmDumpFormat, RejectsOlderDumpFormats) {
  ExpectRejected("old.pmtrace", "pmtrace 2\nlabel cclbtree\nstat user_bytes 16\n", 1,
                 "pmtrace 2");
  ExpectRejected("old.pmmetrics",
                 "{\"type\":\"header\",\"pmmetrics\":1,\"label\":\"cclbtree\"}\n", 1,
                 ".pmmetrics");
}

TEST(PmDumpFormat, RejectsEpochArrayWiderThanItsNamesTable) {
  std::string text = Serialize(FullDump());
  const std::string good = "ops=10,2,0,0 ";
  size_t at = text.find(good);
  ASSERT_NE(at, std::string::npos);
  text.replace(at, good.size(), "ops=10,2,0,0,1 ");
  size_t line = 1 + static_cast<size_t>(std::count(text.begin(), text.begin() + at, '\n'));
  ExpectRejected("wide.pmdump", text, line, "epoch ops has 5 entries; names op_kinds has 4");
}

}  // namespace
}  // namespace cclbt
