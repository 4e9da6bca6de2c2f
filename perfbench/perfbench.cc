// perfbench: the repository benchmark program (see README.md beside this file).
//
// One process runs one workload against the sharded CCL-BTree service for a
// wall-clock budget. The workload is a deterministic "unit" (set-up, the
// measured phases and the output checks) built from --seed; the unit is
// repeated until the budget is spent, at least wall_units times. The service
// workloads' capacity probe and SLO search run in the first two units only;
// every unit repeats the fixed-rate run. Virtual-time metrics come from the
// first unit and every later unit that measures them must reproduce them bit
// for bit (the determinism self-check); wall-clock metrics come from the
// first wall_units units' samples (WallOver), and wall_kops and setup_s are
// scaled to a reference host speed (HostRef). Every layer is measured from
// outside, through its public calls and counters, and
// every wall time comes from a span recorded around the call.
//
// Output: a human-readable table on stdout and `report.json` in --out with
// every metric (value, unit, clock, sample count, and a wall metric's
// samples). With --trace 1 the run also turns on the trace library's scope
// timing and writes spans.json, span_self.tsv and layers.tsv. run.py selects
// the metrics BENCHMARK.json names and prints the result line.
//
// Exit code: 0 when every output check passed, 1 when one failed (the report
// is still written), 2 on bad arguments.
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "src/core/ccl_btree.h"
#include "src/kvindex/runtime.h"
#include "src/metrics/histogram.h"
#include "src/metrics/metrics.h"
#include "src/pmsim/crash_injector.h"
#include "src/pmsim/device.h"
#include "src/service/service.h"
#include "src/service/workload.h"
#include "src/trace/trace.h"

namespace {

using namespace cclbt;
using service::OpenLoopConfig;
using service::ServiceResult;
using service::ShardedKvService;

// Read-mostly mix of svc_read: 90% lookup, 5% scan, remaining 5% update.
constexpr YcsbMix kReadMostly{"read-mostly", 0, 90, 5};
// Settings every workload shares; workloads.json "provenance" records them.
constexpr int kShards = 4;             // hash-partitioned
constexpr size_t kBatchOps = 8;        // group commit
constexpr size_t kQueueCapacity = 64;  // admission queue per shard
constexpr size_t kScanLen = 16;
constexpr double kZipfTheta = 0.99;
constexpr double kSloUs = 100;      // SLO: kSloFrac of offered requests acked within kSloUs
constexpr double kSloFrac = 0.999;
constexpr double kSloTol = 0.02;    // the SLO search stops at a bracket this wide
constexpr uint64_t kCheckStride = 8;  // the output checks read back 1 sampled key in 8
// Multi-threaded replay interleaves on shared DIMM clocks, so recover_ms is
// bit-identical only with one recovery thread.
constexpr int kRecoveryThreads = 1;
// Set-ups per crash unit; the extra ones are only timed, so that setup_s
// has about as many samples as on the service workloads.
constexpr int kCrashSetUps = 4;
// Host-speed reference (HostRef): kRefRounds sorts of kRefWords random
// words, and the time they take at the reference speed.
constexpr size_t kRefWords = size_t{1} << 15;
constexpr int kRefRounds = 8;
constexpr double kRefNominalS = 0.024;
// Worker id of the checker's own context: above the shard ids, below the
// tree's reserved GC worker (max_workers - 1).
constexpr int kCheckWorker = 64;

// ---------------------------------------------------------------------------
// Arguments: every option is "--name value"; run.py passes the workload's
// parameters from workloads.json.
// ---------------------------------------------------------------------------

struct Args {
  std::map<std::string, std::string> kv;

  std::string Str(const std::string& k) const {
    auto it = kv.find(k);
    if (it == kv.end()) {
      std::fprintf(stderr, "perfbench: missing --%s\n", k.c_str());
      std::exit(2);
    }
    return it->second;
  }
  double Num(const std::string& k) const {
    std::string s = Str(k);
    char* end = nullptr;
    double v = std::strtod(s.c_str(), &end);
    if (end == s.c_str() || *end != '\0' || !std::isfinite(v) || v < 0) {
      std::fprintf(stderr, "perfbench: --%s wants a non-negative number, got '%s'\n", k.c_str(),
                   s.c_str());
      std::exit(2);
    }
    return v;
  }
  uint64_t U64(const std::string& k) const { return static_cast<uint64_t>(Num(k)); }
};

Args ParseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; i += 2) {
    std::string key = argv[i];
    if (key.rfind("--", 0) != 0 || i + 1 >= argc) {
      std::fprintf(stderr, "perfbench: expected --name value pairs, got '%s'\n", key.c_str());
      std::exit(2);
    }
    a.kv[key.substr(2)] = argv[i + 1];
  }
  return a;
}

struct Config {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0;
  bool trace = false;
  std::string out_dir;
  bool crash = false;  // crash_recover: stream, torn crash, restart, audit
  uint64_t pool_bytes = 0;
  const YcsbMix* mix = &kYcsbInsertIntensive;
  KeyDistribution dist = KeyDistribution::kUniform;
  uint64_t warm_keys = 0;
  uint64_t ops = 0;        // fixed-rate run (svc) / stream length (crash)
  double rate_mops = 0;    // fixed absolute offered rate, virtual Mop/s
  uint64_t probe_ops = 0;  // capacity probe and each SLO step (svc)
  uint64_t crash_fence = 0;
  // Wall metrics come from the first `wall_units` units' samples, so a
  // faster build gets no more samples than a slower one; a run repeats at
  // least this many units (the determinism self-check needs two).
  size_t wall_units = 0;
};

Config ConfigFrom(const Args& a) {
  Config c;
  c.workload = a.Str("workload");
  c.seed = a.U64("seed");
  c.seconds = a.Num("seconds");
  c.trace = a.U64("trace") != 0;
  c.out_dir = a.Str("out");
  c.crash = a.Str("kind") == "crash";
  c.pool_bytes = a.U64("pool_mb") << 20;
  std::string mix = a.Str("mix");
  if (mix == "insert-intensive") {
    c.mix = &kYcsbInsertIntensive;
  } else if (mix == "read-mostly") {
    c.mix = &kReadMostly;
  } else {
    std::fprintf(stderr, "perfbench: unknown --mix '%s'\n", mix.c_str());
    std::exit(2);
  }
  c.dist = a.Str("dist") == "zipfian" ? KeyDistribution::kZipfian : KeyDistribution::kUniform;
  c.warm_keys = a.U64("warm_keys");
  c.ops = a.U64("ops");
  c.rate_mops = a.Num("rate_mops");
  c.wall_units = a.U64("wall_units");
  if (c.crash) {
    c.crash_fence = a.U64("crash_fence");
  } else {
    c.probe_ops = a.U64("probe_ops");
  }
  if (c.warm_keys == 0 || c.ops == 0 || c.rate_mops <= 0 || c.pool_bytes == 0 || c.wall_units < 2 ||
      (c.crash && c.crash_fence == 0) || (!c.crash && c.probe_ops == 0)) {
    std::fprintf(stderr, "perfbench: workload parameters out of range\n");
    std::exit(2);
  }
  return c;
}

// ---------------------------------------------------------------------------
// Spans: one per call into a layer, kept in memory and written at the end.
// Each span carries the device counter deltas across it when a device is
// attached, so ratios can be formed where the work happened.
// ---------------------------------------------------------------------------

double WallNowS() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0: a root span
  int unit = 0;
  std::string name;
  double start_s = 0;
  double end_s = 0;
  bool has_counters = false;
  pmsim::StatsSnapshot delta;
};

class Tracer {
 public:
  explicit Tracer(double origin_s) : origin_s_(origin_s) {}

  void Begin(const std::string& name, pmsim::PmDevice* device) {
    SpanRecord r;
    r.id = spans_.size() + 1;
    r.parent = open_.empty() ? 0 : spans_[open_.back().index].id;
    r.unit = unit_;
    r.name = name;
    r.has_counters = device != nullptr;
    OpenSpan o{spans_.size(), device, {}};
    if (device != nullptr) {
      o.before = device->stats().Snapshot();
    }
    r.start_s = WallNowS() - origin_s_;
    spans_.push_back(std::move(r));
    open_.push_back(o);
  }

  // Closes the innermost open span (spans nest strictly) and returns its
  // duration in seconds.
  double End() {
    double now = WallNowS() - origin_s_;
    OpenSpan o = open_.back();
    open_.pop_back();
    SpanRecord& r = spans_[o.index];
    r.end_s = now;
    if (o.device != nullptr) {
      r.delta = o.device->stats().Snapshot().Delta(o.before);
    }
    return r.end_s - r.start_s;
  }

  void set_unit(int unit) { unit_ = unit; }
  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  struct OpenSpan {
    size_t index;
    pmsim::PmDevice* device;
    pmsim::StatsSnapshot before;
  };
  double origin_s_;
  int unit_ = 0;
  std::vector<SpanRecord> spans_;
  std::vector<OpenSpan> open_;
};

// RAII span. `device` must outlive the span.
class Span {
 public:
  Span(Tracer& tracer, const std::string& name, pmsim::PmDevice* device = nullptr)
      : tracer_(tracer) {
    tracer_.Begin(name, device);
  }
  ~Span() {
    if (!ended_) {
      tracer_.End();
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  double End() {
    ended_ = true;
    return tracer_.End();
  }

 private:
  Tracer& tracer_;
  bool ended_ = false;
};

// ---------------------------------------------------------------------------
// Histogram reading. The service records latencies into the repository's
// log-bucketed histogram (32 sub-buckets per power of two); Percentile()
// returns a bucket's upper bound. A bound repeats exactly across seeds
// whenever the percentile stays inside one bucket (lookup p50 sits in one
// 8 ns bucket on every seed), so the latency metrics interpolate inside the
// bucket instead, which needs the bucket's rank range.
// ---------------------------------------------------------------------------

// Value at 0-based rank r, under Percentile()'s rank convention.
uint64_t ValueAtRank(const metrics::Histogram& h, uint64_t r) {
  return h.Percentile(100.0 * (static_cast<double>(r) + 0.5) / static_cast<double>(h.Count()));
}

// Number of recorded values whose bucket lies wholly at or below `limit`
// (a value in the bucket straddling the limit counts as above it).
uint64_t CountAtMost(const metrics::Histogram& h, uint64_t limit) {
  uint64_t lo = 0;
  uint64_t hi = h.Count();  // answer in [lo, hi]
  while (lo < hi) {
    uint64_t mid = lo + (hi - lo) / 2;
    if (ValueAtRank(h, mid) <= limit) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  return lo;
}

// Quantile q in [0, 1], linearly interpolated inside the bucket that holds
// the rank (the bucket's ranks are spread evenly over its value range).
double Quantile(const metrics::Histogram& h, double q) {
  uint64_t n = h.Count();
  if (n == 0) {
    return 0;
  }
  auto rank = std::min<uint64_t>(static_cast<uint64_t>(q * static_cast<double>(n)), n - 1);
  int bucket = metrics::Histogram::BucketFor(ValueAtRank(h, rank));
  uint64_t lower = bucket == 0 ? 0 : metrics::Histogram::BucketUpperBound(bucket - 1) + 1;
  uint64_t upper = metrics::Histogram::BucketUpperBound(bucket);
  uint64_t first = lower == 0 ? 0 : CountAtMost(h, lower - 1);
  uint64_t last = CountAtMost(h, upper);  // one past the bucket's last rank
  double pos = (static_cast<double>(rank - first) + 0.5) / static_cast<double>(last - first);
  double v = static_cast<double>(lower) + pos * static_cast<double>(upper + 1 - lower);
  return std::clamp(v, static_cast<double>(h.Min()), static_cast<double>(h.Max()));
}

// Quantile q of `v` with linear interpolation between order statistics.
double SampleQuantile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0;
  }
  std::sort(v.begin(), v.end());
  double pos = q * static_cast<double>(v.size() - 1);
  auto i = static_cast<size_t>(pos);
  double frac = pos - static_cast<double>(i);
  return i + 1 < v.size() ? v[i] + frac * (v[i + 1] - v[i]) : v[i];
}

double Median(const std::vector<double>& v) { return SampleQuantile(v, 0.5); }

// The best sample: the shortest time, or the highest rate.
double Best(const std::vector<double>& v, bool rate) { return SampleQuantile(v, rate ? 1 : 0); }

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// ---------------------------------------------------------------------------
// Host speed. The hosts this runs on are shared, and their speed drifts by
// tens of percent over minutes, longer than a run, so wall_kops and setup_s
// are scaled to a reference host speed. A fixed piece of work that calls
// nothing under src/ is timed right before and right after each timed
// phase, and the phase's time is multiplied by kRefNominalS / (mean of the
// two reference times). The work is branchy integer code on cache-resident
// data, which is what the simulator's host time mostly goes to: filling an
// array with random words and sorting it. Of the kernels tried (a random
// walk over 64 MiB, hash-map inserts and probes, arithmetic chains, the
// sort), the sort's time tracked the service runs' time most closely as the
// host's speed drifted (README.md, "Host-speed scaling"). A change to the
// program moves the scaled value as much as the raw one; a slower host
// slows the phase and the reference alike, and the two cancel.
// ---------------------------------------------------------------------------

class HostRef {
 public:
  HostRef() : words_(kRefWords) {}

  // Seconds the reference work takes now. Every call does the same work.
  double Seconds() {
    double start = WallNowS();
    uint64_t x = 0x9E3779B97F4A7C15ull;
    for (int round = 0; round < kRefRounds; round++) {
      for (uint32_t& w : words_) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        w = static_cast<uint32_t>(x);
      }
      std::sort(words_.begin(), words_.end());
      sink_ += words_[words_.size() / 2];
    }
    return WallNowS() - start;
  }

 private:
  std::vector<uint32_t> words_;
  uint64_t sink_ = 0;  // keeps the work observable
};

HostRef& Host() {
  static HostRef host;
  return host;
}

// A phase's time at the reference host speed, from its raw time and the
// reference times measured just before and just after it.
double AtRefSpeed(double raw_s, double ref_before_s, double ref_after_s) {
  return raw_s * kRefNominalS / ((ref_before_s + ref_after_s) / 2);
}

// ---------------------------------------------------------------------------
// Metrics of one unit.
// ---------------------------------------------------------------------------

enum class ClockKind { kVirtual, kWall };

struct Metric {
  double value = 0;
  std::string unit;
  ClockKind clock = ClockKind::kVirtual;
  uint64_t samples = 0;  // observations behind the value (0: a single reading)
  std::vector<double> values;  // the samples behind a wall value
};

struct UnitOut {
  int index = 0;  // position of the unit within the run
  std::map<std::string, Metric> m;
  // Per-set-up wall samples; a unit sets up several identical services.
  // setup_s is at the reference host speed, the parts are raw.
  std::vector<double> setup_s, warm_s, ctor_ms;
  std::vector<double> ref_s;  // every HostRef time of the unit
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;  // failed output checks
  std::vector<std::string> notes;   // findings that are not failures

  void Set(const std::string& name, double value, const std::string& unit, ClockKind clock,
           uint64_t samples = 0) {
    m[name] = Metric{value, unit, clock, samples, {}};
  }
  void Virt(const std::string& name, double value, const std::string& unit,
            uint64_t samples = 0) {
    Set(name, value, unit, ClockKind::kVirtual, samples);
  }
  void Wall(const std::string& name, double value, const std::string& unit,
            uint64_t samples = 0) {
    Set(name, value, unit, ClockKind::kWall, samples);
  }
  void Fail(const std::string& what) {
    failed++;
    if (errors.size() < 20) {
      errors.push_back(what);
    }
  }
};

// ---------------------------------------------------------------------------
// Set-up: runtime, shards, warm fill.
// ---------------------------------------------------------------------------

struct Live {
  std::unique_ptr<kvindex::Runtime> rt;
  std::unique_ptr<ShardedKvService> svc;  // destroyed before rt
  double ref_s = 0;  // the HostRef time right after set-up
};

// Times the HostRef work once and records it in the unit.
double RefTime(UnitOut& out) {
  double s = Host().Seconds();
  out.ref_s.push_back(s);
  return s;
}

OpenLoopConfig Stream(const Config& c, double offered_mops, uint64_t ops) {
  OpenLoopConfig w;
  w.ops = ops;
  w.offered_mops = offered_mops;
  w.process = service::ArrivalProcess::kPoisson;
  w.mix = c.mix;
  w.dist = c.dist;
  w.zipf_theta = kZipfTheta;
  w.warm_keys = c.warm_keys;
  w.seed = c.seed;
  return w;
}

Live SetUp(const Config& c, bool track_acked, Tracer& tr, UnitOut& out) {
  double ref_before = RefTime(out);
  Span setup(tr, "setup");
  Live live;
  {
    Span s(tr, "runtime_ctor");
    kvindex::RuntimeOptions options;  // default device: 2 sockets x 4 DIMMs, 16 KB XPBuffer each
    options.device.pool_bytes = c.pool_bytes;
    live.rt = std::make_unique<kvindex::Runtime>(options);
    out.ctor_ms.push_back(s.End() * 1e3);
  }
  {
    Span s(tr, "shard_ctor", &live.rt->device());
    service::ServiceConfig sc;
    sc.shards = kShards;
    sc.partition = service::Partition::kHash;
    sc.index = "cclbtree";
    sc.queue_capacity = kQueueCapacity;
    sc.batch_ops = kBatchOps;
    sc.scan_len = kScanLen;
    sc.track_acked = track_acked;
    sc.label = "perfbench_" + c.workload;
    live.svc = std::make_unique<ShardedKvService>(*live.rt, sc);
  }
  {
    Span s(tr, "warm", &live.rt->device());
    live.svc->Warm(Stream(c, c.rate_mops, c.ops));
    out.warm_s.push_back(s.End());
  }
  double setup_s = setup.End();
  live.ref_s = RefTime(out);
  out.setup_s.push_back(AtRefSpeed(setup_s, ref_before, live.ref_s));
  return live;
}

core::CclBTree& Tree(ShardedKvService& svc, int s) {
  return dynamic_cast<core::CclBTree&>(svc.shard_index(s));
}

// Cumulative structural counters summed over shards.
struct TreeCounters {
  uint64_t buffer_flushes = 0, splits = 0, merges = 0, gc_rounds = 0, dram_hits = 0;
  uint64_t log_peak_bytes = 0;
};

TreeCounters ReadTrees(const std::vector<core::CclBTree*>& trees) {
  TreeCounters t;
  for (const core::CclBTree* tree : trees) {
    t.buffer_flushes += tree->buffer_flushes();
    t.splits += tree->splits();
    t.merges += tree->merges();
    t.gc_rounds += tree->gc_rounds();
    t.dram_hits += tree->dram_hits();
    t.log_peak_bytes += tree->log_peak_bytes();
  }
  return t;
}

std::vector<core::CclBTree*> Trees(ShardedKvService& svc) {
  std::vector<core::CclBTree*> trees;
  for (int s = 0; s < svc.shards(); s++) {
    trees.push_back(&Tree(svc, s));
  }
  return trees;
}

// ---------------------------------------------------------------------------
// Output checks (outside every timed phase).
// ---------------------------------------------------------------------------

// Walks every shard with Scan: keys must ascend and, when `shard_of` is
// given, belong to their shard.
// Returns the live key count; sums PM (pool-wide, so counted once) and DRAM
// footprints into the unit's space metrics.
uint64_t ScanAndFootprint(const std::vector<core::CclBTree*>& trees,
                          const std::function<int(uint64_t)>& shard_of, const Config& c,
                          UnitOut& out) {
  std::vector<kvindex::KeyValue> buf(4096);
  uint64_t live = 0;
  uint64_t dram = 0;
  uint64_t pm = 0;
  for (size_t s = 0; s < trees.size(); s++) {
    uint64_t start = 1;  // key 0 is reserved
    uint64_t prev = 0;
    while (true) {
      size_t n = trees[s]->Scan(start, buf.size(), buf.data());
      for (size_t i = 0; i < n; i++) {
        if (buf[i].key <= prev && prev != 0) {
          out.Fail("scan order broken in shard " + std::to_string(s));
        }
        if (shard_of && shard_of(buf[i].key) != static_cast<int>(s)) {
          out.Fail("key in the wrong shard " + std::to_string(s));
        }
        prev = buf[i].key;
      }
      live += n;
      if (n < buf.size() || prev == UINT64_MAX) {
        break;
      }
      start = prev + 1;
    }
    kvindex::MemoryFootprint f = trees[s]->Footprint();
    dram += f.dram_bytes;
    pm = std::max(pm, f.pm_bytes);  // every shard reports the shared pool
  }
  if (live < c.warm_keys) {
    out.Fail("fewer live keys than warm keys: " + std::to_string(live));
  }
  out.Virt("space_amp", Ratio(static_cast<double>(pm), 16.0 * static_cast<double>(live)), "ratio",
           live);
  out.Virt("dram_b_per_key", Ratio(static_cast<double>(dram), static_cast<double>(live)), "B/key",
           live);
  return live;
}

void CheckInvariants(const std::vector<core::CclBTree*>& trees, UnitOut& out) {
  for (size_t s = 0; s < trees.size(); s++) {
    if (!trees[s]->CheckInvariants()) {
      out.Fail("CheckInvariants failed on shard " + std::to_string(s));
    }
  }
}

bool LookupIn(core::CclBTree& tree, uint64_t key, uint64_t* value) {
  *value = 0;
  return tree.Lookup(key, value);
}

// What the stream writes to one key: every value, and whether the key is a
// warm key (updates target warm keys, inserts fresh ones).
struct KeyWrites {
  std::vector<uint64_t> values;
  bool warm = false;
};

// The checks read back a deterministic sample of keys: one in
// kCheckStride, chosen by a hash of the key.
bool Sampled(uint64_t key) { return Mix64(key ^ 0xc4ec'c0de) % kCheckStride == 0; }

// Regenerates the stream to learn which sampled keys it writes; a sampled
// key absent from the map was never written by it.
std::map<uint64_t, KeyWrites> StreamWrites(const OpenLoopConfig& w) {
  std::map<uint64_t, KeyWrites> writes;
  service::OpenLoopGenerator gen(w);
  service::Request req;
  while (gen.Next(&req)) {
    if ((req.op == OpType::kInsert || req.op == OpType::kUpdate) && Sampled(req.key)) {
      KeyWrites& kw = writes[req.key];
      kw.values.push_back(req.value);
      kw.warm |= req.op == OpType::kUpdate;
    }
  }
  return writes;
}

// True when `value` is the warm-fill value of `key`.
bool IsWarmValue(const Config& c, uint64_t key, uint64_t value) {
  uint64_t i = (value >> 1) - 1;  // inverse of ServiceValue
  return i < c.warm_keys && service::ServiceValue(i) == value && service::ServiceWarmKey(i) == key;
}

// Sampled warm keys the stream never wrote must read back their warm value.
uint64_t CheckWarmSample(const Config& c, const std::map<uint64_t, KeyWrites>& writes,
                         const std::function<core::CclBTree&(uint64_t)>& tree_of, UnitOut& out) {
  uint64_t checked = 0;
  for (uint64_t i = 0; i < c.warm_keys; i++) {
    uint64_t key = service::ServiceWarmKey(i);
    if (!Sampled(key) || writes.count(key) != 0) {
      continue;
    }
    uint64_t v = 0;
    if (!LookupIn(tree_of(key), key, &v) || v != service::ServiceValue(i)) {
      out.Fail("warm key " + std::to_string(i) + " does not read back its warm value");
    }
    checked++;
  }
  return checked;
}

// ---------------------------------------------------------------------------
// svc_ingest / svc_read.
// ---------------------------------------------------------------------------

bool SloMet(const ServiceResult& r) {
  metrics::Histogram all;
  for (const metrics::Histogram& h : r.metrics_snapshot.op_virtual) {
    all.Merge(h);
  }
  // Shed requests are misses, so the share is taken over offered requests:
  // the completed request at that rank must be within the limit.
  auto needed = static_cast<uint64_t>(std::ceil(kSloFrac * static_cast<double>(r.offered)));
  return needed == 0 || (needed <= all.Count() &&
                         ValueAtRank(all, needed - 1) <= static_cast<uint64_t>(kSloUs * 1000));
}

void LatencyMetrics(const metrics::MetricsSnapshot& snap, UnitOut& out) {
  struct Kind {
    metrics::OpKind kind;
    const char* name;
  };
  for (Kind k : {Kind{metrics::OpKind::kUpsert, "upsert"}, Kind{metrics::OpKind::kLookup, "lookup"},
                 Kind{metrics::OpKind::kScan, "scan"}}) {
    const metrics::Histogram& h = snap.virt(k.kind);
    std::string p = k.name;
    out.Virt(p + "_p50_us", Quantile(h, 0.50) / 1e3, "us", h.Count());
    out.Virt(p + "_tail_us", Quantile(h, 0.999) / 1e3, "us", h.Count());
    const metrics::Histogram& wall = snap.wall(k.kind);
    out.Wall("core.op_wall_ns." + p, Quantile(wall, 0.50), "ns", wall.Count());
  }
}

// Mean DIMM utilization over `elapsed_ns`, estimated from the media
// counters and the device's service-time parameters: XPLine writes, the
// extra read-modify-write time, and read misses. The remote-socket penalty
// is left out, so the estimate is a lower bound.
double DimmBusyFrac(const pmsim::PmDevice& device, const pmsim::StatsSnapshot& d,
                    uint64_t elapsed_ns) {
  const pmsim::DeviceConfig& cfg = device.config();
  double unit = static_cast<double>(cfg.xpline_bytes);
  double writes = static_cast<double>(d.media_write_bytes) / unit;
  double misses = static_cast<double>(d.pm_reads - d.pm_read_hits);
  double rmw = std::max(0.0, static_cast<double>(d.media_read_bytes) / unit - misses);
  double busy_ns = writes * static_cast<double>(cfg.cost.xpline_write_service_ns) +
                   rmw * static_cast<double>(cfg.cost.xpline_rmw_extra_ns) +
                   misses * static_cast<double>(cfg.cost.xpline_read_service_ns);
  return Ratio(busy_ns, static_cast<double>(elapsed_ns) * cfg.total_dimms());
}

// Per-layer pmsim metrics over a measured phase's device delta.
void PmsimMetrics(const pmsim::StatsSnapshot& d, uint64_t ops, double xpbuf_evict_per_insert,
                  double dimm_busy_frac, UnitOut& out) {
  out.Virt("xbi", d.XbiAmplification(), "ratio");
  out.Virt("pmsim.cli", d.CliAmplification(), "ratio");
  for (trace::Component comp : {trace::Component::kWal, trace::Component::kLeaf,
                                trace::Component::kBufferNode, trace::Component::kGc,
                                trace::Component::kAllocMeta}) {
    out.Virt(std::string("pmsim.mw_share.") + trace::ComponentName(comp),
             Ratio(static_cast<double>(d.media_write_bytes_for(comp)),
                   static_cast<double>(d.media_write_bytes)),
             "frac");
  }
  out.Virt("pmsim.xpbuf_evict_per_insert", xpbuf_evict_per_insert, "ratio");
  auto per_op = [&](uint64_t v) { return Ratio(static_cast<double>(v), static_cast<double>(ops)); };
  out.Virt("pmsim.flushes_per_op", per_op(d.line_flushes), "1/op", ops);
  out.Virt("pmsim.fences_per_op", per_op(d.fences), "1/op", ops);
  out.Virt("pmsim.read_hit_frac",
           Ratio(static_cast<double>(d.pm_read_hits), static_cast<double>(d.pm_reads)), "frac",
           d.pm_reads);
  out.Virt("pmsim.media_read_b_per_op", per_op(d.media_read_bytes), "B/op", ops);
  out.Virt("pmsim.dimm_busy_frac", dimm_busy_frac, "frac");
  uint64_t committed = 0;
  for (uint64_t n : d.committed_lines_by_component) {
    committed += n;
  }
  out.Virt("pmsim.remote_frac",
           Ratio(static_cast<double>(d.remote_accesses),
                 static_cast<double>(d.pm_reads + committed)),
           "frac");
}

void CoreMetrics(const TreeCounters& before, const TreeCounters& after, uint64_t ops,
                 uint64_t lookups, UnitOut& out) {
  double kops = static_cast<double>(ops) / 1e3;
  out.Virt("core.buffer_flushes_per_kop",
           Ratio(static_cast<double>(after.buffer_flushes - before.buffer_flushes), kops), "1/kop",
           ops);
  out.Virt("core.splits_per_kop", Ratio(static_cast<double>(after.splits - before.splits), kops),
           "1/kop", ops);
  out.Virt("core.merges_per_kop", Ratio(static_cast<double>(after.merges - before.merges), kops),
           "1/kop", ops);
  out.Virt("core.gc_rounds", static_cast<double>(after.gc_rounds - before.gc_rounds), "count");
  out.Virt("core.dram_hit_frac",
           Ratio(static_cast<double>(after.dram_hits - before.dram_hits),
                 static_cast<double>(lookups)),
           "frac", lookups);
  out.Virt("core.log_peak_mb", static_cast<double>(after.log_peak_bytes) / (1 << 20), "MB");
}

// Exclusive virtual ns per component from the trace library's scope timing
// (zeros unless --trace 1 turned it on).
struct ScopeTable {
  uint64_t ns[trace::kNumComponents] = {};

  static ScopeTable Read() {
    ScopeTable t;
    trace::FlushScopeTime();
    const uint64_t* table = trace::ThreadComponentNs();
    std::copy(table, table + trace::kNumComponents, t.ns);
    return t;
  }
};

void ScopeMetrics(const ScopeTable& before, const ScopeTable& after, uint64_t ops, UnitOut& out) {
  for (trace::Component comp :
       {trace::Component::kWal, trace::Component::kLeaf, trace::Component::kBufferNode,
        trace::Component::kGc, trace::Component::kAllocMeta, trace::Component::kInner,
        trace::Component::kOther}) {
    auto i = static_cast<size_t>(comp);
    out.Virt(std::string("vt_ns_per_op.") + trace::ComponentName(comp),
             Ratio(static_cast<double>(after.ns[i] - before.ns[i]), static_cast<double>(ops)), "ns",
             ops);
  }
}

// Epochs whose windowed p99.9 (any op kind) exceeds the SLO limit, and of
// those the ones in which some shard's GC round count advanced.
void StallMetrics(const ServiceResult& r, const std::vector<uint64_t>& gc_before, UnitOut& out) {
  auto limit = static_cast<uint64_t>(kSloUs * 1000);
  std::vector<uint64_t> prev = gc_before;
  uint64_t stalls = 0;
  uint64_t stalls_gc = 0;
  for (const metrics::EpochRecord& e : r.epochs) {
    bool stall = false;
    for (size_t k = 0; k < e.ops.size(); k++) {
      stall |= e.ops[k] != 0 && e.p999_ns[k] > limit;
    }
    bool gc = false;
    for (int s = 0; s < kShards; s++) {
      std::string name = "s" + std::to_string(s) + "_gc_rounds";
      for (const auto& [gauge, value] : e.gauges) {
        if (gauge == name) {
          gc |= value > prev[static_cast<size_t>(s)];
          prev[static_cast<size_t>(s)] = value;
        }
      }
    }
    stalls += stall ? 1 : 0;
    stalls_gc += stall && gc ? 1 : 0;
  }
  out.Virt("service.stall_epochs", static_cast<double>(stalls), "count", r.epochs.size());
  out.Virt("service.stall_epochs_gc", static_cast<double>(stalls_gc), "count", r.epochs.size());
}

void ServiceMetrics(const ServiceResult& r, double run_wall_s, UnitOut& out) {
  uint64_t batches = 0;
  uint64_t max_q = 0;
  uint64_t min_done = UINT64_MAX;
  uint64_t max_done = 0;
  for (const service::ShardStats& s : r.shards) {
    batches += s.batches;
    max_q = std::max(max_q, s.max_queue_depth);
    min_done = std::min(min_done, s.completed);
    max_done = std::max(max_done, s.completed);
  }
  out.Virt("service.batch_fill",
           Ratio(static_cast<double>(r.completed), static_cast<double>(batches)), "ops/batch",
           batches);
  out.Virt("service.max_qdepth", static_cast<double>(max_q), "count");
  out.Virt("service.shed", static_cast<double>(r.shed), "count", r.offered);
  out.Virt("service.shard_skew",
           Ratio(static_cast<double>(max_done), static_cast<double>(min_done)), "ratio");
  double index_wall_s = 0;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    index_wall_s += static_cast<double>(r.metrics_snapshot.op_wall[k].Sum()) / 1e9;
  }
  out.Wall("service.self_wall_ms", (run_wall_s - index_wall_s) * 1e3, "ms");
}

// Virtual metrics only the other workload kind produces are reported as 0
// so every workload emits the same names.
void ZeroCrashMetrics(UnitOut& out) {
  out.Virt("recover_ms", 0, "ms");
  out.Wall("recover_wall_ms", 0, "ms");
  out.Wall("pmsim.crash_wall_ms", 0, "ms");
  out.Wall("pmem.reopen_wall_ms", 0, "ms");
  out.Wall("core.recover_shard_wall_ms_max", 0, "ms");
}

void ZeroServiceSearchMetrics(UnitOut& out) {
  out.Virt("capacity_mops", 0, "Mop/s");
  out.Virt("slo_mops", 0, "Mop/s");
  out.Wall("setup.probe_s", 0, "s");
}

// Fixed-rate run on a fresh warmed service, with its checks. Returns the
// run's wall time. `record` = false runs it only to time it (the traced
// run's untraced reference).
double FixedRateRun(const Config& c, Tracer& tr, UnitOut& out, bool record) {
  Live live = SetUp(c, /*track_acked=*/c.trace, tr, out);
  std::vector<core::CclBTree*> trees = Trees(*live.svc);
  TreeCounters before = ReadTrees(trees);
  std::vector<uint64_t> gc_before;
  for (core::CclBTree* t : trees) {
    gc_before.push_back(t->gc_rounds());
  }
  pmsim::PmDevice::XpBufferTotals xb_before = live.rt->device().SampleXpBuffers();
  ScopeTable scope_before = ScopeTable::Read();
  OpenLoopConfig w = Stream(c, c.rate_mops, c.ops);
  Span run_span(tr, record ? "fixed_rate_run" : "fixed_rate_run_reference", &live.rt->device());
  ServiceResult r = live.svc->Run(w);
  double wall_s = run_span.End();
  double ref_after = RefTime(out);
  if (!record) {
    return wall_s;
  }
  ScopeTable scope_after = ScopeTable::Read();
  TreeCounters after = ReadTrees(trees);
  pmsim::PmDevice::XpBufferTotals xb_after = live.rt->device().SampleXpBuffers();
  uint64_t elapsed_ns = static_cast<uint64_t>(r.elapsed_virtual_ms * 1e6);

  LatencyMetrics(r.metrics_snapshot, out);
  PmsimMetrics(r.stats, r.completed,
               Ratio(static_cast<double>(xb_after.evictions - xb_before.evictions),
                     static_cast<double>(xb_after.insertions - xb_before.insertions)),
               DimmBusyFrac(live.rt->device(), r.stats, elapsed_ns), out);
  CoreMetrics(before, after, r.completed, r.metrics_snapshot.virt(metrics::OpKind::kLookup).Count(),
              out);
  ScopeMetrics(scope_before, scope_after, r.completed, out);
  ServiceMetrics(r, wall_s, out);
  StallMetrics(r, gc_before, out);
  double kops = static_cast<double>(r.completed) / 1e3;
  out.Wall("wall_kops", kops / AtRefSpeed(wall_s, live.ref_s, ref_after), "kop/s", r.completed);
  out.Wall("host.raw_wall_kops", kops / wall_s, "kop/s", r.completed);

  // --- output checks ---------------------------------------------------------
  Span verify(tr, "verify", &live.rt->device());
  uint64_t failed_before = out.failed;
  pmsim::ThreadContext check_ctx(live.rt->device(), /*socket=*/0, kCheckWorker);
  ShardedKvService& svc = *live.svc;
  auto tree_of = [&](uint64_t key) -> core::CclBTree& { return Tree(svc, svc.ShardOf(key)); };
  CheckInvariants(trees, out);
  std::map<uint64_t, KeyWrites> writes = StreamWrites(w);
  uint64_t checked = CheckWarmSample(c, writes, tree_of, out);
  // Every sampled written key holds a value the stream wrote to it, or its
  // warm value; only a fresh key may be absent (its inserts shed).
  for (const auto& [key, kw] : writes) {
    uint64_t v = 0;
    bool ok = LookupIn(tree_of(key), key, &v)
                  ? std::find(kw.values.begin(), kw.values.end(), v) != kw.values.end() ||
                        (kw.warm && IsWarmValue(c, key, v))
                  : !kw.warm;
    if (!ok) {
      out.Fail("written key reads a value the stream never wrote");
    }
    checked++;
  }
  if (c.trace) {
    // track_acked: every acked write reads back exactly.
    for (const auto& [key, value] : svc.acked()) {
      uint64_t v = 0;
      if (!LookupIn(tree_of(key), key, &v) || v != value) {
        out.Fail("acked write does not read back");
      }
      checked++;
    }
  }
  uint64_t live_keys =
      ScanAndFootprint(trees, [&](uint64_t key) { return svc.ShardOf(key); }, c, out);
  checked += live_keys;
  uint64_t wrong = out.failed - failed_before;
  double verify_s = verify.End();
  out.Wall("verify.wall_ms", verify_s * 1e3, "ms");
  out.Virt("verify.keys_checked", static_cast<double>(checked), "count");
  out.Virt("fail_frac", Ratio(static_cast<double>(r.shed + wrong), static_cast<double>(r.offered)),
           "frac", r.offered);
  out.attempted += r.offered;
  return wall_s;
}

// Capacity probe and SLO search (virtual, deterministic, and most of a
// unit's host time); the first two units run them, the second to check
// that they repeat.
void SearchCapacityAndSlo(const Config& c, Tracer& tr, UnitOut& out) {
  // Capacity: closed loop on a fresh warmed service.
  double capacity = 0;
  {
    Live live = SetUp(c, false, tr, out);
    Span s(tr, "capacity_probe", &live.rt->device());
    ServiceResult r = live.svc->Run(Stream(c, /*offered_mops=*/0, c.probe_ops));
    out.Wall("setup.probe_s", s.End(), "s");
    capacity = r.achieved_mops;
  }
  out.Virt("capacity_mops", capacity, "Mop/s", c.probe_ops);
  // SLO: bisect the offered rate in log space over [capacity / 1024,
  // capacity] until the bracket is within kSloTol of the rate itself, which
  // is finer than kSloTol of capacity. Every step starts from an identically
  // warmed service.
  double lo = capacity / 1024;
  double hi = capacity;
  bool met = false;
  int steps = 0;
  while (hi > lo * (1 + kSloTol)) {
    double mid = std::sqrt(lo * hi);
    Live live = SetUp(c, false, tr, out);
    Span s(tr, "slo_step", &live.rt->device());
    ServiceResult r = live.svc->Run(Stream(c, mid, c.probe_ops));
    s.End();
    bool ok = SloMet(r);
    met |= ok;
    (ok ? lo : hi) = mid;
    steps++;
  }
  out.Virt("slo_mops", met ? lo : 0, "Mop/s", static_cast<uint64_t>(steps));
  if (!met) {
    out.notes.push_back("no offered rate in the search met the SLO (slo_mops = 0)");
  }
}

void RunServiceUnit(const Config& c, Tracer& tr, UnitOut& out) {
  if (out.index < 2) {
    SearchCapacityAndSlo(c, tr, out);
  }
  if (c.trace) {
    // Overhead of scope timing: the same run untraced and traced, in an
    // order that alternates between units so warm-up favours neither.
    bool traced_first = out.index % 2 == 1;
    double traced_s = 0;
    double untraced_s = 0;
    for (bool traced : {traced_first, !traced_first}) {
      trace::SetScopeTiming(traced);
      (traced ? traced_s : untraced_s) = FixedRateRun(c, tr, out, /*record=*/traced);
    }
    trace::SetScopeTiming(true);
    out.Wall("trace.overhead_frac", traced_s / untraced_s - 1, "frac");
  } else {
    FixedRateRun(c, tr, out, /*record=*/true);
    out.Wall("trace.overhead_frac", 0, "frac");
  }
  ZeroCrashMetrics(out);
}

// ---------------------------------------------------------------------------
// crash_recover.
// ---------------------------------------------------------------------------

void RunCrashUnit(const Config& c, Tracer& tr, UnitOut& out) {
  ZeroServiceSearchMetrics(out);
  for (int i = 1; i < kCrashSetUps; i++) {
    SetUp(c, /*track_acked=*/true, tr, out);  // timed only
  }
  Live live = SetUp(c, /*track_acked=*/true, tr, out);
  kvindex::Runtime& rt = *live.rt;
  std::vector<core::CclBTree*> trees = Trees(*live.svc);
  TreeCounters before = ReadTrees(trees);
  pmsim::PmDevice::XpBufferTotals xb_before = rt.device().SampleXpBuffers();
  pmsim::StatsSnapshot stats_before = rt.device().stats().Snapshot();
  ScopeTable scope_before = ScopeTable::Read();
  OpenLoopConfig w = Stream(c, c.rate_mops, c.ops);

  double stream_s = 0;
  double measured_s = 0;  // crash + restart + audit
  pmsim::CrashInjector injector;
  rt.device().SetCrashInjector(&injector);
  injector.Arm(c.crash_fence, pmsim::CrashInjector::Mode::kTorn, c.seed);
  bool fired = false;
  {
    Span s(tr, "stream", &rt.device());
    try {
      live.svc->Run(w);
    } catch (const pmsim::CrashPointReached&) {
      fired = true;
    }
    stream_s = s.End();
  }
  double ref_mid = RefTime(out);
  rt.device().SetCrashInjector(nullptr);
  if (!fired) {
    out.Fail("the stream ended after " + std::to_string(injector.fences_observed()) +
             " fences, before crash fence " + std::to_string(c.crash_fence));
  }
  // Run() unwound mid-stream: read what it recorded before the crash.
  metrics::MetricsSnapshot snap = metrics::Snapshot();
  metrics::SetEnabled(false);
  pmsim::StatsSnapshot delta = rt.device().stats().Snapshot().Delta(stats_before);
  ScopeTable scope_after = ScopeTable::Read();
  TreeCounters after = ReadTrees(trees);
  pmsim::PmDevice::XpBufferTotals xb_after = rt.device().SampleXpBuffers();
  uint64_t completed = 0;
  for (int k = 0; k < metrics::kNumOpKinds; k++) {
    completed += snap.op_virtual[k].Count();
  }
  LatencyMetrics(snap, out);
  PmsimMetrics(delta, completed,
               Ratio(static_cast<double>(xb_after.evictions - xb_before.evictions),
                     static_cast<double>(xb_after.insertions - xb_before.insertions)),
               DimmBusyFrac(rt.device(), delta, rt.device().MaxContextClockNs()), out);
  CoreMetrics(before, after, completed, snap.virt(metrics::OpKind::kLookup).Count(), out);
  ScopeMetrics(scope_before, scope_after, completed, out);

  // Acked writes and shard placement, taken before the service goes away.
  std::map<uint64_t, uint64_t> acked = live.svc->acked();

  // Torn crash while the shard contexts still hold their pending lines.
  {
    Span s(tr, "crash_torn", &rt.device());
    rt.device().CrashTorn(c.seed);
    double crash_s = s.End();
    measured_s += crash_s;
    out.Wall("pmsim.crash_wall_ms", crash_s * 1e3, "ms");
  }
  // Placement of every key under the dead service's partition function,
  // taken while it is alive; the audit looks each key up in its own shard.
  std::map<uint64_t, int> shard_by_key;
  for (const auto& kv : acked) {
    shard_by_key[kv.first] = live.svc->ShardOf(kv.first);
  }
  for (uint64_t i = 0; i < c.warm_keys; i++) {
    uint64_t key = service::ServiceWarmKey(i);
    if (Sampled(key)) {
      shard_by_key[key] = live.svc->ShardOf(key);
    }
  }
  live.svc.reset();

  double restart_s = 0;
  {
    Span s(tr, "reopen", &rt.device());
    std::string error;
    bool ok = rt.Reopen(&error);
    double reopen_s = s.End();
    restart_s += reopen_s;
    out.Wall("pmem.reopen_wall_ms", reopen_s * 1e3, "ms");
    if (!ok) {
      out.Fail("Reopen failed: " + error);
      return;
    }
  }
  // A restarted machine starts with idle DIMM queues and fresh clocks, as
  // bench_fig17_recovery models it; recover_ms then counts recovery alone.
  rt.device().ResetCosts();
  std::vector<std::unique_ptr<core::CclBTree>> recovered;
  std::vector<core::CclBTree*> rtrees;
  double shard_max_s = 0;
  uint64_t modeled_ns = 0;
  for (int s = 0; s < kShards; s++) {
    Span sp(tr, "recover_shard", &rt.device());
    core::TreeOptions options;
    options.root_slot = s;  // shard s persists its root in app-root slot s
    auto tree = std::make_unique<core::CclBTree>(rt, options, kvindex::Lifecycle::kAttach);
    bool ok = tree->Recover(rt, kRecoveryThreads);
    double shard_s = sp.End();
    restart_s += shard_s;
    shard_max_s = std::max(shard_max_s, shard_s);
    if (!ok) {
      out.Fail("Recover failed on shard " + std::to_string(s));
      return;
    }
    modeled_ns += tree->last_recovery_modeled_ns();
    rtrees.push_back(tree.get());
    recovered.push_back(std::move(tree));
  }
  measured_s += restart_s;
  out.Virt("recover_ms", static_cast<double>(modeled_ns) / 1e6, "ms", kShards);
  out.Wall("recover_wall_ms", restart_s * 1e3, "ms");
  out.Wall("core.recover_shard_wall_ms_max", shard_max_s * 1e3, "ms");

  // Audit: every acked write, sampled warm keys, invariants, full scan.
  Span audit(tr, "audit", &rt.device());
  uint64_t failed_before = out.failed;
  pmsim::ThreadContext check_ctx(rt.device(), /*socket=*/0, kCheckWorker);
  CheckInvariants(rtrees, out);
  auto tree_of = [&](uint64_t key) -> core::CclBTree& {
    return *rtrees[static_cast<size_t>(shard_by_key.at(key))];
  };
  uint64_t checked = 0;
  uint64_t acked_writes = acked.size();
  for (const auto& [key, value] : acked) {
    uint64_t v = 0;
    if (!LookupIn(tree_of(key), key, &v)) {
      out.Fail("acked write lost");
    } else if (v != value) {
      out.Fail("acked write reads a stale value");
    }
    checked++;
  }
  checked += CheckWarmSample(c, {}, tree_of, out);  // the stream only inserts fresh keys
  uint64_t live_keys = ScanAndFootprint(rtrees, nullptr, c, out);
  checked += live_keys;
  if (live_keys < c.warm_keys + acked_writes) {
    out.Fail("fewer live keys than warm keys plus acked inserts");
  }
  uint64_t bad = out.failed - failed_before;
  double audit_s = audit.End();
  measured_s += audit_s;
  out.Wall("verify.wall_ms", audit_s * 1e3, "ms");
  out.Virt("verify.keys_checked", static_cast<double>(checked), "count");
  out.Virt("fail_frac", Ratio(static_cast<double>(bad), static_cast<double>(acked_writes)), "frac",
           acked_writes);
  double ref_after = RefTime(out);
  double kops = static_cast<double>(completed) / 1e3;
  // The stream and the rest are scaled each by the references around it.
  out.Wall("wall_kops",
           kops / (AtRefSpeed(stream_s, live.ref_s, ref_mid) +
                   AtRefSpeed(measured_s, ref_mid, ref_after)),
           "kop/s", completed);
  out.Wall("host.raw_wall_kops", kops / (stream_s + measured_s), "kop/s", completed);
  out.Wall("trace.overhead_frac", 0, "frac");
  out.attempted += acked_writes;

  // Service-layer metrics of the stream that only a completed Run() reports.
  out.Virt("service.batch_fill", 0, "ops/batch");
  out.Virt("service.max_qdepth", 0, "count");
  out.Virt("service.shed", 0, "count");
  out.Virt("service.shard_skew", 0, "ratio");
  out.Wall("service.self_wall_ms", 0, "ms");
  out.Virt("service.stall_epochs", 0, "count");
  out.Virt("service.stall_epochs_gc", 0, "count");
}

// ---------------------------------------------------------------------------
// Aggregation over units and output.
// ---------------------------------------------------------------------------

struct Final {
  std::map<std::string, Metric> m;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<std::string> notes;
};

// A wall metric over the samples of every unit: the value is the median
// (`median`) or the best of the first `wall_units` units' samples, `samples`
// counts those, and `values` lists all of them in order, the later units'
// too. The metrics scaled to the reference host speed, ratios and the
// reference time itself take the median; the raw times take the best
// sample, which varied less across seeds than their median did on a shared
// host whose speed drifts (README.md, "Wall estimator").
Metric WallOver(const std::vector<std::vector<double>>& per_unit, size_t wall_units,
                const std::string& unit, bool median) {
  Metric m{0, unit, ClockKind::kWall, 0, {}};
  std::vector<double> used;
  for (size_t i = 0; i < per_unit.size(); i++) {
    if (i < wall_units) {
      used.insert(used.end(), per_unit[i].begin(), per_unit[i].end());
    }
    m.values.insert(m.values.end(), per_unit[i].begin(), per_unit[i].end());
  }
  m.value = median ? Median(used) : Best(used, unit == "kop/s");
  m.samples = used.size();
  return m;
}

// Virtual metrics come from unit 0 and must repeat exactly in every later
// unit that measures them; wall metrics come from WallOver (set-up ones over
// every set-up of a unit).
Final Aggregate(const std::vector<UnitOut>& units, size_t wall_units) {
  Final f;
  const UnitOut& first = units[0];
  f.attempted = first.attempted;
  for (const UnitOut& u : units) {
    f.failed = std::max(f.failed, u.failed);
    for (const std::string& e : u.errors) {
      if (std::find(f.errors.begin(), f.errors.end(), e) == f.errors.end()) {
        f.errors.push_back(e);
      }
    }
    for (const std::string& n : u.notes) {
      if (std::find(f.notes.begin(), f.notes.end(), n) == f.notes.end()) {
        f.notes.push_back(n);
      }
    }
  }
  for (const auto& [name, metric] : first.m) {
    Metric out = metric;
    // One entry per unit that measured the metric.
    std::vector<std::vector<double>> values;
    for (const UnitOut& u : units) {
      auto it = u.m.find(name);
      if (it != u.m.end()) {
        values.push_back({it->second.value});
      }
    }
    if (metric.clock == ClockKind::kWall) {
      out = WallOver(values, wall_units, metric.unit,
                     name == "trace.overhead_frac" || name == "wall_kops");
    } else {
      for (size_t i = 1; i < values.size(); i++) {
        if (values[i][0] != metric.value) {
          f.failed++;
          f.errors.push_back("virtual metric " + name + " differs between units of one seed");
          break;
        }
      }
    }
    f.m[name] = out;
  }
  std::vector<std::vector<double>> setup_s, warm_s, ctor_ms, ref_ms;
  for (const UnitOut& u : units) {
    setup_s.push_back(u.setup_s);
    warm_s.push_back(u.warm_s);
    ctor_ms.push_back(u.ctor_ms);
    ref_ms.emplace_back();
    for (double r : u.ref_s) {
      ref_ms.back().push_back(r * 1e3);
    }
  }
  f.m["setup_s"] = WallOver(setup_s, wall_units, "s", true);
  f.m["host.ref_ms"] = WallOver(ref_ms, wall_units, "ms", true);
  f.m["setup.warm_s"] = WallOver(warm_s, wall_units, "s", false);
  f.m["pmem.runtime_ctor_ms"] = WallOver(ctor_ms, wall_units, "ms", false);
  for (auto& [name, metric] : f.m) {
    if (!std::isfinite(metric.value)) {
      f.errors.push_back("metric " + name + " is not a finite number");
      f.failed++;
      metric.value = 0;
    }
  }
  return f;
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char ch : s) {
    if (ch == '"' || ch == '\\') {
      out += '\\';
    }
    out += (static_cast<unsigned char>(ch) < 0x20) ? ' ' : ch;
  }
  return out + "\"";
}

std::string JsonNumber(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

const char* ClockName(ClockKind k) { return k == ClockKind::kWall ? "wall" : "virtual"; }

bool WriteFile(const std::string& path, const std::string& body) {
  std::ofstream f(path);
  f << body;
  return static_cast<bool>(f);
}

std::string ReportJson(const Config& c, const Final& f, size_t units) {
  std::string j = "{\"workload\": " + JsonString(c.workload) +
                  ", \"seed\": " + std::to_string(c.seed) +
                  ", \"trace\": " + (c.trace ? "true" : "false") +
                  ", \"units\": " + std::to_string(units) +
                  ", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
                  ", \"pool_bytes\": " + std::to_string(c.pool_bytes) +
                  ", \"correct\": " + (f.failed == 0 ? "true" : "false") +
                  ", \"attempted\": " + std::to_string(f.attempted) +
                  ", \"failed\": " + std::to_string(f.failed) + ", \"errors\": [";
  for (size_t i = 0; i < f.errors.size(); i++) {
    j += (i == 0 ? "" : ", ") + JsonString(f.errors[i]);
  }
  j += "], \"notes\": [";
  for (size_t i = 0; i < f.notes.size(); i++) {
    j += (i == 0 ? "" : ", ") + JsonString(f.notes[i]);
  }
  j += "], \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : f.m) {
    j += std::string(first ? "" : ", ") + JsonString(name) + ": {\"value\": " +
         JsonNumber(m.value) + ", \"unit\": " + JsonString(m.unit) +
         ", \"clock\": " + JsonString(ClockName(m.clock)) +
         ", \"samples\": " + std::to_string(m.samples);
    if (!m.values.empty()) {
      j += ", \"values\": [";
      for (size_t i = 0; i < m.values.size(); i++) {
        j += (i == 0 ? "" : ", ") + JsonNumber(m.values[i]);
      }
      j += "]";
    }
    j += "}";
    first = false;
  }
  return j + "}}\n";
}

// Traced-run files: every span with its counter deltas, the self time per
// span name, and the per-layer table keyed by metric name.
bool WriteTraceFiles(const Config& c, const Final& f, const Tracer& tracer) {
  const std::vector<SpanRecord>& spans = tracer.spans();
  std::vector<double> child_s(spans.size() + 1, 0);
  for (const SpanRecord& s : spans) {
    child_s[s.parent] += s.end_s - s.start_s;
  }
  std::string run_id = c.workload + "/seed" + std::to_string(c.seed);
  std::string j = "[\n";
  struct Self {
    uint64_t count = 0;
    double total_s = 0;
    double self_s = 0;
  };
  std::map<std::string, Self> by_name;
  for (size_t i = 0; i < spans.size(); i++) {
    const SpanRecord& s = spans[i];
    double dur = s.end_s - s.start_s;
    double self = dur - child_s[s.id];
    Self& agg = by_name[s.name];
    agg.count++;
    agg.total_s += dur;
    agg.self_s += self;
    j += "  {\"run\": " + JsonString(run_id) + ", \"unit\": " + std::to_string(s.unit) +
         ", \"id\": " + std::to_string(s.id) + ", \"parent\": " + std::to_string(s.parent) +
         ", \"name\": " + JsonString(s.name) + ", \"start_s\": " + JsonNumber(s.start_s) +
         ", \"end_s\": " + JsonNumber(s.end_s) + ", \"self_s\": " + JsonNumber(self);
    if (s.has_counters) {
      const pmsim::StatsSnapshot& d = s.delta;
      j += ", \"counters\": {\"user_bytes\": " + std::to_string(d.user_bytes) +
           ", \"media_write_bytes\": " + std::to_string(d.media_write_bytes) +
           ", \"media_read_bytes\": " + std::to_string(d.media_read_bytes) +
           ", \"line_flushes\": " + std::to_string(d.line_flushes) +
           ", \"fences\": " + std::to_string(d.fences) +
           ", \"pm_reads\": " + std::to_string(d.pm_reads) +
           ", \"pm_read_hits\": " + std::to_string(d.pm_read_hits) + "}";
    }
    j += i + 1 == spans.size() ? "}\n" : "},\n";
  }
  j += "]\n";
  std::string self_tsv = "span\tcount\ttotal_s\tself_s\n";
  for (const auto& [name, agg] : by_name) {
    self_tsv += name + "\t" + std::to_string(agg.count) + "\t" + JsonNumber(agg.total_s) + "\t" +
                JsonNumber(agg.self_s) + "\n";
  }
  std::string layers = "metric\tlayer\tvalue\tunit\tclock\tsamples\n";
  for (const auto& [name, m] : f.m) {
    size_t dot = name.find('.');
    std::string layer = dot == std::string::npos ? "end_to_end" : name.substr(0, dot);
    layers += name + "\t" + layer + "\t" + JsonNumber(m.value) + "\t" + m.unit + "\t" +
              ClockName(m.clock) + "\t" + std::to_string(m.samples) + "\n";
  }
  std::printf("\nspan self time (wall, summed over %s units):\n%s", "all", self_tsv.c_str());
  return WriteFile(c.out_dir + "/spans.json", j) &&
         WriteFile(c.out_dir + "/span_self.tsv", self_tsv) &&
         WriteFile(c.out_dir + "/layers.tsv", layers);
}

void PrintTable(const Config& c, const Final& f, size_t units) {
  std::printf("perfbench %s seed=%" PRIu64 " trace=%d units=%zu nproc=%u pool_bytes=%" PRIu64
              "\n",
              c.workload.c_str(), c.seed, c.trace ? 1 : 0, units,
              std::thread::hardware_concurrency(), c.pool_bytes);
  std::printf("  open loop in virtual time: arrivals are never late (generator lag 0)\n");
  std::printf("  %-34s %16s  %-9s %-7s %s\n", "metric", "value", "unit", "clock", "samples");
  for (const auto& [name, m] : f.m) {
    std::printf("  %-34s %16.6g  %-9s %-7s %" PRIu64 "\n", name.c_str(), m.value, m.unit.c_str(),
                ClockName(m.clock), m.samples);
  }
  for (const std::string& n : f.notes) {
    std::printf("  note: %s\n", n.c_str());
  }
  for (const std::string& e : f.errors) {
    std::printf("  CHECK FAILED: %s\n", e.c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  double origin = WallNowS();
  Config c = ConfigFrom(ParseArgs(argc, argv));
  std::error_code ec;
  std::filesystem::create_directories(c.out_dir, ec);
  if (ec) {
    std::fprintf(stderr, "perfbench: cannot create %s\n", c.out_dir.c_str());
    return 2;
  }
  Tracer tracer(origin);
  trace::SetScopeTiming(c.trace);

  std::vector<UnitOut> units;
  while (true) {
    tracer.set_unit(static_cast<int>(units.size()));
    UnitOut out;
    out.index = static_cast<int>(units.size());
    double unit_s = 0;
    {
      Span unit_span(tracer, "unit");
      if (c.crash) {
        RunCrashUnit(c, tracer, out);
      } else {
        RunServiceUnit(c, tracer, out);
      }
      unit_s = unit_span.End();
    }
    units.push_back(std::move(out));
    // Start another unit only while it fits in the budget, but run at least
    // the units the wall metrics are taken from.
    if (units.size() >= c.wall_units && WallNowS() - origin + unit_s > c.seconds) {
      break;
    }
  }
  trace::SetScopeTiming(false);

  Final f = Aggregate(units, c.wall_units);
  PrintTable(c, f, units.size());
  bool written = WriteFile(c.out_dir + "/report.json", ReportJson(c, f, units.size()));
  if (c.trace) {
    written = WriteTraceFiles(c, f, tracer) && written;
  }
  if (!written) {
    std::fprintf(stderr, "perfbench: cannot write to %s\n", c.out_dir.c_str());
    return 2;
  }
  return f.failed == 0 ? 0 : 1;
}
