// Unit tests for the workload & measurement toolkit (src/common).
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <set>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/env.h"
#include "src/common/fingerprint.h"
#include "src/common/keyspace.h"
#include "src/common/ordo.h"
#include "src/common/rng.h"
#include "src/common/ycsb.h"
#include "src/common/zipfian.h"

namespace cclbt {
namespace {

TEST(Rng, DeterministicAcrossInstances) {
  Rng a(42);
  Rng b(42);
  for (int i = 0; i < 1000; i++) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 100; i++) {
    if (a.Next() == b.Next()) {
      same++;
    }
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, BoundedStaysInBounds) {
  Rng rng(7);
  for (int i = 0; i < 10000; i++) {
    EXPECT_LT(rng.NextBounded(17), 17u);
  }
}

TEST(Rng, DoubleInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 10000; i++) {
    double d = rng.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Rng, Mix64IsBijectiveOnSample) {
  std::set<uint64_t> outputs;
  for (uint64_t i = 0; i < 10000; i++) {
    outputs.insert(Mix64(i));
  }
  EXPECT_EQ(outputs.size(), 10000u);
}

TEST(Zipfian, RankZeroIsHottest) {
  ZipfianGenerator zipf(1000000, 0.9, 3);
  std::map<uint64_t, int> counts;
  for (int i = 0; i < 100000; i++) {
    counts[zipf.NextRank()]++;
  }
  // Rank 0 must be sampled far more than a uniform share.
  EXPECT_GT(counts[0], 100000 / 1000);
}

TEST(Zipfian, SkewIncreasesHeadMass) {
  auto head_mass = [](double theta) {
    ZipfianGenerator zipf(100000, theta, 5);
    int head = 0;
    for (int i = 0; i < 50000; i++) {
      if (zipf.NextRank() < 100) {
        head++;
      }
    }
    return head;
  };
  EXPECT_LT(head_mass(0.5), head_mass(0.99));
}

TEST(Zipfian, RanksWithinRange) {
  ZipfianGenerator zipf(5000, 0.99, 11);
  for (int i = 0; i < 100000; i++) {
    EXPECT_LT(zipf.NextRank(), 5000u);
  }
}

TEST(Zipfian, ScrambledSpreadsHotKeys) {
  ZipfianGenerator zipf(1 << 20, 0.9, 13);
  // The two hottest scrambled keys should not be adjacent.
  uint64_t k0 = zipf.Scramble(0);
  uint64_t k1 = zipf.Scramble(1);
  EXPECT_GT(std::max(k0, k1) - std::min(k0, k1), 1u);
}

// Histogram tests live in tests/metrics_test.cc: the one log-bucketed
// histogram implementation moved to src/metrics/histogram.h.

TEST(Ordo, MonotonicWithinSocket) {
  OrdoClock clock(100);
  uint64_t prev = 0;
  for (int i = 0; i < 1000; i++) {
    uint64_t now = clock.Now(0);
    EXPECT_GT(now, prev);
    prev = now;
  }
}

TEST(Ordo, CompareRespectsBoundary) {
  OrdoClock clock(1000);
  EXPECT_EQ(clock.Compare(5000, 1000), 1);
  EXPECT_EQ(clock.Compare(1000, 5000), -1);
  EXPECT_EQ(clock.Compare(1000, 1500), 0);  // within uncertainty
}

TEST(Ordo, NowAfterBoundaryOrdersGlobally) {
  OrdoClock clock(1000);
  uint64_t t1 = clock.Now(1);
  uint64_t t2 = clock.NowAfterBoundary(0);
  EXPECT_EQ(clock.Compare(t2, t1), 1);
}

TEST(Fingerprint, DeterministicAndSpread) {
  std::set<uint8_t> seen;
  for (uint64_t k = 1; k <= 1000; k++) {
    EXPECT_EQ(Fingerprint8(k), Fingerprint8(k));
    seen.insert(Fingerprint8(k));
  }
  // Sequential keys should cover most of the byte range.
  EXPECT_GT(seen.size(), 200u);
}

TEST(KeyStream, UniformHasNoCollisionsInSpace) {
  KeyStream stream(KeyDistribution::kUniform, 100000);
  std::set<uint64_t> keys;
  for (uint64_t i = 0; i < 100000; i++) {
    keys.insert(stream.Key(i));
  }
  EXPECT_EQ(keys.size(), 100000u);
}

TEST(KeyStream, SequentialIsMonotone) {
  KeyStream stream(KeyDistribution::kSequential, 1000);
  for (uint64_t i = 1; i < 1000; i++) {
    EXPECT_GT(stream.Key(i), stream.Key(i - 1));
  }
}

TEST(KeyStream, ZipfianRepeatsHotKeys) {
  KeyStream stream(KeyDistribution::kZipfian, 1 << 20, 0.99);
  std::map<uint64_t, int> counts;
  for (uint64_t i = 0; i < 100000; i++) {
    counts[stream.Key(i)]++;
  }
  int max_count = 0;
  for (const auto& [key, count] : counts) {
    max_count = std::max(max_count, count);
  }
  EXPECT_GT(max_count, 100);  // hot key dominates
}

class SosdDatasetTest : public ::testing::TestWithParam<SosdDataset> {};

TEST_P(SosdDatasetTest, ExactSizeUniqueNonZero) {
  auto keys = BuildSosdLikeDataset(GetParam(), 50000);
  EXPECT_EQ(keys.size(), 50000u);
  std::set<uint64_t> unique(keys.begin(), keys.end());
  EXPECT_EQ(unique.size(), keys.size());
  EXPECT_EQ(unique.count(0), 0u);
}

TEST_P(SosdDatasetTest, Deterministic) {
  auto a = BuildSosdLikeDataset(GetParam(), 10000, 9);
  auto b = BuildSosdLikeDataset(GetParam(), 10000, 9);
  EXPECT_EQ(a, b);
}

INSTANTIATE_TEST_SUITE_P(AllDatasets, SosdDatasetTest,
                         ::testing::Values(SosdDataset::kAmzn, SosdDataset::kOsm,
                                           SosdDataset::kWiki, SosdDataset::kFacebook),
                         [](const auto& name_info) { return SosdDatasetName(name_info.param); });

TEST(Ycsb, MixFractionsRoughlyRespected) {
  YcsbOpPicker picker(kYcsbInsertIntensive, 17);
  int inserts = 0;
  int reads = 0;
  for (int i = 0; i < 100000; i++) {
    OpType op = picker.Next();
    inserts += op == OpType::kInsert;
    reads += op == OpType::kRead;
  }
  EXPECT_NEAR(inserts / 100000.0, 0.75, 0.02);
  EXPECT_NEAR(reads / 100000.0, 0.25, 0.02);
}

TEST(Ycsb, ScanInsertMix) {
  YcsbOpPicker picker(kYcsbScanInsert, 23);
  int scans = 0;
  for (int i = 0; i < 100000; i++) {
    scans += picker.Next() == OpType::kScan;
  }
  EXPECT_NEAR(scans / 100000.0, 0.95, 0.02);
}

// --- environment parsing (src/common/env.h) ---------------------------------

env::ParseResult ParseEnv(const std::map<std::string, std::string>& vars) {
  return env::Parse([&vars](const char* name) -> const char* {
    auto it = vars.find(name);
    return it == vars.end() ? nullptr : it->second.c_str();
  });
}

TEST(Env, UnsetEnvironmentGivesBuiltInDefaults) {
  env::ParseResult parsed = ParseEnv({});
  EXPECT_EQ(parsed.error, "");
  const env::Snapshot& s = parsed.snapshot;
  EXPECT_EQ(s.backend, env::Backend::kUnset);
  EXPECT_EQ(s.cxl_page, 4096u);
  EXPECT_FALSE(s.pmcheck);
  EXPECT_FALSE(s.lockcheck);
  EXPECT_EQ(s.simd_level, -1);
  EXPECT_FALSE(s.trace);
  EXPECT_EQ(s.dump_prefix, "");
  EXPECT_EQ(s.bench_scale, 0u);
}

TEST(Env, EmptyValueMeansUnset) {
  env::ParseResult parsed = ParseEnv({{"CCL_BACKEND", ""},
                                      {"CCL_CXL_PAGE", ""},
                                      {"CCL_PMCHECK", ""},
                                      {"CCL_LOCKCHECK", ""},
                                      {"CCL_SIMD", ""},
                                      {"CCL_TRACE", ""},
                                      {"CCL_DUMP", ""},
                                      {"CCL_METRICS", ""},
                                      {"CCL_BENCH_SCALE", ""}});
  EXPECT_EQ(parsed.error, "");
  // An empty CCL_DUMP requests no dump (and so no metrics collection) rather
  // than a dump with an empty path; an empty CCL_TRACE no tracing; and an
  // empty retired CCL_METRICS is not an error.
  EXPECT_FALSE(parsed.snapshot.trace);
  EXPECT_EQ(parsed.snapshot.dump_prefix, "");
  EXPECT_EQ(parsed.snapshot.backend, env::Backend::kUnset);
  EXPECT_EQ(parsed.snapshot.bench_scale, 0u);
}

TEST(Env, ParsesEveryVariable) {
  env::ParseResult parsed = ParseEnv({{"CCL_BACKEND", "cxl"},
                                      {"CCL_CXL_PAGE", "1024"},
                                      {"CCL_PMCHECK", "1"},
                                      {"CCL_LOCKCHECK", "1"},
                                      {"CCL_SIMD", "sse2"},
                                      {"CCL_TRACE", "1"},
                                      {"CCL_DUMP", "/tmp/d"},
                                      {"CCL_BENCH_SCALE", "60000"}});
  ASSERT_EQ(parsed.error, "");
  const env::Snapshot& s = parsed.snapshot;
  EXPECT_EQ(s.backend, env::Backend::kCxl);
  EXPECT_EQ(s.cxl_page, 1024u);
  EXPECT_TRUE(s.pmcheck);
  EXPECT_TRUE(s.lockcheck);
  EXPECT_EQ(s.simd_level, 1);
  EXPECT_TRUE(s.trace);
  EXPECT_EQ(s.dump_prefix, "/tmp/d");
  EXPECT_EQ(s.bench_scale, 60000u);

  EXPECT_EQ(ParseEnv({{"CCL_BACKEND", "adr"}}).snapshot.backend, env::Backend::kAdr);
  EXPECT_EQ(ParseEnv({{"CCL_BACKEND", "adr_optane"}}).snapshot.backend, env::Backend::kAdr);
  EXPECT_EQ(ParseEnv({{"CCL_BACKEND", "eadr"}}).snapshot.backend, env::Backend::kEadr);
  EXPECT_EQ(ParseEnv({{"CCL_BACKEND", "cxlmem"}}).snapshot.backend, env::Backend::kCxl);
  EXPECT_FALSE(ParseEnv({{"CCL_PMCHECK", "0"}}).snapshot.pmcheck);
  EXPECT_FALSE(ParseEnv({{"CCL_TRACE", "0"}}).snapshot.trace);
  EXPECT_EQ(ParseEnv({{"CCL_CXL_PAGE", "256"}}).snapshot.cxl_page, 256u);
  EXPECT_EQ(ParseEnv({{"CCL_BENCH_SCALE", "18446744073709551615"}}).snapshot.bench_scale,
            UINT64_MAX);
}

// A malformed value is a hard error that names the variable and the values
// it accepts; none is silently replaced by a default.
TEST(Env, MalformedValueIsAnErrorNamingVariableAndAcceptedValues) {
  struct Case {
    const char* name;
    const char* value;
    const char* accepted;  // a fragment of the accepted-values text
  };
  const Case cases[] = {
      {"CCL_BACKEND", "exadr", "eadr"},
      {"CCL_CXL_PAGE", "1000", "power of two"},
      {"CCL_CXL_PAGE", "8192", "power of two"},
      {"CCL_CXL_PAGE", "128", "power of two"},
      {"CCL_PMCHECK", "yes", "0 | 1"},
      {"CCL_LOCKCHECK", "2", "0 | 1"},
      {"CCL_SIMD", "banana", "avx2"},
      {"CCL_BENCH_SCALE", "-1", "positive"},
      {"CCL_BENCH_SCALE", "0", "positive"},
      {"CCL_BENCH_SCALE", "12k", "positive"},
      {"CCL_BENCH_SCALE", "18446744073709551616", "positive"},
  };
  for (const Case& c : cases) {
    env::ParseResult parsed = ParseEnv({{c.name, c.value}});
    EXPECT_NE(parsed.error.find(c.name), std::string::npos) << c.name << "=" << c.value;
    EXPECT_NE(parsed.error.find(c.value), std::string::npos) << parsed.error;
    EXPECT_NE(parsed.error.find(c.accepted), std::string::npos) << parsed.error;
  }
}

// CCL_TRACE is a 0|1 flag: the old path-prefix form is malformed.
TEST(Env, TracePathPrefixIsRejected) {
  env::ParseResult parsed = ParseEnv({{"CCL_TRACE", "/tmp/t"}, {"CCL_DUMP", "/tmp/d"}});
  EXPECT_NE(parsed.error.find("CCL_TRACE=\"/tmp/t\""), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("0 | 1"), std::string::npos) << parsed.error;
}

// CCL_TRACE=1 alone would trace and then write nothing.
TEST(Env, TraceWithoutDumpIsAnError) {
  env::ParseResult parsed = ParseEnv({{"CCL_TRACE", "1"}});
  EXPECT_NE(parsed.error.find("CCL_TRACE=1"), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("CCL_DUMP"), std::string::npos) << parsed.error;
}

// The retired CCL_METRICS is refused with a pointer to its replacement, even
// next to a valid CCL_DUMP.
TEST(Env, RetiredMetricsVariableNamesItsReplacement) {
  env::ParseResult parsed = ParseEnv({{"CCL_METRICS", "/tmp/m"}, {"CCL_DUMP", "/tmp/d"}});
  EXPECT_NE(parsed.error.find("CCL_METRICS=\"/tmp/m\""), std::string::npos) << parsed.error;
  EXPECT_NE(parsed.error.find("CCL_DUMP"), std::string::npos) << parsed.error;
}

}  // namespace
}  // namespace cclbt
