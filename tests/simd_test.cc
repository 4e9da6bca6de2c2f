// Property tests for the runtime-dispatched SIMD primitives (DESIGN.md §12).
//
// The contract under test: for identical inputs, every dispatch level
// (scalar / SSE2 / AVX2, up to what the host supports) returns identical
// results, so query results can never depend on the ISA the build ran on.
// Inputs deliberately cover the awkward cases: duplicate fingerprints,
// fence entries (valid slots with value 0), keys of 0 and ~0ULL, every
// occupancy level 0..14, odd slot counts, and unsorted key arrays.
#include <algorithm>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "src/common/env.h"
#include "src/common/fingerprint.h"
#include "src/common/rng.h"
#include "src/common/simd.h"
#include "src/core/leaf_node.h"

namespace cclbt {
namespace {

using simd::Level;

// Pins a dispatch level for the duration of a scope and always restores
// auto-detection, even if an assertion fires.
class LevelGuard {
 public:
  explicit LevelGuard(Level level) { simd::ForceLevel(level); }
  ~LevelGuard() { simd::ClearForce(); }
};

std::vector<Level> TestableLevels() {
  std::vector<Level> levels;
  for (int l = 0; l <= static_cast<int>(simd::MaxSupportedLevel()); l++) {
    levels.push_back(static_cast<Level>(l));
  }
  return levels;
}

// A 14-bit validity mask with the requested popcount, set bits chosen
// pseudo-randomly.
uint32_t RandomMask(Rng& rng, int popcount) {
  uint32_t mask = 0;
  while (__builtin_popcount(mask) < popcount) {
    mask |= 1u << rng.NextBounded(14);
  }
  return mask;
}

// CCL_SIMD through the environment parser (src/common/env.h): the level
// value DetectLevel caps detection at, -1 for auto-detection.
TEST(SimdDispatch, ParseLevelOverride) {
  auto parse = [](const char* value) {
    return env::Parse([value](const char* name) {
      return std::string_view(name) == "CCL_SIMD" ? value : nullptr;
    });
  };
  EXPECT_EQ(parse(nullptr).snapshot.simd_level, -1);
  EXPECT_EQ(parse("").snapshot.simd_level, -1);
  EXPECT_EQ(parse("off").snapshot.simd_level, static_cast<int>(Level::kScalar));
  EXPECT_EQ(parse("scalar").snapshot.simd_level, static_cast<int>(Level::kScalar));
  EXPECT_EQ(parse("0").snapshot.simd_level, static_cast<int>(Level::kScalar));
  EXPECT_EQ(parse("sse2").snapshot.simd_level, static_cast<int>(Level::kSse2));
  EXPECT_EQ(parse("avx2").snapshot.simd_level, static_cast<int>(Level::kAvx2));
  // An unknown level is an error, not a silent fall back to detection.
  env::ParseResult bad = parse("banana");
  EXPECT_NE(bad.error.find("CCL_SIMD"), std::string::npos) << bad.error;
  EXPECT_NE(bad.error.find("avx2"), std::string::npos) << bad.error;
}

TEST(SimdDispatch, ForceLevelClampsToHardware) {
  {
    LevelGuard guard(Level::kAvx2);  // clamped if the host lacks AVX2
    EXPECT_LE(static_cast<int>(simd::ActiveLevel()),
              static_cast<int>(simd::MaxSupportedLevel()));
  }
  {
    LevelGuard guard(Level::kScalar);
    EXPECT_EQ(simd::ActiveLevel(), Level::kScalar);
  }
}

TEST(SimdProperty, FpMatch16AllLevelsAgree) {
  Rng rng(101);
  for (int iter = 0; iter < 5000; iter++) {
    uint8_t fps[16];
    for (auto& b : fps) {
      // Narrow byte range so duplicate fingerprints are common.
      b = static_cast<uint8_t>(rng.NextBounded(8));
    }
    uint8_t probe = static_cast<uint8_t>(rng.NextBounded(10));  // sometimes absent
    uint32_t valid = RandomMask(rng, static_cast<int>(rng.NextBounded(15)));
    uint32_t want = simd::FpMatch16Scalar(fps, probe, valid);
    EXPECT_EQ(want & ~valid, 0u);
    for (Level level : TestableLevels()) {
      LevelGuard guard(level);
      EXPECT_EQ(simd::FpMatch16(fps, probe, valid), want)
          << "level=" << simd::LevelName(level) << " iter=" << iter;
    }
  }
}

TEST(SimdProperty, KeyMatchStride2AllLevelsAgree) {
  Rng rng(202);
  for (int iter = 0; iter < 3000; iter++) {
    // Exercise every slot count the callers use: PmLeaf (14) and BufferNode
    // nbatch values, odd counts included (the SIMD tails differ).
    for (int nslots = 1; nslots <= 14; nslots++) {
      uint64_t pairs[2 * 14];
      for (int i = 0; i < 2 * nslots; i++) {
        // Small key space forces duplicates; value words (odd indices) get
        // the same treatment and must never influence the match.
        pairs[i] = rng.NextBounded(6);
      }
      // Fence-entry shape: some keys present with value 0, and key 0 itself
      // (the BufferNode empty-slot sentinel) as a probe target.
      uint64_t probe = rng.NextBounded(6);
      uint32_t valid = static_cast<uint32_t>(rng.Next()) & ((1u << nslots) - 1);
      uint32_t want = simd::KeyMatchStride2Scalar(pairs, nslots, probe, valid);
      for (Level level : TestableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::KeyMatchStride2(pairs, nslots, probe, valid), want)
            << "level=" << simd::LevelName(level) << " nslots=" << nslots << " iter=" << iter;
      }
    }
  }
}

TEST(SimdProperty, KeyMatchStride2ExtremeKeys) {
  // 0 and ~0ULL keys plus probes near the sign boundary (the AVX2 path
  // compares via sign-biased signed compares).
  const uint64_t specials[] = {0,       1,       0x7FFFFFFFFFFFFFFFULL,
                               1ULL << 63, ~0ULL - 1, ~0ULL};
  for (int nslots : {1, 2, 3, 6, 7, 14}) {
    uint64_t pairs[2 * 14] = {};
    for (int i = 0; i < nslots; i++) {
      pairs[2 * i] = specials[i % 6];
      pairs[2 * i + 1] = specials[(i + 3) % 6];  // values must be ignored
    }
    uint32_t valid = (1u << nslots) - 1;
    for (uint64_t probe : specials) {
      uint32_t want = simd::KeyMatchStride2Scalar(pairs, nslots, probe, valid);
      for (Level level : TestableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::KeyMatchStride2(pairs, nslots, probe, valid), want)
            << "level=" << simd::LevelName(level) << " nslots=" << nslots << " probe=" << probe;
      }
    }
  }
}

TEST(SimdProperty, CountLessAndLessEqAllLevelsAgree) {
  Rng rng(303);
  for (int iter = 0; iter < 2000; iter++) {
    int n = static_cast<int>(rng.NextBounded(64));  // 0..63 covers inner fanout
    std::vector<uint64_t> keys(static_cast<size_t>(n));
    for (auto& k : keys) {
      k = rng.NextBounded(40);  // duplicates guaranteed
    }
    std::sort(keys.begin(), keys.end());
    // Probe exact elements, neighbors, and extremes.
    std::vector<uint64_t> probes = {0, 39, ~0ULL, rng.NextBounded(41)};
    if (n > 0) {
      uint64_t mid = keys[static_cast<size_t>(n) / 2];
      probes.push_back(mid);
      probes.push_back(mid + 1);
      probes.push_back(mid == 0 ? 0 : mid - 1);
    }
    for (uint64_t probe : probes) {
      int want_less = simd::CountLessScalar(keys.data(), n, probe);
      int want_lesseq = simd::CountLessEqScalar(keys.data(), n, probe);
      // Cross-check against the STL on the sorted array.
      EXPECT_EQ(want_less,
                static_cast<int>(std::lower_bound(keys.begin(), keys.end(), probe) - keys.begin()));
      EXPECT_EQ(want_lesseq,
                static_cast<int>(std::upper_bound(keys.begin(), keys.end(), probe) - keys.begin()));
      for (Level level : TestableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::CountLess(keys.data(), n, probe), want_less)
            << "level=" << simd::LevelName(level) << " n=" << n << " probe=" << probe;
        EXPECT_EQ(simd::CountLessEq(keys.data(), n, probe), want_lesseq)
            << "level=" << simd::LevelName(level) << " n=" << n << " probe=" << probe;
      }
    }
  }
}

TEST(SimdProperty, CountLessSignBoundary) {
  // Keys straddling 2^63: a naive signed compare would order them wrong.
  std::vector<uint64_t> keys = {0, 1, (1ULL << 63) - 1, 1ULL << 63, (1ULL << 63) + 1, ~0ULL};
  while (keys.size() < 9) {  // odd count exercises the AVX2 tail
    keys.push_back(~0ULL);
  }
  const uint64_t boundary_probes[] = {0, (1ULL << 63) - 1, 1ULL << 63, ~0ULL};
  for (uint64_t probe : boundary_probes) {
    int n = static_cast<int>(keys.size());
    int want_less = simd::CountLessScalar(keys.data(), n, probe);
    int want_lesseq = simd::CountLessEqScalar(keys.data(), n, probe);
    for (Level level : TestableLevels()) {
      LevelGuard guard(level);
      EXPECT_EQ(simd::CountLess(keys.data(), n, probe), want_less);
      EXPECT_EQ(simd::CountLessEq(keys.data(), n, probe), want_lesseq);
    }
  }
}

TEST(SimdProperty, MinKeyStride2AllLevelsAgree) {
  Rng rng(404);
  for (int iter = 0; iter < 5000; iter++) {
    uint64_t pairs[2 * 14];
    for (auto& word : pairs) {
      switch (rng.NextBounded(4)) {
        case 0:
          word = 0;  // fence-entry keys/values
          break;
        case 1:
          word = ~0ULL;
          break;
        default:
          word = rng.Next();
      }
    }
    for (int popcount = 0; popcount <= 14; popcount++) {
      uint32_t valid = RandomMask(rng, popcount);
      uint64_t want = simd::MinKeyStride2Scalar(pairs, valid);
      // Independent naive check of the scalar reference itself.
      uint64_t naive = ~0ULL;
      for (int slot = 0; slot < 14; slot++) {
        if ((valid >> slot) & 1) {
          naive = std::min(naive, pairs[2 * slot]);
        }
      }
      ASSERT_EQ(want, naive);
      for (Level level : TestableLevels()) {
        LevelGuard guard(level);
        EXPECT_EQ(simd::MinKeyStride2(pairs, 14, valid), want)
            << "level=" << simd::LevelName(level) << " valid=" << valid << " iter=" << iter;
      }
    }
  }
}

// End-to-end: a populated PmLeaf answers FindSlot/MinKey/LiveCount
// identically at every dispatch level, including under fingerprint
// collisions (all fingerprints forced equal → every valid slot is a
// candidate and only the key compare disambiguates).
TEST(SimdLeaf, PmLeafProbesAgreeAcrossLevels) {
  Rng rng(505);
  for (int iter = 0; iter < 300; iter++) {
    alignas(256) core::PmLeaf leaf = {};
    int occupancy = static_cast<int>(rng.NextBounded(15));
    uint32_t valid = RandomMask(rng, occupancy);
    std::vector<uint64_t> present;
    for (int slot = 0; slot < core::kLeafSlots; slot++) {
      if (!((valid >> slot) & 1)) {
        continue;
      }
      uint64_t key = rng.Next() | 1;  // nonzero
      if (iter % 2 == 0) {
        // Collision half: rejection-sample keys that all share one
        // fingerprint byte, so every valid slot is a candidate and only the
        // key compare disambiguates.
        while (Fingerprint8(key) != 0x5A) {
          key = rng.Next() | 1;
        }
      }
      leaf.kvs[slot].key = key;
      leaf.fingerprints[slot] = Fingerprint8(key);
      leaf.kvs[slot].value = rng.NextBounded(3) == 0 ? 0 : rng.Next() | 1;  // some fence entries
      present.push_back(key);
    }
    leaf.meta.store(core::MakeMeta(valid, 0), std::memory_order_relaxed);

    // Baseline answers at scalar level.
    std::vector<int> want_slots;
    uint64_t want_min;
    bool want_found;
    int want_live;
    {
      LevelGuard guard(Level::kScalar);
      for (uint64_t key : present) {
        want_slots.push_back(leaf.FindSlot(key));
      }
      want_min = leaf.MinKey(&want_found);
      want_live = leaf.LiveCount();
    }
    for (Level level : TestableLevels()) {
      LevelGuard guard(level);
      for (size_t i = 0; i < present.size(); i++) {
        int slot = leaf.FindSlot(present[i]);
        EXPECT_EQ(slot, want_slots[i]) << "level=" << simd::LevelName(level);
        ASSERT_GE(slot, 0);
        EXPECT_EQ(leaf.kvs[slot].key, present[i]);
      }
      EXPECT_EQ(leaf.FindSlot(rng.Next() | (1ULL << 62)), -1);  // absent key
      bool found = false;
      EXPECT_EQ(leaf.MinKey(&found), want_min) << "level=" << simd::LevelName(level);
      EXPECT_EQ(found, want_found);
      EXPECT_EQ(leaf.LiveCount(), want_live);
    }
  }
}

TEST(SimdLeaf, EmptyLeafMinKeyNotFound) {
  alignas(256) core::PmLeaf leaf = {};
  leaf.meta.store(core::MakeMeta(0, 0), std::memory_order_relaxed);
  for (Level level : TestableLevels()) {
    LevelGuard guard(level);
    bool found = true;
    EXPECT_EQ(leaf.MinKey(&found), ~0ULL);
    EXPECT_FALSE(found);
  }
}

}  // namespace
}  // namespace cclbt
