// Runtime-dispatched SIMD primitives for the index hot paths (DESIGN.md §12).
//
// This header is the ONLY sanctioned home for SIMD intrinsics outside
// src/pmsim/ (tools/lint_pm_api.py rule R5 enforces this). It provides a
// small set of data-parallel probe primitives used by the leaf/buffer-node
// search paths of CCL-BTree and the FPTree/LBTree baselines, plus the
// branchless separator search of the DRAM inner index:
//
//   FpMatch16        16-byte fingerprint compare against a validity bitmap
//   KeyMatchStride2  u64 key compare over {key,value} pairs (16 B stride)
//   CountLess[Eq]    branchless lower/upper bound over contiguous u64 keys
//   MinKeyStride2    branchless min-key over {key,value} pairs + bitmap
//
// Every primitive has an always-compiled scalar fallback (the only path on
// non-x86 builds) and SSE2/AVX2 variants selected once at startup via
// __builtin_cpu_supports. The CCL_SIMD environment variable (src/common/env.h)
// overrides detection: "off"/"scalar" forces the fallback (CI runs tier-1
// this way so the scalar path stays exercised), "sse2"/"avx2" cap the level.
// Tests can pin a level in-process with ForceLevel, which wins over
// CCL_SIMD.
//
// Contract: for identical inputs every variant returns identical results —
// tests/simd_test.cc asserts this property over randomized bitmaps,
// duplicate fingerprints, fence entries and all occupancy levels, so query
// results cannot depend on the host's ISA. None of these primitives touch
// simulated PM accounting; they are pure CPU-side search.
#ifndef SRC_COMMON_SIMD_H_
#define SRC_COMMON_SIMD_H_

#include <atomic>
#include <cstdint>

#if defined(__x86_64__) || defined(__i386__)
#define CCL_SIMD_X86 1
#include <immintrin.h>
#else
#define CCL_SIMD_X86 0
#endif

#include "src/common/env.h"

namespace cclbt::simd {

// True when this build is ThreadSanitizer-instrumented. SIMD loads are plain
// (non-atomic) reads; call sites that probe memory written concurrently
// through std::atomic (DRAM inner nodes, buffer-node slots) take the scalar
// atomic-load path under TSan so the optimistic-read protocol stays visible
// to the race checker instead of hidden behind vector loads.
#if defined(__SANITIZE_THREAD__)
inline constexpr bool kTsanBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer)
inline constexpr bool kTsanBuild = true;
#else
inline constexpr bool kTsanBuild = false;
#endif
#else
inline constexpr bool kTsanBuild = false;
#endif

enum class Level : int {
  kScalar = 0,
  kSse2 = 1,
  kAvx2 = 2,
};

inline const char* LevelName(Level level) {
  switch (level) {
    case Level::kScalar:
      return "scalar";
    case Level::kSse2:
      return "sse2";
    case Level::kAvx2:
      return "avx2";
  }
  return "?";
}

inline Level MaxSupportedLevel() {
#if CCL_SIMD_X86
  if (__builtin_cpu_supports("avx2")) {
    return Level::kAvx2;
  }
  if (__builtin_cpu_supports("sse2")) {
    return Level::kSse2;
  }
#endif
  return Level::kScalar;
}

namespace detail {
// -1 = no in-process override; otherwise the forced Level.
inline std::atomic<int> g_forced_level{-1};

// CCL_SIMD (env::Snapshot::simd_level) caps the detected level.
inline Level DetectLevel() {
  Level max = MaxSupportedLevel();
  int cap = env::Get().simd_level;
  return cap >= 0 && cap < static_cast<int>(max) ? static_cast<Level>(cap) : max;
}
}  // namespace detail

inline Level ActiveLevel() {
  int forced = detail::g_forced_level.load(std::memory_order_relaxed);
  if (forced >= 0) {
    return static_cast<Level>(forced);
  }
  static const Level detected = detail::DetectLevel();
  return detected;
}

// Pins the dispatch level in-process (clamped to hardware support); used by
// tests to exercise every path. ClearForce returns to env/auto detection.
inline void ForceLevel(Level level) {
  Level max = MaxSupportedLevel();
  if (static_cast<int>(level) > static_cast<int>(max)) {
    level = max;
  }
  detail::g_forced_level.store(static_cast<int>(level), std::memory_order_relaxed);
}
inline void ClearForce() { detail::g_forced_level.store(-1, std::memory_order_relaxed); }

// One spin-wait hint (x86 PAUSE). Lives here because simd.h is the one file
// allowed to use raw _mm_* intrinsics; spin loops (BufferNode::Lock, the
// inner index's optimistic retry) pause a few times before yielding so an
// uncontended conflict never costs a syscall.
inline void CpuRelax() {
#if CCL_SIMD_X86
  _mm_pause();
#else
  std::atomic_signal_fence(std::memory_order_seq_cst);  // compiler barrier
#endif
}

// --- scalar reference implementations ---------------------------------------
// Always compiled; the property tests compare every SIMD variant against
// these bit-for-bit.

// Bitmask of slots i (bit i set in `valid`) with fps[i] == fp. `fps` must be
// 16 readable bytes; bits >= 16 of `valid` must be zero.
inline uint32_t FpMatch16Scalar(const uint8_t* fps, uint8_t fp, uint32_t valid) {
  uint32_t out = 0;
  for (uint32_t bits = valid; bits != 0; bits &= bits - 1) {
    int slot = __builtin_ctz(bits);
    if (fps[slot] == fp) {
      out |= 1u << slot;
    }
  }
  return out;
}

// Bitmask of slots i (bit i set in `valid`, i < nslots) with base[2*i] ==
// key. Matches {key,value}-pair layouts: PmLeaf::kvs, BufferNode slots.
inline uint32_t KeyMatchStride2Scalar(const uint64_t* base, int nslots, uint64_t key,
                                      uint32_t valid) {
  uint32_t out = 0;
  for (int slot = 0; slot < nslots; slot++) {
    if (((valid >> slot) & 1) && base[2 * slot] == key) {
      out |= 1u << slot;
    }
  }
  return out;
}

// Number of keys[i] < key (i < n): the lower_bound index when keys is
// sorted. Tolerates unsorted input (optimistic readers may race a shift);
// the result is always in [0, n].
inline int CountLessScalar(const uint64_t* keys, int n, uint64_t key) {
  int count = 0;
  for (int i = 0; i < n; i++) {
    count += keys[i] < key ? 1 : 0;
  }
  return count;
}

// Number of keys[i] <= key (i < n): the upper_bound index when sorted.
inline int CountLessEqScalar(const uint64_t* keys, int n, uint64_t key) {
  int count = 0;
  for (int i = 0; i < n; i++) {
    count += keys[i] <= key ? 1 : 0;
  }
  return count;
}

// Minimum of base[2*i] over slots i set in `valid`; ~0ULL when valid == 0.
inline uint64_t MinKeyStride2Scalar(const uint64_t* base, uint32_t valid) {
  uint64_t min_key = ~0ULL;
  for (uint32_t bits = valid; bits != 0; bits &= bits - 1) {
    int slot = __builtin_ctz(bits);
    uint64_t key = base[2 * slot];
    min_key = key < min_key ? key : min_key;
  }
  return min_key;
}

#if CCL_SIMD_X86
// --- SSE2 variants -----------------------------------------------------------
// SSE2 is baseline on x86_64, so these need no target attribute.

inline uint32_t FpMatch16Sse2(const uint8_t* fps, uint8_t fp, uint32_t valid) {
  __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(fps));
  __m128i eq = _mm_cmpeq_epi8(v, _mm_set1_epi8(static_cast<char>(fp)));
  return static_cast<uint32_t>(_mm_movemask_epi8(eq)) & valid;
}

inline uint32_t KeyMatchStride2Sse2(const uint64_t* base, int nslots, uint64_t key,
                                    uint32_t valid) {
  // SSE2 has no 64-bit compare: compare 32-bit halves and require both.
  __m128i target = _mm_set1_epi64x(static_cast<long long>(key));
  uint32_t out = 0;
  int slot = 0;
  for (; slot + 2 <= nslots; slot += 2) {
    __m128i a = _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + 2 * slot));
    __m128i b = _mm_loadu_si128(reinterpret_cast<const __m128i*>(base + 2 * slot + 2));
    __m128i keys = _mm_unpacklo_epi64(a, b);  // [key_slot, key_slot+1]
    uint32_t mask = static_cast<uint32_t>(_mm_movemask_epi8(_mm_cmpeq_epi32(keys, target)));
    out |= ((mask & 0x00FFu) == 0x00FFu ? 1u : 0u) << slot;
    out |= ((mask & 0xFF00u) == 0xFF00u ? 1u : 0u) << (slot + 1);
  }
  if (slot < nslots && base[2 * slot] == key) {
    out |= 1u << slot;
  }
  return out & valid;
}

// --- AVX2 variants -----------------------------------------------------------
// Compiled with a per-function target attribute so the translation unit
// itself needs no -mavx2; never called unless CPUID reports AVX2.

__attribute__((target("avx2"))) inline uint32_t KeyMatchStride2Avx2(const uint64_t* base,
                                                                    int nslots, uint64_t key,
                                                                    uint32_t valid) {
  __m256i target = _mm256_set1_epi64x(static_cast<long long>(key));
  uint32_t out = 0;
  int slot = 0;
  for (; slot + 2 <= nslots; slot += 2) {  // one 32 B load covers two slots
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + 2 * slot));
    uint32_t mask =
        static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpeq_epi64(v, target))));
    out |= (mask & 1u) << slot;            // lane 0 = key of `slot`
    out |= ((mask >> 2) & 1u) << (slot + 1);  // lane 2 = key of `slot`+1
  }
  if (slot < nslots && base[2 * slot] == key) {
    out |= 1u << slot;
  }
  return out & valid;
}

__attribute__((target("avx2"))) inline int CountLessEqAvx2(const uint64_t* keys, int n,
                                                           uint64_t key) {
  // Unsigned compare via the sign-bias trick: x <=u k  <=>  !((x^S) >s (k^S)).
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  __m256i kb = _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(key)), bias);
  int count = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
                                 bias);
    uint32_t gt =
        static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(v, kb))));
    count += 4 - __builtin_popcount(gt);
  }
  for (; i < n; i++) {
    count += keys[i] <= key ? 1 : 0;
  }
  return count;
}

__attribute__((target("avx2"))) inline int CountLessAvx2(const uint64_t* keys, int n,
                                                         uint64_t key) {
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  __m256i kb = _mm256_xor_si256(_mm256_set1_epi64x(static_cast<long long>(key)), bias);
  int count = 0;
  int i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i v = _mm256_xor_si256(_mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i)),
                                 bias);
    uint32_t lt =
        static_cast<uint32_t>(_mm256_movemask_pd(_mm256_castsi256_pd(_mm256_cmpgt_epi64(kb, v))));
    count += __builtin_popcount(lt);
  }
  for (; i < n; i++) {
    count += keys[i] < key ? 1 : 0;
  }
  return count;
}

__attribute__((target("avx2"))) inline uint64_t MinKeyStride2Avx2(const uint64_t* base,
                                                                  int nslots, uint32_t valid) {
  // Per-pair lane masks: index = validity bits of {slot 2p, slot 2p+1};
  // lanes 1/3 (the values) are never taken.
  const __m256i kPairMask[4] = {
      _mm256_set_epi64x(0, 0, 0, 0),
      _mm256_set_epi64x(0, 0, 0, -1),
      _mm256_set_epi64x(0, -1, 0, 0),
      _mm256_set_epi64x(0, -1, 0, -1),
  };
  const __m256i ones = _mm256_set1_epi64x(-1);
  const __m256i bias = _mm256_set1_epi64x(static_cast<long long>(0x8000000000000000ULL));
  __m256i acc = ones;  // unsigned max
  int slot = 0;
  for (int pair = 0; slot + 2 <= nslots; pair++, slot += 2) {
    __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(base + 2 * slot));
    __m256i masked = _mm256_blendv_epi8(ones, v, kPairMask[(valid >> slot) & 3]);
    __m256i gt = _mm256_cmpgt_epi64(_mm256_xor_si256(acc, bias), _mm256_xor_si256(masked, bias));
    acc = _mm256_blendv_epi8(acc, masked, gt);
  }
  alignas(32) uint64_t lanes[4];
  _mm256_store_si256(reinterpret_cast<__m256i*>(lanes), acc);
  uint64_t min_key = lanes[0] < lanes[2] ? lanes[0] : lanes[2];
  // (lanes 1/3 are UINT64_MAX by construction.)
  if (slot < nslots && ((valid >> slot) & 1)) {
    uint64_t key = base[2 * slot];
    min_key = key < min_key ? key : min_key;
  }
  return min_key;
}
#endif  // CCL_SIMD_X86

// --- dispatched entry points --------------------------------------------------

inline uint32_t FpMatch16(const uint8_t* fps, uint8_t fp, uint32_t valid) {
#if CCL_SIMD_X86
  if (ActiveLevel() != Level::kScalar) {
    return FpMatch16Sse2(fps, fp, valid);  // 16 B: SSE2 already saturates
  }
#endif
  return FpMatch16Scalar(fps, fp, valid);
}

inline uint32_t KeyMatchStride2(const uint64_t* base, int nslots, uint64_t key, uint32_t valid) {
#if CCL_SIMD_X86
  switch (ActiveLevel()) {
    case Level::kAvx2:
      return KeyMatchStride2Avx2(base, nslots, key, valid);
    case Level::kSse2:
      return KeyMatchStride2Sse2(base, nslots, key, valid);
    case Level::kScalar:
      break;
  }
#endif
  return KeyMatchStride2Scalar(base, nslots, key, valid);
}

inline int CountLess(const uint64_t* keys, int n, uint64_t key) {
#if CCL_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    return CountLessAvx2(keys, n, key);
  }
#endif
  return CountLessScalar(keys, n, key);
}

inline int CountLessEq(const uint64_t* keys, int n, uint64_t key) {
#if CCL_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    return CountLessEqAvx2(keys, n, key);
  }
#endif
  return CountLessEqScalar(keys, n, key);
}

inline uint64_t MinKeyStride2(const uint64_t* base, int nslots, uint32_t valid) {
#if CCL_SIMD_X86
  if (ActiveLevel() == Level::kAvx2) {
    return MinKeyStride2Avx2(base, nslots, valid);
  }
#endif
  (void)nslots;
  return MinKeyStride2Scalar(base, valid);
}

}  // namespace cclbt::simd

#endif  // SRC_COMMON_SIMD_H_
