#!/bin/bash
# The repo's CI entry point, runnable locally:
#
#   1. lint: tools/lint_pm_api.py --self-test (repo persistence/determinism
#      rules; the self-test seeds one violation per rule first)
#   2. tier-1: -Werror build + full ctest (the gate every change must pass)
#   3. clang-tidy: static analysis build with .clang-tidy (skipped with a
#      notice when clang-tidy is not installed)
#   3b. thread-safety: clang -Wthread-safety -Werror build of the annotated
#      sync:: lock layer (DESIGN.md §16; skipped with a notice when clang++
#      is not installed — the annotations expand to nothing under gcc)
#   4. simd-off: the full test suite re-run with CCL_SIMD=off so the scalar
#      fallbacks of src/common/simd.h stay exercised and provably give the
#      same query results as the SIMD paths (DESIGN.md §12)
#   5. pmcheck: the full test suite re-run with CCL_PMCHECK=1 so every test
#      workload doubles as a persistency-ordering check (DESIGN.md §11)
#   5b. lockcheck: the full test suite (incl. the crash matrix) re-run with
#      CCL_LOCKCHECK=1 so every test workload doubles as a locking-
#      discipline check (DESIGN.md §16)
#   6. crash: the crash-injection matrix (ctest label "crash"): sampled
#      points plus a crash at every fence for cclbtree and fastfair
#   6b. backend-matrix: the full test suite re-run under each non-default
#      persistence-domain backend (CCL_BACKEND=eadr, then =cxl; DESIGN.md
#      §14) so every test workload also runs in the flush-free and
#      page-granular domains
#   6c. service: the sharded KV front-end suite re-run as a named step
#      (ctest -R service) so a socket-pinning, admission-control, or
#      acked-write-durability regression is named explicitly (DESIGN.md §15)
#   6d. pmctl: one small fig03 cclbtree run with both checkers on writes real
#      .pmtrace/.pmmetrics dumps; pmctl stats, check, locks and series must
#      all exit 0 on them (clean checkers, component sums hold per epoch)
#   6e. perfbench smoke: python3 perfbench/run.py --smoke builds the repo
#      benchmark and runs every workload small, traced and untraced: the
#      torn crash -> restore -> Reopen -> Recover -> audit of every acked
#      write end to end, plus the cross-process determinism check
#      (prints SMOKE_OK)
#   7. determinism: staged benches run twice with pmcheck enabled,
#      virtual-metric tails diffed (run_benches.sh --determinism; §10 —
#      diagnostics must not perturb virtual time); includes the
#      bench_backend_matrix sweep across all backends and the open-loop
#      bench_service_tail sweep (virtual tail latencies must be bit-stable)
#   8. metrics-determinism: the metrics registry / epoch-series test binary
#      re-run on its own so a nondeterministic .pmmetrics series is named
#      explicitly in the CI log (step 7 additionally diffs the epoch series
#      emitted by the real benches)
#   9. bench-gate: tools/bench_gate.py --self-test (seeds a fake regression
#      and requires detection), then fresh results staged at the
#      bench/baselines/MANIFEST scale/filter and compared against the
#      checked-in baselines — virtual metrics exact, wall within noise band
#  10. ASan+UBSan on the pmsim + trace + GC-scheduling + pmcheck + lockcheck
#      + simd + dram_btree + media_model + service + crash_matrix + metrics
#      test subset
#  11. TSan on the same subset (gc_scheduling_test's kOsThread tests are the
#      real-concurrency stress of the legacy GC thread; dram_btree_test's
#      descent stress races optimistic readers against writers;
#      service_test's real-thread pinning regimes run instrumented here)
#
# The sanitizer passes cover the code with the trickiest concurrency story —
# the lock-striped XPBuffer, sharded stats, the pmtrace ring/registry, and
# the GC thread lifecycle — without paying for a fully instrumented build of
# every bench binary.
set -euo pipefail
cd "$(dirname "$0")/.."

SANITIZE_FILTER="pmsim|trace|gc_scheduling|pmcheck|lockcheck|simd|dram_btree|media_model|service|crash_matrix|metrics"

echo "=== lint: lint_pm_api.py self-test + tree ==="
python3 tools/lint_pm_api.py --self-test

echo "=== tier-1: configure + build (-Werror) ==="
cmake -B build -S . -DWERROR=ON >/dev/null
cmake --build build -j"$(nproc)"
echo "=== tier-1: ctest ==="
ctest --test-dir build --output-on-failure -j"$(nproc)"

# Static analysis: full tree under clang-tidy (checks in .clang-tidy). A
# separate build dir keeps the analyzed objects away from the tier-1 build.
if command -v clang-tidy >/dev/null 2>&1; then
  echo "=== clang-tidy: static analysis build ==="
  cmake -B build-tidy -S . -DCLANG_TIDY=ON >/dev/null
  cmake --build build-tidy -j"$(nproc)"
else
  echo "=== clang-tidy: SKIPPED (clang-tidy not installed) ==="
fi

# Thread-safety analysis: the sync:: wrapper layer (src/common/lock.h) carries
# clang CAPABILITY annotations and every guarded field is GUARDED_BY its
# capability (DESIGN.md §16); -Wthread-safety -Werror makes lock discipline a
# build-time invariant. Clang-only — the macros expand to nothing under gcc,
# so the step self-skips when no clang++ is installed.
if command -v clang++ >/dev/null 2>&1; then
  echo "=== thread-safety: clang -Wthread-safety -Werror build ==="
  cmake -B build-tsa -S . -DCMAKE_CXX_COMPILER=clang++ \
    -DCMAKE_CXX_FLAGS="-Wthread-safety" -DWERROR=ON >/dev/null
  cmake --build build-tsa -j"$(nproc)"
else
  echo "=== thread-safety: SKIPPED (clang++ not installed) ==="
fi

# Scalar-fallback pass: the same suite with SIMD dispatch forced off. Any
# test that would pass only with the host's vector paths fails here, which
# pins the contract that CCL_SIMD never changes query results.
echo "=== simd-off: ctest with CCL_SIMD=off ==="
CCL_SIMD=off ctest --test-dir build --output-on-failure -j"$(nproc)"

# Persistency sanitizer pass: every test workload re-run with the pmcheck
# shadow checker on. Tests that assert pmcheck-off defaults clear the env
# themselves; pmcheck_test additionally asserts zero diagnostics on a real
# cclbtree workload, so checker regressions surface here.
echo "=== pmcheck: ctest with CCL_PMCHECK=1 ==="
CCL_PMCHECK=1 ctest --test-dir build --output-on-failure -j"$(nproc)"

# Locking sanitizer pass: every test workload re-run with the lockcheck
# shadow checker on — lockset intersection, lock-order cycles, and the
# fence-publish cross-check all live (DESIGN.md §16). Includes the crash
# matrix so lock state teardown across simulated crashes stays covered.
# lockcheck_test additionally asserts zero diagnostics on real cclbtree and
# service workloads, so checker regressions surface here.
echo "=== lockcheck: ctest with CCL_LOCKCHECK=1 (incl. crash matrix) ==="
CCL_LOCKCHECK=1 ctest --test-dir build --output-on-failure -j"$(nproc)"

# Crash matrix: reruns just the crash-labelled tests (sampled and every-fence
# points) so a crash-consistency regression is named explicitly in the CI log
# (DESIGN.md §9).
echo "=== crash: injection matrix ==="
ctest --test-dir build -L crash --output-on-failure

# Backend matrix: the whole suite re-run under each non-default persistence
# domain. CCL_BACKEND only rebinds devices whose config left backend at
# kAuto, so tests that pin a backend (or assert resolution defaults and
# clear the env themselves) keep their meaning.
echo "=== backend-matrix: ctest with CCL_BACKEND=eadr ==="
CCL_BACKEND=eadr ctest --test-dir build --output-on-failure -j"$(nproc)"
echo "=== backend-matrix: ctest with CCL_BACKEND=cxl ==="
CCL_BACKEND=cxl ctest --test-dir build --output-on-failure -j"$(nproc)"

# Service front-end: socket pinning, partition coverage, admission-control
# shedding, epoch-series determinism, and the crash matrix over an open-loop
# run (no acked-then-lost writes) as an explicitly named step (DESIGN.md §15).
echo "=== service: ctest -R service ==="
ctest --test-dir build -R service --output-on-failure

# pmctl on real dumps: the checker sections and the epoch series are read
# back by the tool users run, not only by the unit tests. Any nonzero exit
# (checker off, a violation, a component-sum break, a missing dump) fails.
echo "=== pmctl: stats/check/locks/series on a checked fig03 dump ==="
PMCTL_DIR="$(mktemp -d)"
CCL_BENCH_SCALE=20000 CCL_TRACE="${PMCTL_DIR}/tr" CCL_METRICS="${PMCTL_DIR}/m" \
  CCL_PMCHECK=1 CCL_LOCKCHECK=1 \
  ./build/bench/bench_fig03_amplification_uniform --benchmark_filter=cclbtree >/dev/null
for dump in "${PMCTL_DIR}"/tr.*.pmtrace; do
  ./build/tools/pmctl stats "${dump}" >/dev/null
  ./build/tools/pmctl check "${dump}"
  ./build/tools/pmctl locks "${dump}"
done
for dump in "${PMCTL_DIR}"/m.*.pmmetrics; do
  ./build/tools/pmctl series "${dump}" >/dev/null
done
rm -rf "${PMCTL_DIR}"

# Repo benchmark smoke: every workload at small size through the same
# binary the benchmark runs, including the crash_recover audit of every
# acked write after a torn crash. Exits non-zero unless SMOKE_OK.
echo "=== perfbench: run.py --smoke ==="
python3 perfbench/run.py --smoke

# Determinism gate: the paper-figure benches must produce bit-identical
# virtual-metric tails across back-to-back runs — including cclbtree rows
# with background GC on (DESIGN.md §10) and the backend-matrix sweep across
# ADR/eADR/CXL (DESIGN.md §14). Small scale: the property being checked is
# exact equality, not the metric values themselves.
echo "=== determinism: fig03/fig10/fig14/backend_matrix/service_tail run twice, tails diffed (pmcheck on) ==="
CCL_PMCHECK=1 CCL_BENCH_SCALE="${CCL_BENCH_SCALE:-60000}" \
  ./run_benches.sh --determinism 'fig03|fig10|fig14|backend_matrix|service_tail'

# Metrics determinism: the registry's own suite (shard-merge conservation,
# bit-identical epoch series for identical RunConfigs including a
# background-GC run, percentile oracle) re-run as a named step.
echo "=== metrics-determinism: ctest -R metrics ==="
ctest --test-dir build -R metrics --output-on-failure

# Bench regression gate: self-test first (a seeded regression must be
# detected), then fresh results staged at the baselines' scale/filter and
# compared — virtual metrics exactly, wall time within the noise band.
echo "=== bench-gate: bench_gate.py self-test + staged vs baselines ==="
python3 tools/bench_gate.py --self-test
GATE_STAGE_DIR="$(mktemp -d)"
trap 'rm -rf "${GATE_STAGE_DIR}"' EXIT
./run_benches.sh --gate-stage "${GATE_STAGE_DIR}"
python3 tools/bench_gate.py --staged "${GATE_STAGE_DIR}"

tools/sanitize.sh asan "${SANITIZE_FILTER}"
tools/sanitize.sh tsan "${SANITIZE_FILTER}"

echo "=== ci: ALL OK ==="
