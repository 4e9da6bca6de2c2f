#!/bin/bash
# Interleaved A/B wall-clock comparison of two git revisions on the repo
# benchmark (perfbench/run.py).
#
#   tools/perf_ab.sh [options] BASE_REV [CHANGE_REV]   A = BASE_REV, B = CHANGE_REV
#   tools/perf_ab.sh [options] --aa REV                A/A: both arms run REV
#
# Each revision is exported with `git archive` into its own directory under
# the work directory and built there by run.py's own build step, so the two
# arms never share sources or a build tree. Then, per workload, it runs
# --pairs pairs of `python3 perfbench/run.py --workload W --seed S --seconds T
# --trace X`, one process per arm, alternating which arm runs first (ABBA…)
# so a slow drift of the host does not favour one side. T is BENCHMARK.json's
# run_seconds: an A/B run measures the length the benchmark measures.
#
# Report, per workload and metric (default wall_kops and setup_s; add more
# with --metric, e.g. --metric service.self_wall_ms with --trace 1):
#   * the median of each arm and the interquartile range of arm A;
#   * the per-pair ratio B/A: its median, min and max;
#   * wins: the pairs in which B is better (BENCHMARK.json's "better").
# Every metric the report marks "virtual" must be identical in all runs of
# both arms (same seed); the report says so or names the metrics that moved.
# A change that moves the virtual clock on purpose passes --virtual-moves:
# then each arm must only agree with itself across its own runs, and the
# report prints both arms' virtual end-to-end metrics side by side.
# An A/A run gives the noise floor: its ratio spread is what a real change
# has to clear.
#
# Options:
#   --workload W    workload to run; repeatable (default: every workload)
#   --pairs N       interleaved pairs per workload (default 10: a gain is
#                   claimed only when B wins at least 9 of 10 pairs)
#   --seed N        run.py --seed (default 1)
#   --trace 0|1     run.py --trace (default 0)
#   --metric M      extra ratio metric; repeatable
#   --workdir DIR   sources, builds and results (default ${TMPDIR:-/tmp}/perf_ab)
#   --virtual-moves the arms may differ in virtual metrics (see above)
#   --dry-run       resolve revisions, print the plan, self-test the
#                   statistics on canned data; builds and runs nothing
#
# Exit status: 0 when every run succeeded and the virtual metrics agree (per
# arm with --virtual-moves), 1 otherwise, 2 on bad usage.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"
WORKLOADS=()
PAIRS=10
SEED=1
TRACE=0
METRICS=(wall_kops setup_s)
WORKDIR="${TMPDIR:-/tmp}/perf_ab"
DRY_RUN=0
VIRTUAL_MOVES=0
AA=0
REVS=()

usage() {
  sed -n '2,42p' "$0" | sed 's/^# \{0,1\}//' >&2
  exit 2
}

while [ $# -gt 0 ]; do
  case "$1" in
    --workload) WORKLOADS+=("$2"); shift 2 ;;
    --pairs) PAIRS="$2"; shift 2 ;;
    --seed) SEED="$2"; shift 2 ;;
    --trace) TRACE="$2"; shift 2 ;;
    --metric) METRICS+=("$2"); shift 2 ;;
    --workdir) WORKDIR="$2"; shift 2 ;;
    --aa) AA=1; shift ;;
    --dry-run) DRY_RUN=1; shift ;;
    --virtual-moves) VIRTUAL_MOVES=1; shift ;;
    -h|--help) usage ;;
    -*) echo "perf_ab: unknown option $1" >&2; usage ;;
    *) REVS+=("$1"); shift ;;
  esac
done

if [ "${AA}" = 1 ]; then
  [ "${#REVS[@]}" = 1 ] || { echo "perf_ab: --aa takes exactly one revision" >&2; usage; }
  REVS+=("${REVS[0]}")
else
  [ "${#REVS[@]}" -ge 1 ] && [ "${#REVS[@]}" -le 2 ] || usage
  [ "${#REVS[@]}" = 2 ] || REVS+=(HEAD)
fi
[[ "${PAIRS}" =~ ^[1-9][0-9]*$ ]] || { echo "perf_ab: --pairs must be a positive integer" >&2; exit 2; }
[[ "${TRACE}" =~ ^[01]$ ]] || { echo "perf_ab: --trace must be 0 or 1" >&2; exit 2; }

SHA_A="$(git -C "${ROOT}" rev-parse --verify "${REVS[0]}^{commit}")"
SHA_B="$(git -C "${ROOT}" rev-parse --verify "${REVS[1]}^{commit}")"
if [ "${#WORKLOADS[@]}" = 0 ]; then
  mapfile -t WORKLOADS < <(python3 -c 'import json,sys
print("\n".join(w["name"] for w in json.load(open(sys.argv[1]))["workloads"]))' \
    "${ROOT}/BENCHMARK.json")
fi
RUN_SECONDS="$(python3 -c 'import json,sys
print(json.load(open(sys.argv[1]))["run_seconds"])' "${ROOT}/BENCHMARK.json")"
RESULTS="${WORKDIR}/results/$(date -u +%Y%m%dT%H%M%SZ)"

# Statistics and the report. `stats --self-test` checks them on canned data.
stats() {
  python3 - "$@" <<'EOF'
import json, os, statistics, sys

def summarize(pairs, better):
    """pairs: [(a, b)] per pair; better: "higher", "lower" or None."""
    a = sorted(p[0] for p in pairs)
    ratios = [y / x for x, y in pairs if x != 0]
    q1, _, q3 = statistics.quantiles(a, n=4, method="inclusive") if len(a) > 1 else a * 3
    if better == "higher":
        wins = sum(1 for x, y in pairs if y > x)
    elif better == "lower":
        wins = sum(1 for x, y in pairs if y < x)
    else:
        wins = None
    nan = float("nan")
    return {"median_a": statistics.median(a),
            "median_b": statistics.median(p[1] for p in pairs),
            "iqr_a": q3 - q1,
            "ratio_median": statistics.median(ratios) if ratios else nan,
            "ratio_min": min(ratios, default=nan), "ratio_max": max(ratios, default=nan),
            "wins": wins, "pairs": len(pairs)}

def virtual_check(a_runs, b_runs, end_to_end, allow_moves):
    """Returns (ok, report lines). Virtual metrics must be identical in every
    run of both arms or, with allow_moves, in every run of each arm; then
    the arms' virtual end-to-end metrics are listed side by side."""
    virtual = sorted({m for r in a_runs + b_runs for m, v in r["metrics"].items()
                      if v["clock"] == "virtual"})

    def moved(runs):
        return [m for m in virtual
                if len({repr(r["metrics"].get(m, {}).get("value")) for r in runs}) != 1]

    if not allow_moves:
        differ = moved(a_runs + b_runs)
        if differ:
            return False, ["virtual metrics DIFFER between runs: " + ", ".join(differ)]
        return True, ["virtual metrics: identical in every run of both arms"]
    ok = True
    lines = []
    for arm, runs in (("A", a_runs), ("B", b_runs)):
        differ = moved(runs)
        if differ:
            ok = False
            lines.append(f"virtual metrics DIFFER between runs of arm {arm}: " + ", ".join(differ))
    if ok:
        lines.append("virtual metrics: identical in every run of each arm")
    lines.append(f"{'virtual end-to-end':28} {'A':>12} {'B':>12} {'B/A':>10}")
    for m in end_to_end:
        if m not in virtual:
            continue
        a = a_runs[0]["metrics"].get(m, {}).get("value")
        b = b_runs[0]["metrics"].get(m, {}).get("value")
        if a is None or b is None:
            lines.append(f"{m:28} {'-' if a is None else f'{a:12.4g}':>12} "
                         f"{'-' if b is None else f'{b:12.4g}':>12}")
            continue
        ratio = f"{b / a:10.4f}" if a != 0 else f"{'-':>10}"
        lines.append(f"{m:28} {a:12.4g} {b:12.4g} {ratio}")
    return ok, lines

def self_test():
    s = summarize([(100.0, 130.0), (110.0, 121.0), (90.0, 126.0), (100.0, 100.0)], "higher")
    assert abs(s["ratio_median"] - 1.2) < 1e-9, s
    assert abs(s["ratio_min"] - 1.0) < 1e-9 and abs(s["ratio_max"] - 1.4) < 1e-9, s
    assert s["wins"] == 3 and s["median_a"] == 100.0 and s["median_b"] == 123.5, s
    assert abs(s["iqr_a"] - 5.0) < 1e-9, s
    assert summarize([(2.0, 1.0)], "lower")["wins"] == 1

    def run(tail, wall):
        return {"metrics": {"upsert_tail_us": {"value": tail, "clock": "virtual"},
                            "wall_kops": {"value": wall, "clock": "wall"}}}
    a_runs = [run(400.0, 800.0), run(400.0, 810.0)]
    b_runs = [run(4.0, 790.0), run(4.0, 805.0)]
    e2e = ["upsert_tail_us", "wall_kops"]
    ok, lines = virtual_check(a_runs, b_runs, e2e, allow_moves=False)
    assert not ok and "upsert_tail_us" in lines[0], lines
    ok, lines = virtual_check(a_runs, b_runs, e2e, allow_moves=True)
    assert ok, lines
    row = [l for l in lines if l.startswith("upsert_tail_us")]
    assert len(row) == 1 and row[0].split()[1:] == ["400", "4", "0.0100"], lines
    assert not any(l.startswith("wall_kops") for l in lines), lines
    ok, lines = virtual_check(a_runs, b_runs + [run(5.0, 800.0)], e2e, allow_moves=True)
    assert not ok and "arm B: upsert_tail_us" in lines[0], lines
    ok, lines = virtual_check(a_runs, a_runs, e2e, allow_moves=False)
    assert ok, lines
    print("perf_ab: statistics self-test OK")

def load_runs(results_dir, workload, arm):
    runs = []
    while True:
        path = os.path.join(results_dir, workload, f"{arm}{len(runs)}.json")
        if not os.path.exists(path):
            return runs
        with open(path) as f:
            runs.append(json.load(f))

def report(results_dir, workloads, metrics, bench_path, allow_moves):
    with open(bench_path) as f:
        bench = json.load(f)
    better = {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in bench[key]}
    end_to_end = [m["name"] for m in bench["end_to_end"]]
    ok = True
    for w in workloads:
        a_runs = load_runs(results_dir, w, "A")
        b_runs = load_runs(results_dir, w, "B")
        n = min(len(a_runs), len(b_runs))
        print(f"== {w}: {n} pairs")
        if n == 0:
            ok = False
            continue
        for r in a_runs + b_runs:
            if r["failed"] != 0 or not r["correct"]:
                print(f"   a run reported failed={r['failed']} correct={r['correct']}")
                ok = False
        print(f"   {'metric':28} {'A median':>12} {'B median':>12} {'A IQR':>10} "
              f"{'B/A median':>10} {'min':>7} {'max':>7}  wins")
        for m in metrics:
            if m not in a_runs[0]["metrics"]:
                print(f"   {m:28} not reported")
                ok = False
                continue
            pairs = [(a_runs[i]["metrics"][m]["value"], b_runs[i]["metrics"][m]["value"])
                     for i in range(n)]
            s = summarize(pairs, better.get(m))
            wins = "-" if s["wins"] is None else f"{s['wins']}/{s['pairs']}"
            print(f"   {m:28} {s['median_a']:12.4g} {s['median_b']:12.4g} {s['iqr_a']:10.4g} "
                  f"{s['ratio_median']:10.4f} {s['ratio_min']:7.4f} {s['ratio_max']:7.4f}  {wins}")
        virtual_ok, lines = virtual_check(a_runs[:n], b_runs[:n], end_to_end, allow_moves)
        for line in lines:
            print("   " + line)
        ok = ok and virtual_ok
    return ok

if sys.argv[1] == "--self-test":
    self_test()
else:
    sys.exit(0 if report(sys.argv[1], sys.argv[2].split(","), sys.argv[3].split(","),
                         sys.argv[4], sys.argv[5] == "1") else 1)
EOF
}

# Exports `sha` into WORKDIR/src-<sha> (once) and prints the directory.
checkout() {
  local sha="$1"
  local dir="${WORKDIR}/src-${sha:0:12}"
  if [ ! -f "${dir}/.perf_ab_rev" ] || [ "$(cat "${dir}/.perf_ab_rev")" != "${sha}" ]; then
    rm -rf "${dir}"
    mkdir -p "${dir}"
    git -C "${ROOT}" archive "${sha}" | tar -x -C "${dir}"
    echo "${sha}" > "${dir}/.perf_ab_rev"
  fi
  echo "${dir}"
}

# Builds perfbench in a checkout with run.py's own build step.
build() {
  (cd "$1" && env -u CARGO_TARGET_DIR python3 -c \
    'import sys; sys.path.insert(0, "perfbench"); import run; run.build()')
}

# One run of arm `arm` (A|B), pair `i`, workload `w`: keeps run.py's result
# line and the full report (which marks each metric virtual or wall).
run_arm() {
  local arm="$1" dir="$2" w="$3" i="$4"
  local out="${RESULTS}/${w}"
  mkdir -p "${out}"
  echo "perf_ab: ${w} pair $((i + 1))/${PAIRS} arm ${arm}" >&2
  local line
  if ! line="$(cd "${dir}" && env -u CARGO_TARGET_DIR python3 perfbench/run.py --workload "${w}" \
                 --seed "${SEED}" --seconds "${RUN_SECONDS}" --trace "${TRACE}" | tail -n 1)"; then
    echo "perf_ab: ${w} arm ${arm} pair ${i} failed" >&2
    return 1
  fi
  python3 - "${dir}/.bench_out/${w}-seed${SEED}-trace${TRACE}/report.json" "${line}" \
    "${out}/${arm}${i}.json" <<'EOF'
import json, sys
report = json.load(open(sys.argv[1]))
line = json.loads(sys.argv[2])
report["correct"] = line["correct"]
report["failed"] = line["failed"]
json.dump(report, open(sys.argv[3], "w"))
EOF
}

METRIC_LIST="$(IFS=,; echo "${METRICS[*]}")"
WORKLOAD_LIST="$(IFS=,; echo "${WORKLOADS[*]}")"
echo "perf_ab: A=${REVS[0]} (${SHA_A:0:12}) B=${REVS[1]} (${SHA_B:0:12})$([ "${AA}" = 1 ] && echo ' [A/A]')"
echo "perf_ab: workloads ${WORKLOAD_LIST}; ${PAIRS} pairs; --seconds ${RUN_SECONDS} --seed ${SEED} --trace ${TRACE}"
echo "perf_ab: ratio metrics ${METRIC_LIST}; workdir ${WORKDIR}"
[ "${VIRTUAL_MOVES}" = 0 ] ||
  echo "perf_ab: --virtual-moves: virtual metrics must agree within each arm only"

if [ "${DRY_RUN}" = 1 ]; then
  for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then order="A B"; else order="B A"; fi
    echo "perf_ab: pair $((i + 1)): ${order}"
  done
  stats --self-test
  echo "perf_ab: dry run OK"
  exit 0
fi

DIR_A="$(checkout "${SHA_A}")"
DIR_B="${DIR_A}"
if [ "${SHA_B}" != "${SHA_A}" ]; then
  DIR_B="$(checkout "${SHA_B}")"
fi
build "${DIR_A}"
[ "${DIR_B}" = "${DIR_A}" ] || build "${DIR_B}"

status=0
for w in "${WORKLOADS[@]}"; do
  for ((i = 0; i < PAIRS; i++)); do
    if ((i % 2 == 0)); then
      run_arm A "${DIR_A}" "${w}" "${i}" && run_arm B "${DIR_B}" "${w}" "${i}" || status=1
    else
      run_arm B "${DIR_B}" "${w}" "${i}" && run_arm A "${DIR_A}" "${w}" "${i}" || status=1
    fi
  done
done

stats "${RESULTS}" "${WORKLOAD_LIST}" "${METRIC_LIST}" "${ROOT}/BENCHMARK.json" "${VIRTUAL_MOVES}" |
  tee "${RESULTS}/summary.txt" || status=1
echo "perf_ab: results in ${RESULTS}"
exit "${status}"
