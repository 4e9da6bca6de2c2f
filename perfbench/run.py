#!/usr/bin/env python3
"""The repository benchmark: builds perfbench from source and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload svc_ingest --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --smoke

The first form builds the perfbench package (perfbench/CMakeLists.txt, which
compiles ../src) into .bench_build, or into $CARGO_TARGET_DIR when that is
set, runs the workload with the parameters in perfbench/workloads.json, and
prints as its last stdout line one JSON object with the keys correct,
attempted, failed and metrics. With --trace 0 the metrics are BENCHMARK.json's
end_to_end list, with --trace 1 its per_layer list. Every file the run
writes (report.json, and for --trace 1 spans.json, span_self.tsv and
layers.tsv) goes to .bench_out/<workload>-seed<n>-trace<t>/.

--smoke runs every workload at small sizes, traced and untraced, asserts that
every metric BENCHMARK.json names is emitted, and runs each untraced workload
twice with one seed to check that its virtual metrics repeat bit for bit.

Exit status is 0 only when the build succeeded and every output check passed.
"""
import argparse
import fcntl
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))


def build():
    """Configures (once) and builds perfbench; returns the binary path."""
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # concurrent runs share one build tree
        jobs = str(max(1, os.cpu_count() or 1))
        # The marker names the source tree the build tree was configured for;
        # a moved checkout is configured afresh.
        configured = os.path.join(out, ".configured")
        marker = open(configured).read() if os.path.exists(configured) else None
        # Build chatter goes to stderr: stdout ends with the result line.
        if marker != HERE:
            cache = os.path.join(out, "CMakeCache.txt")
            if os.path.exists(cache):
                os.remove(cache)
            subprocess.run(["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, stderr=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
            with open(configured, "w") as f:
                f.write(HERE)
        subprocess.run(["cmake", "--build", out, "--target", "perfbench", "-j", jobs],
                       stdout=sys.stderr, stderr=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return os.path.join(out, "perfbench")


def load_json(path):
    with open(path) as f:
        return json.load(f)


def workload_params(config, name, smoke):
    params = dict(config["workloads"][name])
    if smoke:
        params.update(config["smoke"]["common"])
        params.update(config["smoke"].get(name, {}))
    return params


def run_workload(binary, config, name, seed, seconds, trace, smoke=False, tag=""):
    """Runs the binary once; returns (exit code, report dict or None)."""
    out_dir = os.path.join(ROOT, ".bench_out", f"{name}-seed{seed}-trace{trace}{tag}")
    report_path = os.path.join(out_dir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    cmd = [binary, "--workload", name, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", out_dir]
    for key, value in workload_params(config, name, smoke).items():
        cmd += ["--" + key, str(value)]
    # The CCL_* variables switch on checkers, tracing and dumps inside the
    # program; the benchmark measures the program without them.
    env = {k: v for k, v in os.environ.items() if not k.startswith("CCL_")}
    sys.stdout.flush()
    rc = subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S).returncode
    report = load_json(report_path) if os.path.exists(report_path) else None
    return rc, report


def result_line(bench, report, trace):
    """The result object: the metrics BENCHMARK.json lists for this mode."""
    wanted = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = {}
    for spec in wanted:
        got = report["metrics"].get(spec["name"])
        if got is None:
            raise KeyError(f"metric {spec['name']} was not emitted")
        if got["unit"] != spec["unit"]:
            raise ValueError(f"metric {spec['name']} has unit {got['unit']}, "
                             f"BENCHMARK.json says {spec['unit']}")
        metrics[spec["name"]] = {"value": got["value"], "unit": got["unit"]}
    return {"correct": bool(report["correct"]), "attempted": int(report["attempted"]),
            "failed": int(report["failed"]), "metrics": metrics}


def smoke(binary, bench, config):
    ok = True
    for name in config["workloads"]:
        for trace in (0, 1):
            rc, report = run_workload(binary, config, name, 1, 0, trace, smoke=True)
            try:
                result_line(bench, report, trace)
            except (KeyError, ValueError, TypeError) as e:
                log(f"SMOKE FAIL {name} trace={trace}: {e}")
                ok = False
            if rc != 0:
                log(f"SMOKE FAIL {name} trace={trace}: exit {rc}")
                ok = False
        # Determinism across processes: one seed, two runs, same virtual metrics.
        reports = [run_workload(binary, config, name, 7, 0, 0, smoke=True, tag=f"-rep{i}")[1]
                   for i in range(2)]
        if None in reports:
            log(f"SMOKE FAIL {name}: a repeated run wrote no report")
            ok = False
            continue
        for metric, a in reports[0]["metrics"].items():
            b = reports[1]["metrics"][metric]
            if a["clock"] != "virtual" or a["value"] == b["value"]:
                continue
            log(f"SMOKE FAIL {name}: virtual metric {metric} not repeatable: "
                f"{a['value']} vs {b['value']}")
            ok = False
    print("SMOKE_OK" if ok else "SMOKE_FAILED")
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args()

    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    config = load_json(os.path.join(HERE, "workloads.json"))
    if not args.smoke and args.workload not in config["workloads"]:
        log(f"unknown workload {args.workload!r}; have {sorted(config['workloads'])}")
        return 2
    try:
        binary = build()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        log(f"build failed: {e}")
        return 1
    if args.smoke:
        return smoke(binary, bench, config)
    try:
        rc, report = run_workload(binary, config, args.workload, args.seed, args.seconds,
                                  args.trace)
    except subprocess.TimeoutExpired:
        log("perfbench timed out")
        return 1
    if report is None:
        log(f"perfbench exited {rc} without a report")
        return 1
    try:
        line = result_line(bench, report, args.trace)
    except (KeyError, ValueError) as e:
        log(str(e))
        return 1
    print(json.dumps(line))
    return 0 if rc == 0 and line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
