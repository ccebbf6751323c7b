#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-test

Run from the root of a checkout.  The first call configures and builds the
pandora library and the benchmark into `.bench_build/` (RelWithDebInfo);
later calls rebuild incrementally.  The benchmark binary prints a context
line (host/build stamp, sample counts, error rate) and, as the last line of
standard output, the result:

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

With `--trace 0` the metrics are the end-to-end metrics of BENCHMARK.json,
with `--trace 1` the per-layer ones, and the traced run also writes a Chrome
trace to `.bench_build/traces/`.  Every result is kept, stamped, under
`.bench_build/results/`.  The exit code is non-zero when any op failed or an
output check did not hold, and when the library sources are missing.
"""

import argparse
import hashlib
import json
import os
import pathlib
import shutil
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build"
WORKLOADS = ("hdbscan_cold", "dendrogram_skew", "batch_small", "serve_churn")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
# The whole command must end within 180 s; leave room for Python itself.
RUN_DEADLINE_S = 170


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def source_id():
    """The git sha when the checkout is a repository, else a digest of the
    sources the benchmark builds."""
    if (ROOT / ".git").exists():
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, check=False)
        if sha.returncode == 0:
            return "git:" + sha.stdout.strip()
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for tree in (ROOT / "src", BENCH_DIR):
        files += sorted(p for p in tree.rglob("*") if p.is_file())
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return "sources:" + digest.hexdigest()[:16]


def build():
    """Configures (once) and builds the benchmark; exits 2 on failure."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"library sources not found under {ROOT}; nothing to benchmark")
        sys.exit(2)
    jobs = str(os.cpu_count() or 1)
    # Keep the compiler's temporary files inside the checkout too.
    tmp = BUILD_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                  "--target", "perfbench", "perfbench_selftest"])
    for step in steps:
        # Build output goes to stderr: stdout carries only the result.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr, env=env,
                          check=False).returncode != 0:
            log("build failed")
            sys.exit(2)


def complete_metrics(result, traced):
    """Orders the metrics as BENCHMARK.json lists them.  A traced run's
    per-layer metrics that the workload does not measure (a layer it
    bypasses) read 0.  Returns an error string for a metric the spec does
    not list, a unit that differs from it, or a missing end-to-end metric."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if traced else "end_to_end"]
    measured = result["metrics"]
    units = {m["name"]: m["unit"] for m in listed}
    for name, metric in measured.items():
        if units.get(name) != metric["unit"]:
            return f"metric {name} ({metric['unit']}) is not in BENCHMARK.json as such"
    missing = [name for name in units if name not in measured]
    if missing and not traced:
        return f"end-to-end metrics missing: {missing}"
    result["metrics"] = {name: measured.get(name, {"value": 0, "unit": unit})
                         for name, unit in units.items()}
    return None


def run_workload(workload, seed, seconds, trace, corrupt=False, deadline=RUN_DEADLINE_S):
    """Runs the binary; returns (exit code, context dict, result dict or None)."""
    command = [str(BUILD_DIR / "perfbench"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--source", source_id()]
    if trace:
        traces = BUILD_DIR / "traces"
        traces.mkdir(exist_ok=True)
        command += ["--trace-out", str(traces / f"{workload}-seed{seed}.json")]
    if corrupt:
        command.append("--corrupt")
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE, text=True, timeout=deadline,
                              check=False)
    except subprocess.TimeoutExpired:  # run() has killed and reaped the child
        log(f"{workload} did not finish within {deadline:.0f} s")
        return 1, {}, None
    lines = proc.stdout.strip().splitlines()
    try:
        context = json.loads(lines[-2]).get("perfbench", {}) if len(lines) >= 2 else {}
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        context, result = {}, None
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        log(f"{workload} printed no result (exit {proc.returncode})")
        return proc.returncode or 1, context, None
    return proc.returncode, context, result


def self_test():
    """The benchmark's self-tests: helper unit tests, the metric names of
    BENCHMARK.json, and a deliberately corrupted dendrogram parent on every
    workload, which must drive the error rate above 0 and the exit code
    non-zero."""
    failures = []
    if subprocess.run([str(BUILD_DIR / "perfbench_selftest")], check=False).returncode != 0:
        failures.append("perfbench_selftest")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    charset = set("abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_.-")
    for name in names:
        if not (name and len(name) <= 64 and name[0].isalnum() and set(name) <= charset):
            failures.append(f"metric name {name!r} outside [A-Za-z0-9_.-]")
    if len(set(names)) != len(names):
        failures.append("duplicate metric names in BENCHMARK.json")
    for workload in WORKLOADS:
        code, context, result = run_workload(workload, 1, 1, 0, corrupt=True)
        error_rate = context.get("error_rate", 0)
        caught = (code != 0 and result is not None and result["failed"] > 0
                  and not result["correct"] and error_rate > 0)
        log(f"corrupted parent on {workload}: exit {code}, error_rate {error_rate} "
            f"-> {'caught' if caught else 'MISSED'}")
        if not caught:
            failures.append(f"corruption not caught on {workload}")
    for failure in failures:
        log(f"self-test FAILED: {failure}")
    if not failures:
        log("self-test passed")
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")

    started = time.monotonic()
    build()
    if args.self_test:
        return self_test()

    # A first build in a fresh checkout may take minutes; later builds are
    # no-ops, and the run keeps the rest of the 180 s budget.
    deadline = max(60.0, RUN_DEADLINE_S - (time.monotonic() - started))
    code, context, result = run_workload(args.workload, args.seed, args.seconds, args.trace,
                                         deadline=deadline)
    if result is None:
        return code or 1
    error = complete_metrics(result, args.trace == 1)
    if error is not None:
        log(error)
        return 1
    results = BUILD_DIR / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"context": context, "result": result}, indent=1) + "\n")
    print(json.dumps({"perfbench": context}), flush=True)
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
