#!/usr/bin/env python3
"""The MicroGrid benchmark: build perfbench from source, run one workload,
check its result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Run from anywhere; paths resolve against the checkout that holds this file.
The first call configures and builds perfbench (and the simulator libraries
under src/) into .bench_build/perfbench; later calls rebuild incrementally.
Build chatter goes to stderr. Stdout carries the benchmark's report, whose
last line is the result object {"correct", "attempted", "failed", "metrics"}:
the end_to_end metrics of BENCHMARK.json with --trace 0, the per_layer ones
with --trace 1. A traced run also writes its spans as a Chrome trace to
.bench_out/trace-<workload>-<seed>.json.

--selftest runs every workload at a tiny size, traced and untraced, and
checks that every metric named in BENCHMARK.json is printed with its unit and
that the two runs agree on the deterministic counts and the sim_digest.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
OUT_DIR = os.path.join(ROOT, ".bench_out")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; returns the binary's path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise RuntimeError(f"no simulator sources under {ROOT}/src")
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD_DIR,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo", *generator],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD_DIR, "-j", jobs, "--target", "perfbench"],
                   stdout=sys.stderr, check=True)
    return os.path.join(BUILD_DIR, "perfbench")


def git_describe():
    """`git describe` of the checkout, when it is a git work tree of its own."""
    try:
        top = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True, timeout=10)
        if top.returncode != 0 or os.path.realpath(top.stdout.strip()) != os.path.realpath(ROOT):
            return "none (not a git checkout)"
        d = subprocess.run(["git", "-C", ROOT, "describe", "--always", "--dirty", "--tags"],
                           capture_output=True, text=True, timeout=10)
        return d.stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def run_once(binary, workload, seed, seconds, trace, tiny=False):
    """Run perfbench; returns (every stdout line, result object)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--root", ROOT, "--git", git_describe()]
    if trace:
        os.makedirs(OUT_DIR, exist_ok=True)
        cmd += ["--trace-out", os.path.join(OUT_DIR, f"trace-{workload}-{seed}.json")]
    if tiny:
        cmd.append("--tiny")
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"perfbench exited {proc.returncode} on {workload}")
    return lines, json.loads(lines[-1])


def check_result(result, spec, trace):
    """Problems with the result object's shape and metric set ([] when fine)."""
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append(f"result keys {sorted(result)}")
        return problems
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if not isinstance(result["failed"], int) or result["failed"] < 0:
        problems.append("failed must be a whole number >= 0")
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    got = result["metrics"]
    if set(got) != set(wanted):
        problems.append(f"metric names differ: missing {sorted(set(wanted) - set(got))}, "
                        f"extra {sorted(set(got) - set(wanted))}")
    for name, m in got.items():
        if name in wanted and m.get("unit") != wanted[name]:
            problems.append(f"{name}: unit {m.get('unit')!r}, expected {wanted[name]!r}")
        if not isinstance(m.get("value"), (int, float)):
            problems.append(f"{name}: value is not a number")
    return problems


def line_value(lines, key):
    for line in lines:
        if line.startswith(key + ": "):
            return line[len(key) + 2:]
    return None


def selftest(binary, spec):
    failures = []
    for w in spec["workloads"]:
        name = w["name"]
        runs = {}
        for trace in (0, 1):
            lines, result = run_once(binary, name, 7, 0, trace, tiny=True)
            runs[trace] = lines
            for p in check_result(result, spec, trace):
                failures.append(f"{name} trace={trace}: {p}")
            if not result.get("correct") or result.get("failed") != 0:
                failures.append(f"{name} trace={trace}: correct={result.get('correct')} "
                                f"failed={result.get('failed')}")
            printed = {}
            for line in lines:
                if line.startswith("metric: "):
                    parts = line.split()
                    printed[parts[1]] = parts[3] if len(parts) > 3 else None
            for m in spec["per_layer" if trace else "end_to_end"]:
                if printed.get(m["name"]) != m["unit"]:
                    failures.append(f"{name} trace={trace}: metric line for {m['name']} "
                                    f"missing or without unit {m['unit']}")
        for key in ("counts", "sim_digest", "model_err_pct"):
            a, b = line_value(runs[0], key), line_value(runs[1], key)
            if a is None or a != b:
                failures.append(f"{name}: {key} differs between untraced and traced runs")
        log(f"selftest {name}: sim_digest {line_value(runs[0], 'sim_digest')}")
    for f in failures:
        log(f"selftest FAIL: {f}")
    print("selftest: " + ("PASS" if not failures else f"FAIL ({len(failures)} problem(s))"))
    return 0 if not failures else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    args = ap.parse_args()
    try:
        spec = load_spec()
        binary = build()
        if args.selftest:
            return selftest(binary, spec)
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            log(f"unknown workload {args.workload!r}")
            return 2
        lines, result = run_once(binary, args.workload, args.seed, args.seconds, args.trace)
        problems = check_result(result, spec, args.trace)
        for line in lines[:-1]:
            print(line)
        if problems:
            for p in problems:
                log(f"bad result: {p}")
            return 1
        print(lines[-1])
        return 0
    except (OSError, ValueError, RuntimeError, subprocess.SubprocessError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
