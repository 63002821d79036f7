#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload serve_socket --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest

Run from the repository root. The first call configures and builds the
library and the benchmark with CMake under $CARGO_TARGET_DIR (default
.bench_build), then runs the harness self-tests; later calls only rebuild
what changed. The benchmark's last stdout line is the JSON result. Exits
non-zero, without a result, when the sources or the toolchain are missing.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve_socket", "replay_storm", "train_ppo")
RUN_TIMEOUT_S = 170


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configure (once) and build; returns True when the binaries are ready."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"no library sources under {ROOT}")
        return False
    cmake = shutil.which("cmake")
    if cmake is None:
        log("cmake not found")
        return False
    fresh = not (out / "CMakeCache.txt").is_file()
    steps = []
    if fresh:
        steps.append([cmake, "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append([cmake, "--build", str(out), "-j4",
                  "--target", "perfbench", "perfbench_selftest"])
    for cmd in steps:
        if subprocess.call(cmd, stdout=sys.stderr, stderr=sys.stderr) != 0:
            log("build failed: " + " ".join(cmd))
            return False
    if fresh and not selftest(out):
        return False
    return True


def selftest(out):
    ok = subprocess.call([str(out / "perfbench_selftest")],
                         stdout=sys.stderr, stderr=sys.stderr) == 0
    if not ok:
        log("harness self-tests failed")
    return ok


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1))
    ap.add_argument("--selftest", action="store_true",
                    help="build, run the harness self-tests, and exit")
    args = ap.parse_args()
    if not args.selftest and None in (args.workload, args.seed,
                                      args.seconds, args.trace):
        ap.error("--workload, --seed, --seconds and --trace are required")
    if not args.selftest and (args.seed < 0 or args.seconds < 1):
        ap.error("--seed must be >= 0 and --seconds >= 1")

    out = build_dir()
    if not build(out):
        return 2
    if args.selftest:
        return 0 if selftest(out) else 1

    cmd = [str(out / "perfbench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if args.trace:
        spans = out / "spans"
        spans.mkdir(exist_ok=True)
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                            text=True)
    try:
        stdout, _ = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
        return 3
    lines = stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("benchmark printed no result")
        return proc.returncode or 4
    ok = complete(result, bool(args.trace))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result), flush=True)
    return proc.returncode or (0 if ok else 5)


def complete(result, trace):
    """Put the run's metrics in BENCHMARK.json's order and check them against
    it. A traced run gets 0 for each per-layer metric of a layer its workload
    does not exercise; a missing end-to-end metric, a wrong unit or an
    unlisted metric marks the result incorrect."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    got = result.get("metrics", {})
    metrics = {}
    ok = True
    for m in spec["per_layer" if trace else "end_to_end"]:
        value = got.pop(m["name"], None)
        if value is None:
            if not trace:
                log(f"missing end-to-end metric {m['name']}")
                ok = False
            value = {"value": 0.0, "unit": m["unit"]}
        elif value["unit"] != m["unit"]:
            log(f"{m['name']}: unit {value['unit']}, expected {m['unit']}")
            ok = False
        metrics[m["name"]] = value
    for name in got:
        log(f"metric {name} is not listed in BENCHMARK.json")
        ok = False
    result["metrics"] = metrics
    if not ok:
        result["correct"] = False
    return ok


if __name__ == "__main__":
    sys.exit(main())
