#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. Builds perfbench/ (which compiles the
library from src/) into $CARGO_TARGET_DIR or .bench_build, runs the
workload in a process of its own, and prints a host-and-config
fingerprint line and then, as the last line of stdout, the result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are BENCHMARK.json's end_to_end list, with
--trace 1 its per_layer list (a layer the workload never calls reads 0).
setup_s is the median over fresh processes that each set up and run one
warm-up operation. Exits non-zero when an output check fails.
"""
import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROCESSES = 16
DEADLINE_S = 170  # the whole command, once built


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        sys.exit("perfbench: library sources (src/) not found "
                 "next to perfbench/")
    out = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not out.is_absolute():
        out = ROOT / out
    bdir = out / "perfbench"
    if not (bdir / "CMakeCache.txt").is_file():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir), *gen,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", str(bdir), "-j", jobs],
                   stdout=sys.stderr, check=True)
    return bdir / "perfbench"


def run_binary(cmd, timeout):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, timeout), cwd=ROOT)
    if proc.returncode != 0:
        sys.exit(f"perfbench: {' '.join(cmd[1:])} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git(*args):
    if not shutil.which("git"):
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), *args], text=True,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return proc.stdout.strip() if proc.returncode == 0 else None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        sys.exit(f"perfbench: unknown workload {args.workload!r}")
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    binary = build()
    t0 = time.monotonic()
    base = [str(binary), "--workload", args.workload, "--seed",
            str(args.seed), "--seconds", str(args.seconds)]

    # Set-up processes run half before and half after the main one, so a
    # spell of host interference does not cover all of them.
    setup = []

    def measure_setup(count):
        for _ in range(0 if args.trace else count):
            out = run_binary(base + ["--setup-only"], DEADLINE_S / 8)
            setup.append(out["metrics"]["setup_s"])

    measure_setup(SETUP_PROCESSES // 2)
    out = run_binary(base + ["--trace", str(args.trace)],
                     DEADLINE_S - 20 - (time.monotonic() - t0))
    measure_setup(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    measured = out["metrics"]
    if setup:
        measured["setup_s"] = statistics.median(setup)

    names = {m["name"] for m in spec["end_to_end"] + spec["per_layer"]}
    unknown = sorted(set(measured) - names)
    if unknown:
        sys.exit(f"perfbench: binary reported unlisted metrics {unknown}")
    metrics = {}
    for m in wanted:
        value = measured.get(m["name"])
        if value is None and args.trace:
            value = 0.0
        if value is None or not math.isfinite(value):
            sys.exit(f"perfbench: no value for metric {m['name']}")
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}

    rev = git("rev-parse", "--short", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no")
    fingerprint = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "cpu_model": cpu_model(),
        "compiler": out["build"]["compiler"],
        "build_type": out["build"]["build_type"],
        "git_rev": rev or "unknown",
        "git_dirty": None if dirty is None else bool(dirty),
        "setup_processes": len(setup),
    }
    for failure in out["failures"]:
        log("check failed:", failure)
    print(json.dumps({"fingerprint": fingerprint}))
    correct = out["failed"] == 0 and out["attempted"] > 0
    print(json.dumps({"correct": correct, "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
