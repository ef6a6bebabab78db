#!/usr/bin/env python3
"""Builds and runs the wall-clock benchmark of the real library stack.

Run from the repository root:

    python3 wallbench/run.py --workload query_zipf --seed 1 --seconds 25 --trace 0

The C++ driver (wallbench/src) is built into $CARGO_TARGET_DIR/wallbench
(default .bench_build/wallbench) on first use. Its report is passed
through; the last line printed is one JSON object with the end-to-end
metrics named in BENCHMARK.json (--trace 0) or the per-layer ones
(--trace 1).

Other modes:
    --all                       run every workload untraced, one after the
                                other, and print each full report
    --self-test                 build and run the benchmark's self-tests
    --tracing-overhead          run each workload untraced and traced on the
                                same seed and print the latency difference
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "wallbench"
RUN_TIMEOUT_S = 170


def log(message):
    print(f"wallbench: {message}", file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "wallbench"


def build():
    """Configures (once) and builds the driver; returns the build dir."""
    out = build_dir()
    jobs = str(min(4, os.cpu_count() or 1))
    if not (out / "CMakeCache.txt").exists():
        configure = ["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(out), "-j", jobs, "--target",
                    "wallbench", "wallbench_selftest"],
                   check=True, stdout=sys.stderr)
    return out


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def metric_names(trace):
    return [m["name"] for m in spec()["per_layer" if trace else "end_to_end"]]


def workloads():
    return [w["name"] for w in spec()["workloads"]]


def run_driver(binary, workload, seed, seconds, trace, echo=True):
    """Runs one workload; returns the driver's final JSON object."""
    cmd = [str(binary), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                          timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload}: driver exited {proc.returncode}")
    if echo:
        for line in lines[:-1]:
            print(line)
    return json.loads(lines[-1])


def select(result, names):
    metrics = {}
    for name in names:
        if name not in result["metrics"]:
            raise RuntimeError(f"driver did not report metric {name}")
        m = result["metrics"][name]
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def tracing_overhead(binary, seed, seconds):
    print(f"tracing overhead, seed {seed}, {seconds} s per run")
    for workload in workloads():
        plain = run_driver(binary, workload, seed, seconds, 0, echo=False)
        traced = run_driver(binary, workload, seed, seconds, 1, echo=False)
        a = plain["metrics"]["latency_p50_ms"]["value"]
        b = traced["metrics"]["latency_p50_ms"]["value"]
        name = "vote_round_s" if workload == "vote_round" else "query_p50_ms"
        print(f"{workload:12s} {name}: untraced {a:.4f} ms, traced {b:.4f} ms, "
              f"overhead {b - a:+.4f} ms ({(b - a) / a * 100:+.1f}%)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true")
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--tracing-overhead", action="store_true")
    args = parser.parse_args()

    try:
        out = build()
        if args.self_test:
            return subprocess.run([str(out / "wallbench_selftest")]).returncode
        if args.tracing_overhead:
            tracing_overhead(out / "wallbench", args.seed, args.seconds)
            return 0
        if args.all:
            correct = True
            for workload in workloads():
                result = run_driver(out / "wallbench", workload, args.seed,
                                    args.seconds, 0)
                correct = correct and result["correct"]
            return 0 if correct else 1
        if not args.workload:
            parser.error("--workload is required")
        names = metric_names(args.trace)
        result = run_driver(out / "wallbench", args.workload, args.seed,
                            args.seconds, args.trace)
        print(json.dumps(select(result, names)), flush=True)
        return 0
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            RuntimeError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
