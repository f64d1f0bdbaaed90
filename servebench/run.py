#!/usr/bin/env python3
"""Builds the serving benchmark from this checkout and runs one workload.

    python3 servebench/run.py --workload fleet_batch --seed 1 --seconds 10 --trace 0

Run it from the repository root. The build goes to .bench_build/servebench,
and inputs, checkpoints, traces and results go under .bench_build/. The last
line of standard output is the JSON result. The exit code is not 0, and no
result is printed, when the build fails, the run fails, or an output differs
from a sequential scan.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build"
BUILD = OUT / "servebench"
RUN_TIMEOUT_S = 170


def run_to_stderr(cmd):
    """Runs a build step with its output on stderr; exits on failure."""
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        print("servebench: build step failed: " + " ".join(cmd), file=sys.stderr)
        sys.exit(1)


def build():
    if not any((BUILD / f).exists() for f in ("build.ninja", "Makefile")):
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        run_to_stderr(configure)
    jobs = str(min(4, os.cpu_count() or 1))
    run_to_stderr(["cmake", "--build", str(BUILD), "--target", "servebench",
                   "-j", jobs])


def binary_id():
    """Identifies the built benchmark, and with it the library it links."""
    return hashlib.sha256((BUILD / "servebench").read_bytes()).hexdigest()[:16]


def result_path(workload, seed, trace, binary):
    return OUT / "results" / f"{workload}-seed{seed}-trace{trace}-{binary}.json"


def overhead_lines(workload, seed, binary, traced):
    """Traced minus untraced end-to-end values, when this checkout holds an
    untraced run of the same binary, workload and seed."""
    untraced_path = result_path(workload, seed, 0, binary)
    if not untraced_path.exists():
        return ["tracing overhead: no untraced run of this binary, workload "
                "and seed in this checkout yet"]
    untraced = json.loads(untraced_path.read_text())["metrics"]
    lines = []
    for name, metric in traced["metrics"].items():
        if not name.startswith("traced."):
            continue
        base = untraced.get(name[len("traced."):])
        if base is None or base["value"] == 0:
            continue
        delta = metric["value"] - base["value"]
        lines.append(f"tracing overhead: {name[len('traced.'):]} "
                     f"{delta:+.6g} {metric['unit']} "
                     f"({100.0 * delta / base['value']:+.2f}%)")
    return lines


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    build()
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    trace_file = OUT / "traces" / f"{args.workload}-seed{args.seed}.json"
    cmd = [str(BUILD / "servebench"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--work-dir", str(work),
           "--trace-file", str(trace_file)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("servebench: run timed out", file=sys.stderr)
        sys.exit(1)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout)
        sys.exit(proc.returncode or 1)
    result = json.loads(lines[-1])

    binary = binary_id()
    path = result_path(args.workload, args.seed, args.trace, binary)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(lines[-1] + "\n")
    extra = (overhead_lines(args.workload, args.seed, binary, result)
             if args.trace else [])
    print("\n".join(lines[:-1] + extra + [lines[-1]]))


if __name__ == "__main__":
    main()
