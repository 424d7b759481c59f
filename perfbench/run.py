#!/usr/bin/env python3
"""Builds and runs the EdgeMM layered benchmark from a source checkout.

Run from the repository root:

    python3 perfbench/run.py --workload zoo_detailed --seed 1 --seconds 30 --trace 0

The first run configures and builds perfbench/ (the simulator library from
src/ plus the benchmark) into $CARGO_TARGET_DIR/perfbench, default
.bench_build/perfbench; later runs only rebuild what changed. The benchmark
binary prints progress on stderr and its result object as the last line of
stdout. With --trace 1 it also writes a Chrome trace-event file (open it
in Perfetto) under the build directory. This script checks that the result
reports exactly the metrics BENCHMARK.json lists for the mode, and exits
non-zero on any build, run or check failure.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build(source_dir, build_dir):
    build_dir.mkdir(parents=True, exist_ok=True)
    log_path = build_dir / "build.log"
    with open(log_path, "w") as log:
        steps = []
        if not (build_dir / "CMakeCache.txt").exists():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            steps.append(["cmake", "-S", str(source_dir), "-B", str(build_dir),
                          "-DCMAKE_BUILD_TYPE=Release", *generator])
        steps.append(["cmake", "--build", str(build_dir), "-j4",
                      "--target", "edgemm_perfbench"])
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail(f"build step {step[:2]} did not finish: {err}")
            if code != 0:
                log.flush()
                tail = log_path.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed; full log in {log_path}")


def expected_metrics(root, trace):
    spec = json.loads((root / "BENCHMARK.json").read_text())
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    source_dir = Path(__file__).resolve().parent
    if not (root / "src" / "serve" / "serving_engine.hpp").is_file():
        fail("run from the repository root: simulator sources under src/ not found")
    build_dir = root / os.environ.get("CARGO_TARGET_DIR", ".bench_build") / "perfbench"
    build(source_dir, build_dir)

    command = [str(build_dir / "edgemm_perfbench"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        trace_dir = build_dir / "traces"
        trace_dir.mkdir(exist_ok=True)
        command += ["--trace-out", str(trace_dir / f"{args.workload}-seed{args.seed}.json")]
    started = time.monotonic()
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"benchmark did not finish within {RUN_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        if lines:
            print(lines[-1], file=sys.stderr)
        fail(f"benchmark exited with code {run.returncode}")
    result = json.loads(lines[-1])
    reported = {name: m["unit"] for name, m in result["metrics"].items()}
    expected = expected_metrics(root, args.trace)
    if reported != expected:
        missing = sorted(set(expected) - set(reported))
        extra = sorted(set(reported) - set(expected))
        fail(f"metrics differ from BENCHMARK.json: missing {missing}, extra {extra}, "
             "or units differ")
    print(f"perfbench: run took {time.monotonic() - started:.1f} s", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
