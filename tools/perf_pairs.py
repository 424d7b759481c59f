#!/usr/bin/env python3
"""Paired perfbench runs of two source trees, compared on one metric (stdlib only).

Host metrics such as `setup_s` swing with the machine's state, so a
claim compares two commits in pairs: each seed runs once in each tree,
and the tree that runs first alternates from pair to pair. Each tree
runs `python3 perfbench/run.py --workload W --seed N --seconds S
--trace 0` from its own root and builds into its own `.bench_build/`
(CARGO_TARGET_DIR is dropped so the two builds cannot collide).

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload zoo_detailed \\
        --seeds 1-10 --metric setup_s --seconds 35

Prints each pair's values, how many pairs the change wins, each side's
median and quartiles, the ratio of the change's median to the parent's,
the parent's interquartile range over its median, and both sides' medians
of the other host metrics. Metric names and their better direction come from
BENCHMARK.json in CHANGE_DIR. The workload's held-out seed (read from
perfbench/workloads.cpp) is refused unless --held-out is passed: spend
it once, after the other seeds.

Exit status: 0 when every run is correct with no failed operations and
every end-to-end metric other than the host ones (setup_s, peak_rss_mib)
is identical between the two trees at each seed; 1 otherwise; 2 on a
usage error.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

# End-to-end metrics measured on the host; every other one is simulated
# and must be bit-identical between two trees that model the same chip.
HOST_METRICS = {"setup_s", "peak_rss_mib"}

# One entry of perfbench's workload table: {"name", "why" "...", seed, detailed}.
SPEC_RE = re.compile(r'\{"(\w+)",(?:\s*"[^"]*")+,\s*(\d+),\s*(?:true|false)\}')


def usage_error(message):
    print(f"perf_pairs: {message}", file=sys.stderr)
    sys.exit(2)


def parse_seeds(text):
    first, sep, last = text.partition("-")
    try:
        seeds = list(range(int(first), int(last if sep else first) + 1))
    except ValueError:
        usage_error(f"--seeds takes A-B or N, not {text!r}")
    if not seeds:
        usage_error(f"--seeds {text!r} is empty")
    return seeds


def held_out_seed(tree, workload):
    source = (tree / "perfbench" / "workloads.cpp").read_text()
    seeds = {name: int(seed) for name, seed in SPEC_RE.findall(source)}
    if workload not in seeds:
        usage_error(f"workload {workload!r} not in perfbench/workloads.cpp "
                    f"(known: {', '.join(sorted(seeds))})")
    return seeds[workload]


def run(tree, args, seed):
    command = [sys.executable, "perfbench/run.py", "--workload", args.workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stderr.strip()[-2000:], file=sys.stderr)
        print(f"perf_pairs: {tree} seed {seed} exited with code {done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Exit 1 on a failed or incorrect run or a simulated metric that "
               "differs between the trees at one seed.")
    parser.add_argument("parent", type=Path, help="source tree of the parent commit")
    parser.add_argument("change", type=Path, help="source tree of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="inclusive range A-B, or one seed N")
    parser.add_argument("--metric", default="setup_s", help="end-to-end metric to compare")
    parser.add_argument("--seconds", type=float, default=35.0, help="run budget per run")
    parser.add_argument("--held-out", action="store_true",
                        help="allow the workload's held-out seed")
    args = parser.parse_args()

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    for tree in trees.values():
        if not (tree / "perfbench" / "run.py").is_file():
            usage_error(f"{tree} has no perfbench/run.py")
    spec = json.loads((trees["change"] / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"]}
    if args.metric not in metrics:
        usage_error(f"--metric must be one of {', '.join(metrics)}")
    lower_is_better = metrics[args.metric]["better"] == "lower"
    seeds = parse_seeds(args.seeds)
    held_out = held_out_seed(trees["change"], args.workload)
    if held_out in seeds and not args.held_out:
        usage_error(f"seed {held_out} is {args.workload}'s held-out seed; "
                    "pass --held-out to spend it")

    ok = True
    pairs = []
    others = {}  # (host metric, side) -> values, for the host metrics not compared
    print(f"{args.workload} {args.metric} ({metrics[args.metric]['unit']}, "
          f"{'lower' if lower_is_better else 'higher'} is better), "
          f"{args.seconds:g} s per run, --trace 0")
    print(f"{'seed':>6}  {'first':<6}  {'parent':>12}  {'change':>12}  {'ratio':>6}")
    for index, seed in enumerate(seeds):
        order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
        results = {side: run(trees[side], args, seed) for side in order}
        if any(r is None for r in results.values()):
            ok = False
            continue
        for side, result in results.items():
            if not result["correct"] or result["failed"] > 0:
                print(f"perf_pairs: {side} seed {seed}: correct {result['correct']}, "
                      f"failed {result['failed']}", file=sys.stderr)
                ok = False
        for name in metrics:
            if name in HOST_METRICS:
                continue
            values = [results[side]["metrics"][name]["value"] for side in trees]
            if values[0] != values[1]:
                print(f"perf_pairs: seed {seed}: {name} differs: parent {values[0]!r}, "
                      f"change {values[1]!r}", file=sys.stderr)
                ok = False
        for name in HOST_METRICS - {args.metric}:
            for side in trees:
                others.setdefault((name, side), []).append(results[side]["metrics"][name]["value"])
        parent = results["parent"]["metrics"][args.metric]["value"]
        change = results["change"]["metrics"][args.metric]["value"]
        pairs.append((parent, change))
        ratio = change / parent if parent else float("nan")
        print(f"{seed:>6}  {order[0]:<6}  {parent:>12.6g}  {change:>12.6g}  {ratio:>6.3f}",
              flush=True)

    if pairs:
        parents = [p for p, _ in pairs]
        changes = [c for _, c in pairs]
        wins = sum(1 for p, c in pairs if (c < p if lower_is_better else c > p))
        parent_median = statistics.median(parents)
        change_median = statistics.median(changes)
        q1, q3 = quartiles(parents)
        c1, c3 = quartiles(changes)
        gap = abs(parent_median - change_median)
        print(f"change wins {wins} of {len(pairs)} pairs")
        print(f"median (quartiles): parent {parent_median:.6g} ({q1:.6g}-{q3:.6g}), "
              f"change {change_median:.6g} ({c1:.6g}-{c3:.6g})")
        print(f"median ratio change/parent {change_median / parent_median:.3f} "
              f"(median of pair ratios {statistics.median(c / p for p, c in pairs):.3f})")
        print(f"parent IQR {q3 - q1:.6g} = {(q3 - q1) / parent_median:.1%} of its median; "
              f"median gap {gap:.6g} {'>' if gap > q3 - q1 else '<='} IQR")
        for name in sorted(HOST_METRICS - {args.metric}):
            print(f"{name} median: parent {statistics.median(others[name, 'parent']):.6g}, "
                  f"change {statistics.median(others[name, 'change']):.6g}")
    print("simulated metrics identical and every run correct: "
          f"{'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
