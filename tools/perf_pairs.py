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

A change that moves the modeled chip on purpose (a scheduling or timing
change) moves the simulated metrics too. `--sim-change` compares such a
change: it prints the same per-seed values and summary for EVERY
end-to-end metric instead of one, and lets simulated metrics differ.

    python3 tools/perf_pairs.py PARENT_DIR CHANGE_DIR --workload chat_paged \\
        --seeds 1-10 --sim-change

With --sim-change, `--workload all` runs the same seeds on every workload
of perfbench/workloads.cpp and gives one verdict over all of them; it
refuses --held-out, since each workload has its own held-out seed.

`--self-test` checks the --sim-change verdict on built-in results and
runs nothing.

Exit status: 0 when every run is correct with no failed operations and
every end-to-end metric other than the host ones (setup_s, peak_rss_mib)
is identical between the two trees at each seed; with --sim-change, 0
when every run is correct with no failed operations and no metric's
change median is worse than the parent's by more than the metric's
BENCHMARK.json bound, on every workload run; 1 otherwise; 2 on a usage
error.
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


def held_out_seeds(tree):
    """Workload name -> held-out seed, in perfbench/workloads.cpp's order."""
    source = (tree / "perfbench" / "workloads.cpp").read_text()
    return {name: int(seed) for name, seed in SPEC_RE.findall(source)}


def workloads_to_run(held_out, workload, seeds, sim_change, allow_held_out):
    """The workloads one invocation runs; a usage error for an unknown name,
    `all` without --sim-change or with --held-out, or an unspent held-out
    seed."""
    if workload == "all":
        if not sim_change:
            usage_error("--workload all needs --sim-change")
        if allow_held_out:
            usage_error("--workload all refuses --held-out: spend each "
                        "workload's held-out seed on its own")
        names = list(held_out)
    elif workload in held_out:
        names = [workload]
    else:
        usage_error(f"workload {workload!r} not in perfbench/workloads.cpp "
                    f"(known: {', '.join(sorted(held_out))})")
    for name in names:
        if held_out[name] in seeds and not allow_held_out:
            usage_error(f"seed {held_out[name]} is {name}'s held-out seed; "
                        "pass --held-out to spend it")
    return names


def run(tree, args, workload, seed):
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    done = subprocess.run(command, cwd=tree, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        print(done.stderr.strip()[-2000:], file=sys.stderr)
        print(f"perf_pairs: {tree} {workload} seed {seed} exited with code "
              f"{done.returncode}",
              file=sys.stderr)
        return None
    return json.loads(lines[-1])


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def runs_sound(seed, results):
    """True when every side's run is correct with no failed operation."""
    ok = True
    for side, result in results.items():
        if not result["correct"] or result["failed"] > 0:
            print(f"perf_pairs: {side} seed {seed}: correct {result['correct']}, "
                  f"failed {result['failed']}", file=sys.stderr)
            ok = False
    return ok


def summarize(pairs, lower_is_better):
    """Prints the wins, medians, quartiles and parent IQR of (parent, change)
    pairs; returns the two medians."""
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
    if parent_median:
        print(f"median ratio change/parent {change_median / parent_median:.3f}")
        print(f"parent IQR {q3 - q1:.6g} = {(q3 - q1) / parent_median:.1%} of its "
              f"median; median gap {gap:.6g} {'>' if gap > q3 - q1 else '<='} IQR")
    return parent_median, change_median


def worse_beyond_bound(metric, parent_median, change_median):
    """True when the change's median is worse than the parent's by more than
    the metric's relative BENCHMARK.json bound."""
    slack = metric["bound"] * abs(parent_median)
    if metric["better"] == "lower":
        return change_median > parent_median + slack
    return change_median < parent_median - slack


def sim_change_report(metrics, rows):
    """Per-metric report over rows of (seed, first side, {side: result}).

    Returns False when a run is unsound or a metric's change median is worse
    than its bound allows."""
    ok = True
    for seed, _, results in rows:
        ok = runs_sound(seed, results) and ok
    if not rows:
        return False
    for name, metric in metrics.items():
        lower_is_better = metric["better"] == "lower"
        print(f"\n{name} ({metric['unit']}, "
              f"{'lower' if lower_is_better else 'higher'} is better, "
              f"bound {metric['bound']:.0%})")
        print(f"{'seed':>6}  {'first':<6}  {'parent':>12}  {'change':>12}  {'ratio':>6}")
        pairs = []
        for seed, first, results in rows:
            parent = results["parent"]["metrics"][name]["value"]
            change = results["change"]["metrics"][name]["value"]
            pairs.append((parent, change))
            ratio = f"{change / parent:>6.3f}" if parent else f"{'-':>6}"
            print(f"{seed:>6}  {first:<6}  {parent:>12.6g}  {change:>12.6g}  {ratio}")
        parent_median, change_median = summarize(pairs, lower_is_better)
        if worse_beyond_bound(metric, parent_median, change_median):
            print(f"perf_pairs: {name}: change median {change_median:.6g} is worse "
                  f"than the parent's {parent_median:.6g} by more than "
                  f"{metric['bound']:.0%}", file=sys.stderr)
            ok = False
    print("\nevery run correct and every median within its bound: "
          f"{'yes' if ok else 'NO'}")
    return ok


def sim_change_verdict(metrics, rows_by_workload):
    """sim_change_report over every workload's rows; one verdict for all."""
    verdicts = {}
    for workload, rows in rows_by_workload.items():
        print(f"\n##### {workload}")
        verdicts[workload] = sim_change_report(metrics, rows)
    if len(verdicts) > 1:
        print("\nper workload: " + ", ".join(
            f"{w} {'ok' if v else 'FAILED'}" for w, v in verdicts.items()))
    return bool(verdicts) and all(verdicts.values())


def self_test():
    """Checks sim_change_report's verdict on built-in results; returns 0/1."""
    metrics = {
        "tpot_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
        "served_share": {"unit": "share", "better": "higher", "bound": 0.25},
    }

    def result(tpot, share, correct=True, failed=0):
        return {"correct": correct, "failed": failed,
                "metrics": {"tpot_p50_ms": {"value": tpot},
                            "served_share": {"value": share}}}

    def rows(change):
        return [(seed, "parent", {"parent": result(24.0 + seed * 0.1, 1.0),
                                  "change": change(seed)})
                for seed in (1, 2, 3)]

    cases = [
        ("simulated gain", rows(lambda s: result(23.0 + s * 0.1, 1.0)), True),
        ("loss inside the bound", rows(lambda s: result(28.0, 0.8)), True),
        ("median worse than the bound", rows(lambda s: result(31.0, 1.0)), False),
        ("higher-better median below the bound", rows(lambda s: result(24.0, 0.7)),
         False),
        ("incorrect run", rows(lambda s: result(24.0, 1.0, correct=s != 2)), False),
        ("failed operation", rows(lambda s: result(24.0, 1.0, failed=int(s == 3))),
         False),
        ("no pairs", [], False),
    ]
    good = rows(lambda s: result(23.0 + s * 0.1, 1.0))
    all_cases = [
        ("all: every workload sound", {"a": good, "b": good}, True),
        ("all: one workload's failed operation",
         {"a": good, "b": rows(lambda s: result(24.0, 1.0, failed=int(s == 1)))},
         False),
        ("all: one workload's median worse than the bound",
         {"a": rows(lambda s: result(31.0, 1.0)), "b": good}, False),
        ("all: one workload without pairs", {"a": good, "b": []}, False),
    ]
    failures = []
    for label, case_rows, want in cases:
        print(f"\n=== self-test: {label} (want {'pass' if want else 'fail'})")
        if sim_change_report(metrics, case_rows) != want:
            failures.append(label)
    for label, by_workload, want in all_cases:
        print(f"\n=== self-test: {label} (want {'pass' if want else 'fail'})")
        if sim_change_verdict(metrics, by_workload) != want:
            failures.append(label)
    cases += all_cases
    held_out = {"a": 9001, "b": 9002}
    usage_cases = [
        ("all with --held-out", ("all", [1, 2], True, True), None),
        ("all without --sim-change", ("all", [1, 2], False, False), None),
        ("all over a held-out seed", ("all", [9002], True, False), None),
        ("all", ("all", [1, 2], True, False), ["a", "b"]),
        ("one workload", ("b", [9002], True, True), ["b"]),
    ]
    for label, (workload, seeds, sim_change, allow), want in usage_cases:
        print(f"\n=== self-test: usage, {label} (want "
              f"{want if want else 'usage error'})")
        try:
            got = workloads_to_run(held_out, workload, seeds, sim_change, allow)
        except SystemExit:
            got = None
        if got != want:
            failures.append(f"usage, {label}")
    cases += usage_cases
    print(f"\nself-test: {len(cases) - len(failures)} of {len(cases)} verdicts right"
          + (f"; wrong: {', '.join(failures)}" if failures else ""))
    return 1 if failures else 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        epilog="Exit 1 on a failed or incorrect run or a simulated metric that "
               "differs between the trees at one seed (with --sim-change: a "
               "metric whose median is worse than its bound).")
    parser.add_argument("parent", type=Path, nargs="?",
                        help="source tree of the parent commit")
    parser.add_argument("change", type=Path, nargs="?", help="source tree of the change")
    parser.add_argument("--workload",
                        help="perfbench workload, or `all` with --sim-change")
    parser.add_argument("--seeds", help="inclusive range A-B, or one seed N")
    parser.add_argument("--metric", default="setup_s", help="end-to-end metric to compare")
    parser.add_argument("--seconds", type=float, default=35.0, help="run budget per run")
    parser.add_argument("--held-out", action="store_true",
                        help="allow the workload's held-out seed")
    parser.add_argument("--sim-change", action="store_true",
                        help="report every end-to-end metric and let simulated "
                             "metrics differ; fail on a median worse than its bound")
    parser.add_argument("--self-test", action="store_true",
                        help="check the --sim-change verdict on built-in results")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.parent is None or args.change is None or not args.workload or not args.seeds:
        usage_error("PARENT_DIR, CHANGE_DIR, --workload and --seeds are required")

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
    workloads = workloads_to_run(held_out_seeds(trees["change"]), args.workload,
                                 seeds, args.sim_change, args.held_out)

    ok = True
    # (seed, first side, {side: result}) of every completed pair, per workload
    rows_by_workload = {workload: [] for workload in workloads}
    pairs = []
    others = {}  # (host metric, side) -> values, for the host metrics not compared
    print(f"{', '.join(workloads)} "
          f"{'every end-to-end metric' if args.sim_change else args.metric}"
          f", {args.seconds:g} s per run, --trace 0")
    if not args.sim_change:
        print(f"{args.metric} ({metrics[args.metric]['unit']}, "
              f"{'lower' if lower_is_better else 'higher'} is better)")
        print(f"{'seed':>6}  {'first':<6}  {'parent':>12}  {'change':>12}  {'ratio':>6}")
    for workload in workloads:
        for index, seed in enumerate(seeds):
            order = ("parent", "change") if index % 2 == 0 else ("change", "parent")
            results = {side: run(trees[side], args, workload, seed) for side in order}
            if any(r is None for r in results.values()):
                ok = False
                continue
            rows_by_workload[workload].append((seed, order[0], results))
            if args.sim_change:
                print(f"{workload} seed {seed} done ({order[0]} first)", flush=True)
                continue
            ok = runs_sound(seed, results) and ok
            for name in metrics:
                if name in HOST_METRICS:
                    continue
                values = [results[side]["metrics"][name]["value"] for side in trees]
                if values[0] != values[1]:
                    print(f"perf_pairs: seed {seed}: {name} differs: parent "
                          f"{values[0]!r}, change {values[1]!r}", file=sys.stderr)
                    ok = False
            for name in HOST_METRICS - {args.metric}:
                for side in trees:
                    others.setdefault((name, side), []).append(
                        results[side]["metrics"][name]["value"])
            parent = results["parent"]["metrics"][args.metric]["value"]
            change = results["change"]["metrics"][args.metric]["value"]
            pairs.append((parent, change))
            ratio = change / parent if parent else float("nan")
            print(f"{seed:>6}  {order[0]:<6}  {parent:>12.6g}  {change:>12.6g}  "
                  f"{ratio:>6.3f}", flush=True)

    if args.sim_change:
        return 0 if sim_change_verdict(metrics, rows_by_workload) and ok else 1

    if pairs:
        summarize(pairs, lower_is_better)
        print(f"median of pair ratios {statistics.median(c / p for p, c in pairs):.3f}")
        for name in sorted(HOST_METRICS - {args.metric}):
            print(f"{name} median: parent {statistics.median(others[name, 'parent']):.6g}, "
                  f"change {statistics.median(others[name, 'change']):.6g}")
    print("simulated metrics identical and every run correct: "
          f"{'yes' if ok else 'NO'}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
