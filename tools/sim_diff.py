#!/usr/bin/env python3
"""Diffs the simulated output of two `serving_trace --fast` runs (stdlib only).

The simulator is deterministic, so two builds that model the same chip
print the same tables. What legitimately differs between two runs is
host time: the `[section wall ...]` lines, the §7 per-case and sweep
host speedups, the aggregate detailed/fast wall times and the parallel
sweep throughput. This tool masks exactly those fields, diffs the rest
and prints a unified diff of whatever simulated content moved.

Capture each side's stdout, then compare:

    ./build/serving_trace --fast > new.txt
    python3 tools/sim_diff.py old.txt new.txt

Exit status: 0 when the masked outputs are identical, 1 when they
differ, 2 on a usage or read error.
"""

import difflib
import re
import sys

HOST = "<host>"

# (pattern, replacement) applied to every line, in order. Each pattern
# matches host-time content only; simulated numbers on the same line
# (makespans, drift, verdicts) stay in the comparison.
MASKS = [
    # Per-section wall clock: "  [section wall 25798.0 ms, 3 cases, 3 workers]".
    (re.compile(r"^(\s*)\[section wall [^\]]*\]"), r"\1[section wall " + HOST + "]"),
    # §7 per-case rows: "... drift -0.68 %  speedup  257.1x".
    (re.compile(r"(drift [^%]*%\s+speedup)\s+[\d.]+x"), r"\1 " + HOST + "x"),
    # §7 host-speedup gates: "single-replay speedup on ... >= 10x: 71.3x  yes".
    (re.compile(r"^((?:single-replay|fast-tier) speedup [^:]*: )[\d.]+x"),
     r"\g<1>" + HOST + "x"),
    # §7 aggregate: "aggregate: detailed 73226.8 ms -> fast 630.7 ms over 16 cases (116x)".
    (re.compile(r"^aggregate: detailed [\d.]+ ms -> fast [\d.]+ ms (over \d+ cases) \([\d.]+x\)"),
     r"aggregate: detailed " + HOST + " ms -> fast " + HOST + r" ms \1 (" + HOST + "x)"),
    # §7 sweep throughput, with or without its gate; the skipped form
    # also names the host's hardware-thread count.
    (re.compile(r"^(sweep throughput at \d+ workers[^:]*: )[\d.]+x"), r"\g<1>" + HOST + "x"),
    (re.compile(r"\(gate skipped: \d+ hardware threads?\)"),
     "(gate skipped: " + HOST + " hardware threads)"),
]


def mask(line: str) -> str:
    for pattern, replacement in MASKS:
        line = pattern.sub(replacement, line)
    return line


def masked_lines(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [mask(line.rstrip("\n")) for line in fh]


def main(argv) -> int:
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: tools/sim_diff.py BASELINE.txt CANDIDATE.txt", file=sys.stderr)
        return 2
    try:
        old, new = masked_lines(argv[1]), masked_lines(argv[2])
    except OSError as err:
        print(f"sim_diff: {err}", file=sys.stderr)
        return 2
    diff = list(difflib.unified_diff(old, new, argv[1], argv[2], lineterm=""))
    if diff:
        print("\n".join(diff))
        changed = sum(1 for d in diff[2:] if d[:1] in "+-")
        print(f"sim_diff: simulated output differs ({changed} changed lines)",
              file=sys.stderr)
        return 1
    print(f"sim_diff: simulated output identical ({len(new)} lines, host-time fields masked)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
