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

`--json OLD.json NEW.json` compares two `BENCH_serving_trace.json`
files key by key instead. It masks only the host-time keys: those
ending in `wall_ms` or `speedup`, and `throughput_8_workers`. Nothing
under `self_checks` is masked, since each entry there is a verdict. It
prints every changed, removed and added key, then those three counts per
top-level section:

    python3 tools/sim_diff.py --json old/BENCH_serving_trace.json BENCH_serving_trace.json

`--self-test` runs the masks on built-in sample lines and JSON pairs
instead: every host-time field must be masked, and no yes/NO verdict or
simulated number may be (exit 1 if either fails).
"""

import difflib
import json
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


# --self-test samples, taken from a real `serving_trace --fast` run.
# Each HOST_PAIRS pair differs only in host time, so both lines must mask
# to the same text (and that text must carry the host marker).
HOST_PAIRS = [
    ("  [section wall 25282.5 ms, 3 cases, 3 workers]",
     "  [section wall 31.0 ms, 3 cases, 1 worker]"),
    ("  [section wall 1269.9 ms]", "  [section wall 980.2 ms]"),
    ("  s1 sequential                det  191318.0 ms  fast  190012.8 ms  "
     "drift -0.68 %  speedup  396.7x",
     "  s1 sequential                det  191318.0 ms  fast  190012.8 ms  "
     "drift -0.68 %  speedup   23.2x"),
    ("single-replay speedup on the §6 zoo trace >= 10x: 72.7x  yes",
     "single-replay speedup on the §6 zoo trace >= 10x: 130.4x  yes"),
    ("fast-tier speedup on the §2 policy sweep >= 5x: 64.4x  yes",
     "fast-tier speedup on the §2 policy sweep >= 5x: 9.0x  yes"),
    ("aggregate: detailed 70694.0 ms -> fast 653.4 ms over 16 cases (108x)",
     "aggregate: detailed 41000.5 ms -> fast 201.9 ms over 16 cases (203x)"),
    ("sweep throughput at 8 workers >= 4x sequential: 5.2x  yes",
     "sweep throughput at 8 workers >= 4x sequential: 7.9x  yes"),
    ("sweep throughput at 8 workers: 2.9x (gate skipped: 4 hardware threads)",
     "sweep throughput at 8 workers: 1.0x (gate skipped: 1 hardware thread)"),
]

# Each SIM_PAIRS pair differs in a verdict or a simulated number, so the
# masked lines must still differ.
SIM_PAIRS = [
    ("continuous batching beats sequential on makespan: yes",
     "continuous batching beats sequential on makespan: NO"),
    ("single-replay speedup on the §6 zoo trace >= 10x: 72.7x  yes",
     "single-replay speedup on the §6 zoo trace >= 10x: 72.7x  NO"),
    ("fast-tier speedup on the §2 policy sweep >= 5x: 64.4x  yes",
     "fast-tier speedup on the §2 policy sweep >= 5x: 64.4x  NO"),
    ("sweep throughput at 8 workers >= 4x sequential: 5.2x  yes",
     "sweep throughput at 8 workers >= 4x sequential: 5.2x  NO"),
    ("  s1 sequential                det  191318.0 ms  fast  190012.8 ms  "
     "drift -0.68 %  speedup  396.7x",
     "  s1 sequential                det  191318.0 ms  fast  190012.8 ms  "
     "drift -0.69 %  speedup  396.7x"),
    ("  s1 sequential                det  191318.0 ms  fast  190012.8 ms  "
     "drift -0.68 %  speedup  396.7x",
     "  s1 sequential                det  191318.1 ms  fast  190012.9 ms  "
     "drift -0.68 %  speedup  396.7x"),
    ("aggregate: detailed 70694.0 ms -> fast 653.4 ms over 16 cases (108x)",
     "aggregate: detailed 70694.0 ms -> fast 653.4 ms over 15 cases (108x)"),
    ("fast tier drifts under 1% on every section (worst -0.91 %, counts "
     "equal): yes",
     "fast tier drifts under 1% on every section (worst -0.92 %, counts "
     "equal): yes"),
    ("makespan speedup over sequential: 6.18x (continuous), 9.58x (+BW mgmt)",
     "makespan speedup over sequential: 6.18x (continuous), 9.59x (+BW mgmt)"),
    ("replica tokens/s scales >= 3x from 1 to 4 chips (all requests "
     "served): 3.48x  yes",
     "replica tokens/s scales >= 3x from 1 to 4 chips (all requests "
     "served): 3.47x  yes"),
    ("  4 chips   96 done  makespan   12363.0 ms  p99    8510.9 ms     "
     "219.8 tok/s  (3.48x)",
     "  4 chips   96 done  makespan   12363.0 ms  p99    8510.9 ms     "
     "219.8 tok/s  (3.49x)"),
]


# JSON pairs for --self-test. Each JSON_HOST_PAIRS pair differs only in
# host-time keys, so the key-by-key diff must be empty; each
# JSON_SIM_PAIRS pair differs in a simulated value, a verdict or a key,
# so the diff must not be.
JSON_HOST_PAIRS = [
    ({"sections": [{"label": "s1 sequential", "wall_ms": 20312.5, "makespan_ms": 191318.0}]},
     {"sections": [{"label": "s1 sequential", "wall_ms": 30120.1, "makespan_ms": 191318.0}]}),
    ({"fidelity": {"detailed_wall_ms": 70694.0, "fast_wall_ms": 653.4,
                   "cases": [{"drift_pct": -0.68, "speedup": 396.7}]}},
     {"fidelity": {"detailed_wall_ms": 41000.5, "fast_wall_ms": 201.9,
                   "cases": [{"drift_pct": -0.68, "speedup": 23.2}]}}),
    ({"fast_sweep": {"policy_sweep_speedup": 64.4, "zoo_single_replay_speedup": 72.7,
                     "throughput_8_workers": 5.2, "workers8_wall_ms": 812.0}},
     {"fast_sweep": {"policy_sweep_speedup": 9.0, "zoo_single_replay_speedup": 130.4,
                     "throughput_8_workers": 7.9, "workers8_wall_ms": 640.3}}),
]
JSON_SIM_PAIRS = [
    ({"paged_kv": {"cases": [{"makespan_ms": 25407.1}]}},
     {"paged_kv": {"cases": [{"makespan_ms": 25407.2}]}}),
    ({"cluster": {"speedup_vs_1chip": 3.48}}, {"cluster": {"speedup_vs_1chip": 3.49}}),
    ({"fast_sweep": {"policy_sweep_speedup_ok": True}},
     {"fast_sweep": {"policy_sweep_speedup_ok": False}}),
    ({"self_checks": {"throughput_ok": True, "all_passed": True}},
     {"self_checks": {"throughput_ok": False, "all_passed": True}}),
    ({"self_checks": {"wall_ms": True}}, {"self_checks": {"wall_ms": False}}),
    ({"paged_kv": {"cases": [{"encoder_cache_hits": 44}]}},
     {"paged_kv": {"cases": [{"encoder_cache_hits": 44, "prefix_cache_hits": 44}]}}),
    ({"paged_kv": {"cases": [{"completed": 48}, {"completed": 48}]}},
     {"paged_kv": {"cases": [{"completed": 48}]}}),
]


def self_test() -> int:
    failures = []
    for a, b in HOST_PAIRS:
        if mask(a) != mask(b) or HOST not in mask(a):
            failures.append(f"host time left unmasked:\n  {mask(a)}\n  {mask(b)}")
    for a, b in SIM_PAIRS:
        if mask(a) == mask(b):
            failures.append(f"simulated content masked away:\n  {a}\n  {b}")
    for a, b in JSON_HOST_PAIRS:
        if json_diff(a, b):
            failures.append(f"host-time key left unmasked:\n  {a}\n  {b}")
    for a, b in JSON_SIM_PAIRS:
        if not json_diff(a, b):
            failures.append(f"simulated key masked away:\n  {a}\n  {b}")
    for failure in failures:
        print(failure)
    total = len(HOST_PAIRS) + len(SIM_PAIRS) + len(JSON_HOST_PAIRS) + len(JSON_SIM_PAIRS)
    print(f"sim_diff self-test: {total - len(failures)} of {total} sample pairs right")
    return 1 if failures else 0


def mask(line: str) -> str:
    for pattern, replacement in MASKS:
        line = pattern.sub(replacement, line)
    return line


def masked_lines(path: str) -> list:
    with open(path, encoding="utf-8") as fh:
        return [mask(line.rstrip("\n")) for line in fh]


def host_key(path: tuple) -> bool:
    """True for a host-time JSON key: never under self_checks."""
    if path[0] == "self_checks" or not isinstance(path[-1], str):
        return False
    key = path[-1]
    return key.endswith("wall_ms") or key.endswith("speedup") or key == "throughput_8_workers"


def flatten(node, path=()) -> dict:
    """Maps every leaf's key path (dict keys and list indices) to its value."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return {path: node}
    leaves = {}
    for key, child in items:
        leaves.update(flatten(child, path + (key,)))
    return leaves


def json_diff(old, new) -> list:
    """(mark, path, text) of every changed (~), removed (-) and added (+)
    leaf of two JSON documents, host-time keys masked, sorted by path."""
    a = {p: v for p, v in flatten(old).items() if not host_key(p)}
    b = {p: v for p, v in flatten(new).items() if not host_key(p)}
    rows = [("~", p, f"{a[p]!r} -> {b[p]!r}") for p in a.keys() & b.keys() if a[p] != b[p]]
    rows += [("-", p, repr(a[p])) for p in a.keys() - b.keys()]
    rows += [("+", p, repr(b[p])) for p in b.keys() - a.keys()]
    return sorted(rows, key=lambda row: str(row[1]))


def dotted(path: tuple) -> str:
    return "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)[1:]


def main_json(old_path: str, new_path: str) -> int:
    try:
        with open(old_path, encoding="utf-8") as fh:
            old = json.load(fh)
        with open(new_path, encoding="utf-8") as fh:
            new = json.load(fh)
    except (OSError, ValueError) as err:
        print(f"sim_diff: {err}", file=sys.stderr)
        return 2
    rows = json_diff(old, new)
    if not rows:
        print(f"sim_diff: simulated JSON identical ({len(flatten(new))} keys, "
              "host-time keys masked)")
        return 0
    for mark, path, text in rows:
        print(f"{mark} {dotted(path)}: {text}")
    for section in sorted({path[0] for _, path, _ in rows}):
        counts = {m: sum(1 for mark, path, _ in rows if mark == m and path[0] == section)
                  for m in "~-+"}
        print(f"  {section}: {counts['~']} changed, {counts['-']} removed, "
              f"{counts['+']} added")
    print(f"sim_diff: simulated JSON differs ({len(rows)} keys)", file=sys.stderr)
    return 1


def main(argv) -> int:
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) == 4 and argv[1] == "--json":
        return main_json(argv[2], argv[3])
    if len(argv) != 3:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        print("usage: tools/sim_diff.py BASELINE.txt CANDIDATE.txt | "
              "--json OLD.json NEW.json | --self-test", file=sys.stderr)
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
