#!/usr/bin/env python3
"""Paired comparison of two checkouts on one perfbench workload.

    python3 scripts/bench_compare.py --paired PARENT_DIR CHANGE_DIR \\
        --workload W --pairs N [--seconds 35] [--trace 0|1] [--first-seed 1]

PARENT_DIR and CHANGE_DIR are checkouts of the two commits, e.g. made with
`git archive <rev> | tar -x -C DIR`. Each pair runs `perfbench/run.py` once
in each, on one run seed (first-seed, then first-seed + 1, ...), one after
the other; the parent goes first in the first pair and the order
alternates after that, so a drift of the host over time hits both sides
alike. Each run builds its checkout's `.bench_build/` on first use.

A pair in which either run reports `correct: false` (a digest mismatch or a
failed check) is refused: the script stops with exit code 1 and prints no
comparison. Otherwise it prints, for every metric of the run (the
end-to-end metrics of BENCHMARK.json at --trace 0, the per-layer ones at
--trace 1): the median and interquartile range of each side, the median of
the per-pair ratios change/parent, and in how many pairs the change was
better, by the metric's own direction in the parent's BENCHMARK.json.

Standard library only.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout, workload, seed, seconds, trace):
    """Runs perfbench once in `checkout`; returns its final JSON record."""
    command = [sys.executable, str(checkout / "perfbench" / "run.py"),
               "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(command, cwd=checkout, capture_output=True,
                         text=True)
    lines = out.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(out.stderr[-2000:])
        sys.exit(f"bench_compare: {checkout} seed {seed} printed no result "
                 f"(exit {out.returncode})")


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def main():
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--paired", nargs=2, required=True, type=Path,
                        metavar=("PARENT_DIR", "CHANGE_DIR"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    parent, change = (d.resolve() for d in args.paired)
    for checkout in (parent, change):
        if not (checkout / "perfbench" / "run.py").is_file():
            parser.error(f"{checkout} has no perfbench/run.py")

    manifest = json.loads((parent / "BENCHMARK.json").read_text())
    better = {m["name"]: m["better"]
              for m in manifest["end_to_end"] + manifest["per_layer"]}

    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = args.first_seed + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        pair = {}
        for side in order:
            checkout = parent if side == "parent" else change
            pair[side] = run_once(checkout, args.workload, seed,
                                  args.seconds, args.trace)
        for side in order:
            if not pair[side].get("correct"):
                sys.exit(f"bench_compare: pair {i + 1} (seed {seed}): the "
                         f"{side} run is not correct; no comparison made")
        runs["parent"].append(pair["parent"])
        runs["change"].append(pair["change"])
        run_s = {side: pair[side]["metrics"].get("run_s", {}).get("value")
                 for side in pair}
        print(f"pair {i + 1}/{args.pairs} seed {seed} ({order[0]} first): "
              f"parent run_s={run_s['parent']}, "
              f"change run_s={run_s['change']}",
              file=sys.stderr)

    print(f"workload {args.workload}, {args.pairs} pairs, {args.seconds:g} s "
          f"per run, trace {args.trace}")
    print(f"{'metric':<28} {'parent median':>14} {'(IQR)':>10} "
          f"{'change median':>14} {'(IQR)':>10} {'ratio':>7} {'wins':>6}")
    for name, spec in runs["parent"][0]["metrics"].items():
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        ratios = [cv / pv for pv, cv in zip(p, c) if pv != 0]
        lower = better.get(name, "lower") == "lower"
        wins = sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(p, c))
        p1, p3 = quartiles(p)
        c1, c3 = quartiles(c)
        ratio = statistics.median(ratios) if ratios else float("nan")
        print(f"{name:<28} {statistics.median(p):>14.6g} {p3 - p1:>10.3g} "
              f"{statistics.median(c):>14.6g} {c3 - c1:>10.3g} "
              f"{ratio:>7.4f} {wins:>3}/{args.pairs} [{spec['unit']}, "
              f"{'lower' if lower else 'higher'} is better]")
    return 0


if __name__ == "__main__":
    sys.exit(main())
