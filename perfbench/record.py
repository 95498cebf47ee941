#!/usr/bin/env python3
"""Records perfbench/expected.json: the reference digest of every workload
at every input seed, taken from the reference paths rather than from the
code being timed.

    python3 perfbench/record.py --table1-maxload build/bench/table1_maxload

  table1_grid  the CSV table1_maxload --csv prints at --threads=4
  round_big    the final loads of the serial kd_choice_process
  heavy_ff     the warmup=ff observation (max load, gap, counters), checked
               inside round_big's traced run
  serve_churn  the allocation log of run_serial_oracle

Needs .bench_build/kdc_perfbench (run perfbench/run.py once) and a
table1_maxload binary built from the same sources.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCH_BIN = HERE.parent / ".bench_build" / "kdc_perfbench"
SEEDS = range(1, 17)
TABLE1_BINS = 32768


def fnv1a(data):
    """64-bit FNV-1a, the same function as perfbench/trace.hpp."""
    h = 0xcbf29ce484222325
    for byte in data:
        h = ((h ^ byte) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def table1_digest(binary, seed):
    out = subprocess.run(
        [binary, f"--n={TABLE1_BINS}", "--reps=10", f"--seed={seed}",
         "--threads=4", "--kernel=perbin", "--csv"],
        capture_output=True, check=True).stdout
    return {"digest": fnv1a(out.split(b"\nCSV:\n", 1)[1])}


def reference_digest(workload, seed):
    out = subprocess.run(
        [str(BENCH_BIN), "--record", f"--workload={workload}",
         f"--seed={seed}"], capture_output=True, text=True, check=True)
    report = json.loads(out.stdout.strip().splitlines()[-1])
    (digest,) = report["digests"].values()
    entry = {"digest": digest}
    for name, metric in report["metrics"].items():
        entry[name] = metric["value"]
    return entry


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--table1-maxload", required=True)
    args = parser.parse_args()

    recorded = {}
    details = {}
    for workload in ("table1_grid", "round_big", "heavy_ff", "serve_churn"):
        recorded[workload] = {}
        for seed in SEEDS:
            entry = (table1_digest(args.table1_maxload, seed)
                     if workload == "table1_grid"
                     else reference_digest(workload, seed))
            recorded[workload][str(seed)] = entry.pop("digest")
            if entry:
                details.setdefault(workload, {})[str(seed)] = entry
            print(workload, seed, recorded[workload][str(seed)], entry,
                  file=sys.stderr)
    (HERE / "expected.json").write_text(json.dumps(
        {"recorded_by": "perfbench/record.py", "digests": recorded,
         "values": details}, indent=1) + "\n")


if __name__ == "__main__":
    main()
