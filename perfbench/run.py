#!/usr/bin/env python3
"""The layered benchmark's one command.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds the kdchoice library and the harness from the enclosing checkout into
.bench_build/ (first use only), runs the harness self-tests, runs one
workload in one process, checks its output digests against the ones
recorded in perfbench/expected.json, prints every metric by name and unit,
and ends with one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 its
per-layer metrics. The exit code is 0 only when every check passed. See
perfbench/README.md for the workloads and the metric dictionary.
"""

import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
BENCH_BIN = BUILD / "kdc_perfbench"
SELFTEST_BIN = BUILD / "kdc_perfbench_selftest"

# The run seed selects one of the input seeds whose reference digests
# perfbench/record.py recorded.
RECORDED_SEEDS = 16

WORKERS = {
    "table1_grid": "4",
    "round_big": "4 (traced run: 4 and 1, and the serial heavy_ff rep)",
    "serve_churn": "1",
}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build():
    """Configures once, then brings both harness binaries up to date."""
    if not (ROOT / "src" / "core" / "scenario.hpp").is_file():
        fail("no kdchoice sources in this checkout (src/ is missing)", 2)
    if not (BUILD / "CMakeCache.txt").is_file():
        configure = ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            fail("configure failed", 2)
    make = ["cmake", "--build", str(BUILD), "-j4", "--target",
            "kdc_perfbench", "kdc_perfbench_selftest"]
    if subprocess.run(make, stdout=sys.stderr).returncode != 0:
        fail("build failed", 2)


def cache_value(key):
    cache = BUILD / "CMakeCache.txt"
    for line in cache.read_text().splitlines():
        if line.startswith(key + ":"):
            return line.split("=", 1)[1]
    return "unknown"


def provenance(workload):
    """Where a result came from: host, toolchain, source revision."""
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass

    # Cache sizes by level, from sysfs (glibc's sysconf reports 0 on some
    # virtual machines).
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob(
            "index*")):
        try:
            if (index / "type").read_text().strip() == "Instruction":
                continue
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(size[-1], 1)
        caches[level] = int(size.rstrip("KMG")) * scale

    compiler = cache_value("CMAKE_CXX_COMPILER")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True,
                                 text=True).stdout.splitlines()[0]
    except (OSError, IndexError):
        version = compiler
    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True)
        if out.returncode == 0:
            sha = out.stdout.strip()
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "l2_bytes": caches.get(2, 0),
        "llc_bytes": caches[max(caches)] if caches else 0,
        "compiler": version,
        "build_type": cache_value("CMAKE_BUILD_TYPE"),
        "git_sha": sha,
        "workers": WORKERS[workload],
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if os.environ.get("KDC_FAULTS"):
        fail("KDC_FAULTS is set: an armed fault plan changes what runs, "
             "so nothing is timed", 3)
    manifest_path = ROOT / "BENCHMARK.json"
    if not manifest_path.is_file():
        fail("BENCHMARK.json not found at the checkout root", 2)
    manifest = json.loads(manifest_path.read_text())
    wanted = manifest["per_layer" if args.trace else "end_to_end"]

    build()
    if subprocess.run([str(SELFTEST_BIN)]).returncode != 0:
        fail("harness self-tests failed", 4)

    input_seed = 1 + args.seed % RECORDED_SEEDS
    command = [str(BENCH_BIN), f"--workload={args.workload}",
               f"--seed={input_seed}", f"--seconds={args.seconds}"]
    if args.trace:
        command.append("--trace")
    started = time.time()
    out = subprocess.run(command, capture_output=True, text=True,
                         timeout=170)
    sys.stderr.write(out.stderr)
    if out.returncode != 0 or not out.stdout.strip():
        fail(f"kdc_perfbench exited with {out.returncode}", 2)
    lines = out.stdout.strip().splitlines()
    for line in lines[:-1]:
        print(line)
    report = json.loads(lines[-1])

    # Each digest label names the workload whose recording it must match;
    # round_big's traced run also checks the heavy_ff rep ("heavy_ff.*").
    expected = json.loads((HERE / "expected.json").read_text())["digests"]
    reference = {label: expected[label.split(".")[0] if "." in label
                                 else args.workload][str(input_seed)]
                 for label in report["digests"]}
    mismatches = [label for label, digest in report["digests"].items()
                  if digest != reference[label]]
    failed_checks = [name for name, ok in report["checks"].items() if not ok]
    correct = bool(report["digests"]) and not mismatches and not failed_checks

    metrics = {}
    for spec in wanted:
        got = report["metrics"].get(spec["name"])
        if got is None or got["unit"] != spec["unit"]:
            fail(f"metric {spec['name']} missing or not in {spec['unit']}", 2)
        metrics[spec["name"]] = got
    attempted = max(1, int(report["attempted"]))
    failed = 0 if correct else attempted

    print(f"workload {args.workload}, run seed {args.seed} -> input seed "
          f"{input_seed}, {args.seconds:g} s, trace {args.trace}, "
          f"{time.time() - started:.1f} s wall")
    for name, metric in metrics.items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  fail_ratio = {failed}/{attempted}")
    for label in mismatches:
        print(f"  MISMATCH: digest {label} = {report['digests'][label]}, "
              f"recorded {reference[label]}")
    for name in failed_checks:
        print(f"  FAILED CHECK: {name}")
    host = provenance(args.workload)
    print("provenance: " + json.dumps(host))

    results = BUILD / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(
        {"provenance": host, "report": report, "correct": correct}, indent=1))

    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
