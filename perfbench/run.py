#!/usr/bin/env python3
"""Builds and runs the repository benchmark for one workload.

    python3 perfbench/run.py --workload compile_fig11|serve_storm|sim_p1|all \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The first run configures and builds
perfbench/ (which compiles ../src) under .bench_build/; later runs only
rebuild what changed.  The benchmark writes a ledger with every metric,
its unit and sample count, the oracle outcome and provenance to
.bench_build/ledgers/.  This script prints that ledger as a table and,
as its last line, one JSON object with the metrics BENCHMARK.json
names: the end-to-end ones with --trace 0, the per-layer ones with
--trace 1.  A per-layer metric of a layer the workload never enters is
reported as 0.  `--workload all` runs the three workloads in turn, each
printing its table and result line.
"""
import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
WORKLOADS = ("compile_fig11", "serve_storm", "sim_p1")
RUN_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def build():
    """Configures once, then builds incrementally; tool output goes to
    stderr so the last line of stdout stays the result."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no library sources next to perfbench/; run from a full checkout")
    build_dir = os.path.join(BUILD, "perfbench")
    steps = []
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", build_dir,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", build_dir, "-j",
                  str(min(4, os.cpu_count() or 1))])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode:
            fail("build step failed: " + " ".join(step))
    return os.path.join(build_dir, "perfbench")


def provenance_id():
    """The git commit when there is one, else a digest of the sources."""
    try:
        commit = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                capture_output=True, text=True, timeout=10)
        if commit.returncode == 0:
            return "git:" + commit.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "sources:" + digest.hexdigest()[:16]


def run_workload(binary, spec, workload, seed, seconds, trace):
    """Runs one workload, prints its ledger table and result line."""
    tag = f"{workload}-seed{seed}-trace{trace}"
    workdir = os.path.join(BUILD, "work", tag)
    shutil.rmtree(workdir, ignore_errors=True)
    ledger_path = os.path.join(BUILD, "ledgers", tag + ".json")
    os.makedirs(os.path.dirname(ledger_path), exist_ok=True)
    command = [binary, "--workload", workload, "--seed", str(seed),
               "--seconds", repr(seconds), "--trace", str(trace),
               "--workdir", workdir, "--ledger", ledger_path,
               "--commit", provenance_id()]
    try:
        run = subprocess.run(command, stdout=sys.stderr, stderr=sys.stderr,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish in {RUN_TIMEOUT_S} s")
    if run.returncode != 0:
        fail(f"{workload} exited with code {run.returncode}")
    with open(ledger_path) as f:
        ledger = json.load(f)

    prov = ledger["provenance"]
    print("provenance: " + ", ".join(f"{k}={v}" for k, v in prov.items()))
    print(f"oracle: correct={ledger['correct']} attempted={ledger['attempted']}"
          f" failed={ledger['failed']} output_digest={ledger['output_digest']}")
    for failure in ledger["failures"]:
        print("  failure: " + failure)
    print(f"{'metric':34s} {'value':>14s} {'unit':7s} {'samples':>8s}  how")
    for m in ledger["metrics"]:
        print(f"{m['name']:34s} {m['value']:14.6g} {m['unit']:7s} "
              f"{m['samples']:8d}  {m['note']}")

    measured = {m["name"]: m for m in ledger["metrics"]}
    wanted = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for want in wanted:
        m = measured.get(want["name"])
        if m is None:
            if not trace:
                fail(f"end-to-end metric {want['name']} was not measured")
            m = {"value": 0.0, "unit": want["unit"]}
        if m["unit"] != want["unit"]:
            fail(f"{want['name']} measured in {m['unit']}, "
                 f"BENCHMARK.json says {want['unit']}")
        metrics[want["name"]] = {"value": m["value"], "unit": m["unit"]}
    print(json.dumps({"correct": ledger["correct"],
                      "attempted": ledger["attempted"],
                      "failed": ledger["failed"],
                      "metrics": metrics}), flush=True)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    binary = build()
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        run_workload(binary, spec, workload, args.seed, args.seconds,
                     args.trace)


if __name__ == "__main__":
    main()
