#!/usr/bin/env python3
"""Golden output test for the qaoa_compile and qaoa_lint front ends.

Runs a fixed grid of invocations (devices, methods, presets, levels,
fault flags, the fig11 workload; lint formats and calibrations, healthy
and fault-masked) and compares, per case, the exit code, the stdout
with its wall-time fields masked (`compile time:` values and the ms of
each `stage:` line), and for each --qbin artifact the SHA-256 of its
circuit document plus its metadata minus `compile_ms`, against
tests/golden/tool_outputs.txt.

Usage:
  test_tool_outputs.py QAOA_COMPILE QAOA_LINT GOLDEN [--record]

--record rewrites GOLDEN from the given binaries.  Regenerate only in a
commit of its own, with the reason in CHANGES.md: the file pins what a
refactor of the tools' front end must keep.
"""

import difflib
import hashlib
import json
import os
import re
import struct
import subprocess
import sys
import tempfile

# 7 nodes / 11 edges (fits linear8) and 12 nodes / 20 edges.
GRAPHS = {
    "g7.edges": "7\n0 1\n0 2\n1 2\n1 3\n2 4\n3 4\n3 5\n4 6\n5 6\n0 6\n"
                "2 5\n",
    "g12.edges": "12\n0 1\n0 4\n0 7\n1 2\n1 9\n2 3\n2 6\n3 4\n3 11\n4 5\n"
                 "5 6\n5 10\n6 7\n7 8\n8 9\n8 11\n9 10\n10 11\n1 5\n"
                 "6 11\n",
}

FAULTS = ["--dead-qubits", "3", "--fault-edge-rate", "0.1",
          "--fault-seed", "4"]


def compile_cases():
    cases = []
    for device in ("tokyo", "melbourne", "linear8"):
        for method in ("naive", "ic", "vic"):
            cases.append((f"compile-{device}-{method}",
                          ["--graph", "g7.edges", "--device", device,
                           "--method", method, "--verify"], True))
        cases.append((f"compile-{device}-o3",
                      ["--graph", "g7.edges", "--device", device,
                       "--preset", "o3", "--verify"], True))
    cases += [
        ("compile-tokyo-g12-ic",
         ["--graph", "g12.edges", "--device", "tokyo", "--method", "ic"],
         True),
        ("compile-tokyo-g12-vic-levels2",
         ["--graph", "g12.edges", "--device", "tokyo", "--method", "vic",
          "--levels", "2", "--verify"], True),
        ("compile-melbourne-ic-levels2-knobs",
         ["--graph", "g7.edges", "--method", "ic", "--levels", "2",
          "--gamma", "0.4", "--beta", "-0.2", "--packing", "2",
          "--seed", "3", "--peephole", "--no-decompose", "--verify"],
         True),
        ("compile-melbourne-vic-dead",
         ["--graph", "g7.edges", "--method", "vic", "--dead-qubits",
          "3,9", "--verify"], True),
        ("compile-melbourne-ic-edges",
         ["--graph", "g7.edges", "--method", "ic", "--disable-edges",
          "0-1,4-5", "--verify"], True),
        ("compile-melbourne-vic-drift",
         ["--graph", "g7.edges", "--method", "vic", "--drift", "3"], True),
        ("compile-tokyo-ic-edge-rate",
         ["--graph", "g12.edges", "--device", "tokyo", "--method", "ic",
          "--fault-edge-rate", "0.1", "--fault-seed", "4", "--verify"],
         True),
        ("compile-tokyo-vic-qubit-rate-drift",
         ["--graph", "g12.edges", "--device", "tokyo", "--method", "vic",
          "--fault-qubit-rate", "0.1", "--fault-seed", "11", "--drift",
          "2"], True),
        ("compile-tokyo-naive-mixed-faults-nofallbacks",
         ["--graph", "g12.edges", "--device", "tokyo", "--method",
          "naive", "--dead-qubits", "5", "--disable-edges", "0-1",
          "--no-fallbacks"], True),
        ("compile-linear8-ic-split-fails",
         ["--graph", "g7.edges", "--device", "linear8", "--method", "ic",
          "--disable-edges", "3-4"], False),
        ("compile-workload-tokyo-ic",
         ["--workload", "fig11", "--instances", "1", "--device", "tokyo",
          "--method", "ic"], False),
        ("compile-workload-melbourne-vic-faults",
         ["--workload", "fig11", "--instances", "1", "--method", "vic"]
         + FAULTS, False),
    ]
    return cases


def lint_cases():
    cases = []
    for fmt in ("json", "csv"):
        for calib in ("default", "melbourne", "random"):
            for faulty in (False, True):
                name = f"lint-melbourne-{fmt}-{calib}" + (
                    "-faults" if faulty else "")
                args = ["--graph", "g7.edges", "--device", "melbourne",
                        "--format", fmt, "--calib", calib]
                cases.append((name, args + (FAULTS if faulty else [])))
    cases += [
        ("lint-tokyo-text-default",
         ["--graph", "g12.edges", "--method", "ic"]),
        ("lint-tokyo-workload-random",
         ["--workload", "fig11", "--instances", "1", "--method", "vic",
          "--calib", "random", "--calib-seed", "5", "--format", "json"]),
        ("lint-linear8-json-levels2",
         ["--graph", "g7.edges", "--device", "linear8", "--levels", "2",
          "--packing", "2", "--seed", "9", "--format", "json",
          "--disable-edges", "6-7"]),
    ]
    return cases


def mask(stdout):
    stdout = re.sub(r"(?m)^(compile time: ).*$", r"\1<ms>", stdout)
    return re.sub(r"(?m)^(stage: .*\[[^,\]]*, )[^,\]]* ms", r"\1<ms> ms",
                  stdout)


def artifact_lines(path):
    with open(path, "rb") as fh:
        data = fh.read()
    (circuit_len,) = struct.unpack_from("<I", data, 8)
    circuit = data[12:12 + circuit_len]
    (meta_len,) = struct.unpack_from("<I", data, 12 + circuit_len)
    meta = json.loads(data[16 + circuit_len:16 + circuit_len + meta_len])
    meta.pop("compile_ms", None)
    digest = hashlib.sha256(circuit).hexdigest()[:32]
    return [f"qbin circuit: {digest} ({len(circuit)} bytes)",
            "qbin meta: " + json.dumps(meta, sort_keys=True)]


def run_case(binary, name, args, qbin, cwd):
    argv = list(args)
    if qbin:
        argv += ["--qbin", "out.qbin"]
    proc = subprocess.run([binary, *argv], cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    tool = os.path.basename(binary)
    lines = [f"=== {name}: {tool} {' '.join(args)}",
             f"exit: {proc.returncode}"]
    lines += mask(proc.stdout).splitlines()
    artifact = os.path.join(cwd, "out.qbin")
    if qbin and os.path.exists(artifact):
        lines += artifact_lines(artifact)
        os.remove(artifact)
    return name, lines


def run_all(compile_bin, lint_bin):
    results = []
    with tempfile.TemporaryDirectory() as tmp:
        for fname, text in GRAPHS.items():
            with open(os.path.join(tmp, fname), "w", encoding="utf-8") as fh:
                fh.write(text)
        for name, args, qbin in compile_cases():
            results.append(run_case(compile_bin, name, args, qbin, tmp))
        for name, args in lint_cases():
            results.append(run_case(lint_bin, name, args, False, tmp))
    return results


HEADER = """\
# Golden stdout of qaoa_compile / qaoa_lint (scripts/test_tool_outputs.py).
# Per case: the command line, the exit code, stdout with wall times
# masked, and for --qbin runs the SHA-256 prefix of the artifact's
# circuit document and its metadata minus compile_ms.
# Regenerate only in a commit of its own, with the reason in CHANGES.md.
"""


def parse_golden(text):
    cases, name = {}, None
    for line in text.splitlines():
        if line.startswith("=== "):
            name = line[4:].split(":", 1)[0]
            cases[name] = [line]
        elif name is not None:
            cases[name].append(line)
    return cases


def main():
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    compile_bin, lint_bin = map(os.path.abspath, sys.argv[1:3])
    golden = sys.argv[3]
    record = "--record" in sys.argv[4:]
    results = run_all(compile_bin, lint_bin)
    if record:
        with open(golden, "w", encoding="utf-8") as fh:
            fh.write(HEADER)
            for _, lines in results:
                fh.write("\n".join(lines) + "\n")
        print(f"recorded {len(results)} cases in {golden}")
        return 0
    with open(golden, encoding="utf-8") as fh:
        expected = parse_golden(fh.read())
    failures = 0
    for name, lines in results:
        want = expected.pop(name, None)
        if want == lines:
            continue
        failures += 1
        print(f"MISMATCH {name}")
        for diff in difflib.unified_diff(want or [], lines, "expected",
                                         "actual", lineterm=""):
            print("  " + diff)
    for name in expected:
        failures += 1
        print(f"MISSING {name}: in the golden file but not run")
    print(f"{len(results) - failures}/{len(results)} cases match")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
