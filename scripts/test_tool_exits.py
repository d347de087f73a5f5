#!/usr/bin/env python3
"""Exit-code contract tests for the command-line tools.

README.md documents one exit-code table per tool; these tests pin the
codes the firewall work made load-bearing: an induced failure (missing
input file, torn qbin document, unknown flag) must exit with the
documented code and a classified one-line report — never a signal
(abort / uncaught exception) and never a silent zero.

Usage: test_tool_exits.py QAOA_QBIN QAOA_COMPILE
(ctest passes the built binary paths; see tests/CMakeLists.txt).
"""

import os
import struct
import subprocess
import sys
import tempfile
import unittest

QBIN = None
COMPILE = None


def run(binary, *args, timeout=120):
    return subprocess.run(
        [binary, *args],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        timeout=timeout,
    )


class ToolExitTestCase(unittest.TestCase):
    def assertExit(self, proc, code):
        self.assertGreaterEqual(
            proc.returncode, 0,
            f"tool died on a signal ({proc.returncode}): {proc.stderr}",
        )
        self.assertEqual(
            proc.returncode, code,
            f"stdout: {proc.stdout}\nstderr: {proc.stderr}",
        )


class TestQbinExits(ToolExitTestCase):
    def test_missing_input_file_is_fatal_1_not_abort(self):
        out = os.path.join(tempfile.gettempdir(), "unused.qbin")
        proc = run(QBIN, "encode", "/nonexistent/input.qasm", out)
        self.assertExit(proc, 1)
        self.assertIn("qaoa_qbin: fatal:", proc.stderr)

    def test_torn_qbin_document_reports_code_and_offset(self):
        # A structurally valid header with a body cut mid-field: the
        # decode must exit 1 with the malformed/truncated classification
        # and a byte offset in the report, not a crash.
        with tempfile.TemporaryDirectory() as tmp:
            torn = os.path.join(tmp, "torn.qbin")
            with open(torn, "wb") as fh:
                fh.write(b"QBIN")          # magic
                fh.write(bytes([1, 1, 0, 0]))  # kind=circuit v1
                fh.write(struct.pack("<I", 4))  # claims 4 qubits...
                # ...and then the stream ends (no gate count).
            proc = run(QBIN, "decode", torn, os.path.join(tmp, "out.qasm"))
            self.assertExit(proc, 1)
            self.assertIn("qaoa_qbin: fatal:", proc.stderr)
            self.assertIn("truncated", proc.stderr)
            self.assertIn("at byte", proc.stderr)

    def test_bad_magic_reports_malformed(self):
        with tempfile.TemporaryDirectory() as tmp:
            bogus = os.path.join(tmp, "bogus.qbin")
            with open(bogus, "wb") as fh:
                fh.write(b"NOPE" + bytes(8))
            proc = run(QBIN, "decode", bogus, os.path.join(tmp, "out.qasm"))
            self.assertExit(proc, 1)

    def test_usage_errors_exit_2(self):
        self.assertExit(run(QBIN), 2)
        self.assertExit(run(QBIN, "frobnicate"), 2)
        self.assertExit(run(QBIN, "encode", "only-one-path"), 2)

    def test_roundtrip_success_exits_0(self):
        qasm = (
            "OPENQASM 2.0;\n"
            'include "qelib1.inc";\n'
            "qreg q[2];\n"
            "creg c[2];\n"
            "h q[0];\n"
            "cx q[0],q[1];\n"
        )
        with tempfile.TemporaryDirectory() as tmp:
            src = os.path.join(tmp, "c.qasm")
            with open(src, "w", encoding="utf-8") as fh:
                fh.write(qasm)
            proc = run(QBIN, "roundtrip", src)
            self.assertExit(proc, 0)


class TestCompileExits(ToolExitTestCase):
    def test_missing_graph_file_exits_1(self):
        proc = run(COMPILE, "--graph", "/nonexistent/graph.txt")
        self.assertExit(proc, 1)
        self.assertIn("error", proc.stderr)

    def test_unknown_flag_exits_2(self):
        self.assertExit(run(COMPILE, "--frobnicate"), 2)

    def test_missing_required_input_exits_2(self):
        self.assertExit(run(COMPILE), 2)

    def test_help_exits_0(self):
        self.assertExit(run(COMPILE, "--help"), 0)

    def test_small_compile_exits_0(self):
        with tempfile.TemporaryDirectory() as tmp:
            graph = os.path.join(tmp, "g.txt")
            with open(graph, "w", encoding="utf-8") as fh:
                fh.write("4\n0 1\n1 2\n2 3\n3 0\n")
            proc = run(COMPILE, "--graph", graph, "--device", "linear4")
            self.assertExit(proc, 0)

    def test_fault_lists_use_the_wire_syntax(self):
        # The list flags parse like the daemon's dead_qubits and
        # disabled_edges fields: an empty item is a usage error, an
        # empty list means none.
        with tempfile.TemporaryDirectory() as tmp:
            graph = os.path.join(tmp, "g.txt")
            with open(graph, "w", encoding="utf-8") as fh:
                fh.write("4\n0 1\n1 2\n2 3\n3 0\n")
            base = ("--graph", graph, "--device", "linear6")
            for flag, value in (("--dead-qubits", "3,,5"),
                                ("--dead-qubits", "5,"),
                                ("--disable-edges", "0-1,,4-5")):
                proc = run(COMPILE, *base, flag, value)
                self.assertExit(proc, 2)
                self.assertIn("empty item", proc.stderr)
            for flag in ("--dead-qubits", "--disable-edges"):
                proc = run(COMPILE, *base, flag, "")
                self.assertExit(proc, 0)
                self.assertIn("status:       ok", proc.stdout)


def main():
    global QBIN, COMPILE
    if len(sys.argv) < 3:
        print(__doc__, file=sys.stderr)
        return 2
    QBIN, COMPILE = sys.argv[1], sys.argv[2]
    for binary in (QBIN, COMPILE):
        if not os.access(binary, os.X_OK):
            print(f"error: not executable: {binary}", file=sys.stderr)
            return 2
    sys.argv = sys.argv[:1]
    unittest.main(verbosity=2)


if __name__ == "__main__":
    sys.exit(main())
