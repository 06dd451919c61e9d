#!/usr/bin/env python3
"""Tests for scripts/bench_report.py: row collection/grouping, strict
failure on malformed input, and the exact check of fresh rows against the
committed ones. Run directly or via ctest (bench_report_test).
"""

import contextlib
import importlib.util
import io
import json
import os
import sys
import tempfile
import unittest

_HERE = os.path.dirname(os.path.abspath(__file__))
_SPEC = importlib.util.spec_from_file_location(
    "bench_report", os.path.join(_HERE, "bench_report.py"))
bench_report = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_report)


def write(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def row(bench, label, hit_rate=0.9, throughput_mops=1.0, ops=1000):
    return {"bench": bench, "label": label, "ops": ops,
            "throughput_mops": throughput_mops, "hit_rate": hit_rate,
            "p50_us": 2.0, "p99_us": 9.0, "cas_failures": 0, "insert_retries": 0,
            "nic_messages": 5000, "nic_doorbells": 4000}


class CollectTest(unittest.TestCase):
    def test_groups_rows_by_their_own_bench_field(self):
        # The regression: collection used to read the FIRST row's bench field
        # and file every row of the stdout under it. A binary emitting rows
        # for two benches must produce two files with the right rows in each.
        with tempfile.TemporaryDirectory() as tmp:
            stdout_file = os.path.join(tmp, "stdout.txt")
            write(stdout_file, "\n".join([
                "some banner line",
                "BENCH_JSON " + json.dumps(row("alpha", "a1")),
                "BENCH_JSON " + json.dumps(row("beta", "b1")),
                "BENCH_JSON " + json.dumps(row("alpha", "a2")),
                "trailing non-JSON line",
            ]) + "\n")
            self.assertEqual(
                bench_report.main(["collect", stdout_file, "--out-dir", tmp]), 0)
            with open(os.path.join(tmp, "BENCH_alpha.json"), encoding="utf-8") as f:
                alpha = json.load(f)
            with open(os.path.join(tmp, "BENCH_beta.json"), encoding="utf-8") as f:
                beta = json.load(f)
            self.assertEqual([r["label"] for r in alpha], ["a1", "a2"])
            self.assertEqual([r["label"] for r in beta], ["b1"])

    def test_row_without_bench_field_is_a_hard_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            stdout_file = os.path.join(tmp, "stdout.txt")
            write(stdout_file, "BENCH_JSON " + json.dumps({"label": "x", "ops": 1}) + "\n")
            self.assertEqual(
                bench_report.main(["collect", stdout_file, "--out-dir", tmp]), 1)
            self.assertEqual([f for f in os.listdir(tmp) if f.startswith("BENCH_")], [])

    def test_malformed_row_is_a_hard_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            stdout_file = os.path.join(tmp, "stdout.txt")
            # An unescaped quote inside a label used to produce exactly this
            # kind of truncated/invalid JSON; it must fail the collection.
            write(stdout_file, 'BENCH_JSON {"bench": "x", "label": "bad "quote""}\n')
            self.assertEqual(
                bench_report.main(["collect", stdout_file, "--out-dir", tmp]), 1)


class CheckTest(unittest.TestCase):
    def check(self, fresh_rows, committed_rows):
        """Runs `check` on the two row sets; returns (exit code, stderr)."""
        with tempfile.TemporaryDirectory() as tmp:
            out_dir = os.path.join(tmp, "out")
            base_dir = os.path.join(tmp, "base")
            os.makedirs(out_dir)
            os.makedirs(base_dir)
            write(os.path.join(out_dir, "BENCH_demo.json"), json.dumps(fresh_rows))
            write(os.path.join(base_dir, "BENCH_demo.json"), json.dumps(committed_rows))
            err = io.StringIO()
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                code = bench_report.main(["check", "--out-dir", out_dir,
                                          "--baseline-dir", base_dir])
            return code, err.getvalue()

    def test_identical_rows_pass(self):
        rows = [row("demo", "hot"), row("demo", "cold", hit_rate=0.25)]
        self.assertEqual(self.check(rows, rows), (0, ""))

    def test_changed_hit_rate_fails_and_names_the_column(self):
        code, err = self.check([row("demo", "hot", hit_rate=0.900001)],
                               [row("demo", "hot", hit_rate=0.9)])
        self.assertEqual(code, 1)
        self.assertIn("bench 'demo' label 'hot' column 'hit_rate'", err)
        self.assertIn("committed 0.9, fresh 0.900001", err)
        self.assertNotIn("throughput_mops", err)

    def test_missing_committed_row_fails(self):
        code, err = self.check([row("demo", "hot")],
                               [row("demo", "hot"), row("demo", "gone")])
        self.assertEqual(code, 1)
        self.assertIn("bench 'demo' label 'gone': committed row missing", err)

    def test_unmatched_fresh_row_fails(self):
        code, err = self.check([row("demo", "hot"), row("demo", "new")],
                               [row("demo", "hot")])
        self.assertEqual(code, 1)
        self.assertIn("bench 'demo' label 'new': fresh row matches no committed row", err)

    def test_added_column_fails(self):
        fresh = row("demo", "hot")
        fresh["wall_mops"] = 1.5
        code, err = self.check([fresh], [row("demo", "hot")])
        self.assertEqual(code, 1)
        self.assertIn("column 'wall_mops': committed <absent>, fresh 1.5", err)

    def test_malformed_result_file_is_a_hard_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            write(os.path.join(tmp, "BENCH_demo.json"), "{not json")
            with contextlib.redirect_stderr(io.StringIO()):
                self.assertEqual(bench_report.main(
                    ["check", "--out-dir", tmp, "--baseline-dir", tmp]), 1)


if __name__ == "__main__":
    unittest.main(verbosity=2)
