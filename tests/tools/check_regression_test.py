#!/usr/bin/env python3
"""Tests for bench/perf/check_regression.py error handling and gating.

The comparison logic is exercised by the perf-smoke CI job on real bench
records; these tests pin down the CLI contract — above all that a
missing or unparseable BENCH_*.json fails with a clear actionable
message (exit via SystemExit), never a stack trace."""

from __future__ import annotations

import json
import sys
import tempfile
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT / "bench" / "perf"))

import check_regression  # noqa: E402


def write_jsonl(path: Path, records) -> None:
    path.write_text("".join(json.dumps(r) + "\n" for r in records))


def core_record(ns_per_op: float) -> dict:
    return {
        "schema": "epto.bench.core/1",
        "benchmarks": [{"name": "BM_OrderingRound/64", "ns_per_op": ns_per_op}],
    }


class LastRecordErrorTest(unittest.TestCase):
    def test_missing_file_is_a_clear_failure(self):
        with self.assertRaises(SystemExit) as ctx:
            check_regression.last_record("/nonexistent/BENCH_core.json")
        message = str(ctx.exception)
        self.assertIn("cannot read", message)
        self.assertIn("BENCH_core.json", message)
        self.assertIn("regenerate", message)

    def test_unparseable_line_is_a_clear_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_core.json"
            path.write_text('{"schema": "epto.bench.core/1"}\n{truncated\n')
            with self.assertRaises(SystemExit) as ctx:
                check_regression.last_record(path)
            message = str(ctx.exception)
            self.assertIn("not valid JSON", message)
            self.assertIn(":2:", message)  # the offending line number

    def test_non_object_line_is_a_clear_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_core.json"
            path.write_text("[1, 2, 3]\n")
            with self.assertRaises(SystemExit) as ctx:
                check_regression.last_record(path)
            self.assertIn("expected a JSON object", str(ctx.exception))

    def test_wrong_schema_names_the_expectation(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_core.json"
            write_jsonl(path, [{"schema": "something.else/9"}])
            with self.assertRaises(SystemExit) as ctx:
                check_regression.last_record(path)
            self.assertIn("no record with schema", str(ctx.exception))

    def test_last_matching_record_wins(self):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "BENCH_core.json"
            write_jsonl(path, [core_record(100.0), core_record(200.0)])
            record = check_regression.last_record(path)
            self.assertEqual(200.0, record["benchmarks"][0]["ns_per_op"])


class GatingTest(unittest.TestCase):
    def run_main(self, current: Path, baseline: Path, threshold: str | None = None):
        argv = ["check_regression.py", str(current), str(baseline)]
        if threshold:
            argv.append(f"--threshold={threshold}")
        return check_regression.main(argv)

    def test_regression_beyond_threshold_fails(self):
        with tempfile.TemporaryDirectory() as tmp:
            current, baseline = Path(tmp) / "cur.json", Path(tmp) / "base.json"
            write_jsonl(current, [core_record(200.0)])
            write_jsonl(baseline, [core_record(100.0)])
            self.assertEqual(1, self.run_main(current, baseline))

    def test_within_threshold_passes(self):
        with tempfile.TemporaryDirectory() as tmp:
            current, baseline = Path(tmp) / "cur.json", Path(tmp) / "base.json"
            write_jsonl(current, [core_record(110.0)])
            write_jsonl(baseline, [core_record(100.0)])
            self.assertEqual(0, self.run_main(current, baseline))

    def test_gated_set_covers_absorb_and_scheduler_but_not_the_fallback(self):
        def record(name, ns_per_op):
            return {"schema": "epto.bench.core/1",
                    "benchmarks": [{"name": name, "ns_per_op": ns_per_op}]}

        cases = {
            "BM_DisseminationOnBall/1024": 1,
            "BM_SimulatorSchedule/4096": 1,
            "BM_DisseminationOnUnsortedBall/1024": 0,
            "BM_CyclonShuffle": 0,
        }
        for name, expected in cases.items():
            with self.subTest(name=name), tempfile.TemporaryDirectory() as tmp:
                current, baseline = Path(tmp) / "cur.json", Path(tmp) / "base.json"
                write_jsonl(current, [record(name, 200.0)])
                write_jsonl(baseline, [record(name, 100.0)])
                self.assertEqual(expected, self.run_main(current, baseline))

    def test_missing_baseline_path_is_a_clear_failure(self):
        with tempfile.TemporaryDirectory() as tmp:
            current = Path(tmp) / "cur.json"
            write_jsonl(current, [core_record(100.0)])
            with self.assertRaises(SystemExit) as ctx:
                self.run_main(current, Path(tmp) / "absent.json")
            self.assertIn("cannot read", str(ctx.exception))

    def test_figs_schema_without_baseline_argument_is_rejected(self):
        with tempfile.TemporaryDirectory() as tmp:
            current = Path(tmp) / "cur.json"
            write_jsonl(current, [{"schema": "epto.bench.figs/1", "conditions": []}])
            with self.assertRaises(SystemExit) as ctx:
                check_regression.main(["check_regression.py", str(current)])
            self.assertIn("no default baseline", str(ctx.exception))


if __name__ == "__main__":
    unittest.main()
