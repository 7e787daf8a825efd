#!/usr/bin/env python3
"""Tests of the benchmark itself: tiny runs of every workload, untraced and
traced, print every metric BENCHMARK.json names with its unit (udp_payload,
which BENCHMARK.json does not gate, through the binary directly); recorded
spans nest inside their parents with non-negative self time; and the
benchmark refuses to run without the program's sources.

Run from the root of the repository (takes a few minutes; builds first):

    python3 perfbench/test_perfbench.py
"""
import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
import run  # noqa: E402  (perfbench/run.py)

with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
    SPEC = json.load(handle)


def bench(workload, trace, seconds=1, seed=7):
    result = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, timeout=600)
    return result


class TinyRuns(unittest.TestCase):
    def check_run(self, workload, trace):
        result = bench(workload, trace)
        self.assertEqual(result.returncode, 0)
        lines = result.stdout.strip().splitlines()
        report = json.loads(lines[-1])
        self.assertEqual(set(report), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(report["correct"], "\n".join(lines[:-1]))
        self.assertGreaterEqual(report["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        self.assertEqual(set(report["metrics"]), {m["name"] for m in wanted})
        for metric in wanted:
            printed = report["metrics"][metric["name"]]
            self.assertEqual(printed["unit"], metric["unit"])
            self.assertIsInstance(printed["value"], (int, float))
            # The human-readable lines name every metric with its unit too.
            self.assertTrue(any(line.startswith(metric["name"] + " = ") and
                                line.endswith(" " + metric["unit"]) for line in lines[:-1]))
            if not trace:
                self.assertGreater(printed["value"], 0, metric["name"])
        if trace:
            spans = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                 "perfbench", f"spans-{workload}-7.tsv")
            self.assertEqual(run.check_spans(spans), [])

    def test_every_workload_untraced_and_traced(self):
        for workload in SPEC["workloads"]:
            for trace in (0, 1):
                with self.subTest(workload=workload["name"], trace=trace):
                    self.check_run(workload["name"], trace)


class UngatedPayloadWorkload(unittest.TestCase):
    """udp_payload runs only through the binary; it must keep working."""

    def run_binary(self, trace, spans=None):
        build_dir = os.path.abspath(os.path.join(
            ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"), "perfbench"))
        command = [run.build(build_dir), "--workload", "udp_payload", "--seed", "7",
                   "--seconds", "1", "--trace", str(trace)]
        if spans:
            command += ["--spans-out", spans]
        result = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.DEVNULL, text=True, timeout=170)
        self.assertEqual(result.returncode, 0)
        report = json.loads(result.stdout.strip().splitlines()[-1])
        self.assertTrue(report["correct"], report.get("notes"))
        self.assertGreaterEqual(report["attempted"], 1)
        wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
        for metric in wanted:
            self.assertIn(metric["name"], report["metrics"])
            self.assertEqual(report["metrics"][metric["name"]]["unit"], metric["unit"])
        return report["metrics"]

    def test_untraced(self):
        metrics = self.run_binary(0)
        self.assertGreater(metrics["delivery_p50_ms"]["value"], 0)

    def test_traced(self):
        with tempfile.TemporaryDirectory() as scratch:
            spans = os.path.join(scratch, "spans.tsv")
            metrics = self.run_binary(1, spans)
            self.assertEqual(run.check_spans(spans), [])
        # Every ball carries at least one 1 KiB payload through the codec.
        self.assertGreater(metrics["codec.frame_bytes_p50"]["value"], 1024)
        self.assertGreater(metrics["codec.balls_sent"]["value"], 0)


class SpanChecks(unittest.TestCase):
    def write_spans(self, rows):
        handle = tempfile.NamedTemporaryFile("w", suffix=".tsv", delete=False)
        self.addCleanup(os.unlink, handle.name)
        handle.write("thread\tindex\tparent\tname\tstart_ns\tend_ns\n")
        for row in rows:
            handle.write("\t".join(str(field) for field in row) + "\n")
        handle.close()
        return handle.name

    def test_nested_spans_pass(self):
        path = self.write_spans([(0, 0, -1, "core.round", 0, 100),
                                 (0, 1, 0, "pss.sample", 10, 40),
                                 (0, 2, 0, "metrics.tracker", 50, 90),
                                 (1, 0, -1, "core.round", 5, 6)])
        self.assertEqual(run.check_spans(path), [])

    def test_child_outside_parent_is_reported(self):
        path = self.write_spans([(0, 0, -1, "core.round", 0, 100),
                                 (0, 1, 0, "pss.sample", 90, 120)])
        self.assertTrue(any("outside" in problem for problem in run.check_spans(path)))

    def test_negative_self_time_is_reported(self):
        # Overlapping children cover more than the parent's duration.
        path = self.write_spans([(0, 0, -1, "core.round", 0, 100),
                                 (0, 1, 0, "core.absorb", 0, 80),
                                 (0, 2, 0, "core.absorb", 20, 100)])
        self.assertTrue(any("negative self time" in problem for problem in run.check_spans(path)))


class WithoutSources(unittest.TestCase):
    def test_refuses_to_run(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            result = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", "udp_small", "--seed", "1",
                 "--seconds", "1", "--trace", "0"],
                cwd=bare, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
                timeout=180)
            self.assertNotEqual(result.returncode, 0)
            self.assertEqual(result.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
