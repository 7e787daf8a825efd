#!/usr/bin/env python3
"""Run one workload of the EpTO benchmark and print its metrics.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Builds perfbench/ (the protocol libraries from src/ plus the benchmark
binary) into $CARGO_TARGET_DIR, or .bench_build when that is unset, runs
the binary, checks its outputs and prints, as the last line of standard
output, one JSON object with the keys correct, attempted, failed and
metrics. --trace 0 reports the end_to_end metrics BENCHMARK.json names,
--trace 1 the per_layer ones; a traced run also writes its spans to
<build dir>/spans-<workload>-<seed>.tsv and checks them.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BINARY_TIMEOUT_S = 170


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def build(build_dir):
    """Configure once, then build incrementally; build output goes to stderr."""
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            configure += ["-G", "Ninja"]
        subprocess.run(configure, check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(os.cpu_count() or 2)
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs, "--target", "epto_perfbench"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "epto_perfbench")


def check_spans(path):
    """Every span ends after it starts, lies inside its parent span, and
    its self time (duration minus its children's) is not negative.
    Returns a list of problems, empty when the file is sound."""
    spans = {}
    children = {}
    with open(path) as handle:
        header = handle.readline().rstrip("\n").split("\t")
        if header != ["thread", "index", "parent", "name", "start_ns", "end_ns"]:
            return [f"unexpected span header {header}"]
        for line in handle:
            thread, index, parent, name, start, end = line.rstrip("\n").split("\t")
            key = (thread, int(index))
            spans[key] = (name, int(start), int(end))
            if int(parent) >= 0:
                children.setdefault((thread, int(parent)), []).append(key)
    problems = []
    for key, (name, start, end) in spans.items():
        if end < start:
            problems.append(f"span {key} {name} ends before it starts")
        child_ns = 0
        for child in children.get(key, []):
            _, child_start, child_end = spans[child]
            if child_start < start or child_end > end:
                problems.append(f"span {child} lies outside its parent {key} {name}")
            child_ns += child_end - child_start
        if end - start - child_ns < 0:
            problems.append(f"span {key} {name} has negative self time")
    if not spans:
        problems.append("no spans recorded")
    return problems[:10]


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail(f"EpTO sources not found under {os.path.join(ROOT, 'src')}")
    spec_path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(spec_path):
        fail("BENCHMARK.json not found at the repository root")
    with open(spec_path) as handle:
        spec = json.load(handle)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"),
                                             "perfbench"))
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as error:
        fail(f"build failed: {error}")

    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    spans_path = os.path.join(build_dir, f"spans-{args.workload}-{args.seed}.tsv")
    if args.trace:
        command += ["--spans-out", spans_path]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                             timeout=BINARY_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        fail(f"the benchmark binary ran longer than {BINARY_TIMEOUT_S} s")
    lines = run.stdout.strip().splitlines()
    if run.returncode != 0 or not lines:
        fail(f"the benchmark binary exited with code {run.returncode}")
    report = json.loads(lines[-1])
    for note in report.get("notes", []):
        print(f"note: {note}")

    correct = bool(report["correct"])
    produced = report["metrics"]
    metrics = {}
    for metric in wanted:
        name, unit = metric["name"], metric["unit"]
        if name not in produced:
            fail(f"the binary did not report {name}")
        if produced[name]["unit"] != unit:
            fail(f"{name}: unit {produced[name]['unit']!r}, BENCHMARK.json says {unit!r}")
        value = produced[name]["value"]
        if value is None:
            if not args.trace:
                print(f"error: end-to-end metric {name} has no value", file=sys.stderr)
                correct = False
            # A layer this workload bypasses: its count base is zero.
            value = 0.0
        metrics[name] = {"value": value, "unit": unit}
        shown = "n/a" if produced[name]["value"] is None else f"{value:.6g}"
        print(f"{name} = {shown} {unit}")
    if not args.trace:
        for name, figure in produced.items():
            if name not in metrics:
                shown = "n/a" if figure["value"] is None else f"{figure['value']:.6g}"
                print(f"{name} = {shown} {figure['unit']} (not gated)")
    else:
        problems = check_spans(spans_path)
        for problem in problems:
            print(f"error: {problem}", file=sys.stderr)
        correct = correct and not problems

    attempted = int(report["attempted"])
    if attempted < 1:
        print("error: the run attempted no deliveries", file=sys.stderr)
        correct = False
    print(json.dumps({"correct": correct, "attempted": max(1, attempted),
                      "failed": int(report["failed"]), "metrics": metrics}))


if __name__ == "__main__":
    main()
