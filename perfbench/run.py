#!/usr/bin/env python3
"""The warrow benchmark: build, run, check, report.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Run it from the root of a checkout. It builds `perfbench` (the C++ runner
in this directory, linked against ../src) under .bench_build/perfbench and
runs one process per workload. With --workload, it runs that workload once
and prints, as the last line, one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics with --trace 1. A per-layer metric
whose layer does not run on the workload reads 0 (README.md says which).

Without --workload it runs every workload untraced and traced and prints
two tables, one row per workload: end-to-end metrics, and per-layer self
time (one column per layer), then one JSON object keyed by workload.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench")
LAYERS = ["lang", "analysis", "engine", "snapshot", "incr", "job"]
RUN_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD, "--target", "perfbench", "-j", jobs],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            sys.stderr.write(proc.stdout[-4000:])
            fail("building the benchmark failed: " + " ".join(step))


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def run_binary(workload, seed, seconds, trace):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if trace:
        spans = os.path.join(BUILD, "spans")
        os.makedirs(spans, exist_ok=True)
        cmd += ["--spans", os.path.join(
            spans, "%s-seed%d.jsonl" % (workload, seed))]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s did not finish within %d s" % (workload, RUN_TIMEOUT_S))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with code %d" % (workload, proc.returncode))
    return json.loads(lines[-1])


def report(result, spec, trace):
    """Names, units and zero-fill from BENCHMARK.json; unknown names fail."""
    listed = spec["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        fail("metrics missing from BENCHMARK.json: " + ", ".join(unknown))
    metrics = {name: {"value": result["metrics"].get(name, 0.0),
                      "unit": unit} for name, unit in units.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def table(title, columns, rows):
    print("# " + title)
    print(",".join(["workload"] + columns))
    for name, values in rows:
        print(",".join([name] + ["%.6g" % values.get(c, 0.0)
                                 for c in columns]))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        fail("--seed must be non-negative")

    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    if args.workload is not None and args.workload not in names:
        fail("unknown workload %r (have: %s)" % (args.workload,
                                                ", ".join(names)))
    seconds = args.seconds or spec["run_seconds"]
    build()

    if args.workload is not None:
        result = run_binary(args.workload, args.seed, seconds, args.trace)
        print("# meta " + json.dumps(result["meta"]))
        print(json.dumps(report(result, spec, args.trace)))
        return

    e2e_rows, layer_rows, combined = [], [], {}
    for name in names:
        plain = run_binary(name, args.seed, seconds, 0)
        traced = run_binary(name, args.seed, seconds, 1)
        plain_metrics = dict(plain["metrics"])
        plain_metrics["failed_pct"] = (100.0 * plain["failed"] /
                                       max(1, plain["attempted"]))
        e2e_rows.append((name, plain_metrics))
        layer_rows.append((name, {l: traced["metrics"].get(l + ".self_ms", 0.0)
                                  for l in LAYERS}))
        print("# meta " + json.dumps(plain["meta"]))
        combined[name] = {"end_to_end": report(plain, spec, 0),
                          "per_layer": report(traced, spec, 1)}
    table("end to end (untraced runs)",
          [m["name"] for m in spec["end_to_end"]] + ["failed_pct"], e2e_rows)
    table("self time per pass, ms (traced runs)", LAYERS, layer_rows)
    print(json.dumps(combined))


if __name__ == "__main__":
    main()
