#!/usr/bin/env python3
"""Smoke test of the benchmark on a reduced run (--smoke: small sizes).

    python3 perfbench/smoke_test.py [--seed N] [--workload NAME ...]

For every workload perfbench defines (BENCHMARK.json lists all but
campaign) it runs perfbench twice untraced and once traced, and checks
that:
  - the last stdout line is the result object with exactly the keys
    correct, attempted, failed and metrics, that the run is correct and
    that no op failed;
  - the untraced run emits exactly the end_to_end metrics and the traced
    run exactly the per_layer metrics, each with the unit BENCHMARK.json
    gives it, and the run's report gives each the same direction;
  - the modelled digest is identical across the three runs;
  - the span file is well formed.
Exits non-zero on the first workload that fails a check.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("paper_sweep", "multi_sm", "campaign")


def results_dir():
    """Where run.py has perfbench write its reports."""
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path, "perfbench", "results")


def run_once(workload, seed, trace):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", "1", "--trace",
           str(trace), "--smoke"]
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        raise AssertionError(f"{workload}: exit code {proc.returncode}")
    last = proc.stdout.strip().splitlines()[-1]
    result = json.loads(last)
    stem = os.path.join(results_dir(), f"{workload}-seed{seed}-trace{trace}")
    with open(stem + ".report.json") as f:
        report = json.load(f)
    return result, report, stem


def check_metrics(workload, result, report, wanted):
    got = result["metrics"]
    if set(got) != set(wanted):
        missing = sorted(set(wanted) - set(got))
        extra = sorted(set(got) - set(wanted))
        raise AssertionError(f"{workload}: missing {missing}, extra {extra}")
    for name, spec in wanted.items():
        value = got[name]
        if set(value) != {"value", "unit"}:
            raise AssertionError(f"{workload}: {name} has keys {set(value)}")
        if not isinstance(value["value"], (int, float)):
            raise AssertionError(f"{workload}: {name} is not a number")
        if value["unit"] != spec["unit"]:
            raise AssertionError(f"{workload}: {name} unit {value['unit']} "
                                 f"!= {spec['unit']}")
        better = report["metrics"][name]["better"]
        if better != spec["better"]:
            raise AssertionError(f"{workload}: {name} better={better} "
                                 f"!= {spec['better']}")


def check_result(workload, result):
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"{workload}: result keys {sorted(result)}")
    if not (isinstance(result["attempted"], int) and
            isinstance(result["failed"], int)):
        raise AssertionError(f"{workload}: op counts are not integers")
    if result["attempted"] < 1 or result["failed"] != 0:
        raise AssertionError(f"{workload}: {result['failed']} of "
                             f"{result['attempted']} ops failed")
    if result["correct"] is not True:
        raise AssertionError(f"{workload}: run is not correct")


def check_spans(workload, stem):
    with open(stem + ".spans.json") as f:
        spans = json.load(f)
    ops, records = spans["ops"], spans["spans"]
    if not records:
        raise AssertionError(f"{workload}: no spans recorded")
    for i, s in enumerate(records):
        if not (0 <= s["op"] < len(ops)) or s["parent"] >= i or \
                s["end_ns"] < s["start_ns"]:
            raise AssertionError(f"{workload}: malformed span {i}: {s}")
    layers = {s["name"].split(".")[0] for s in records}
    for layer in ("nocl", "kc", "kernels", "simt", "op"):
        if layer not in layers:
            raise AssertionError(f"{workload}: no {layer} spans")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--workload", action="append")
    args = p.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    e2e = {m["name"]: m for m in bench["end_to_end"]}
    layer = {m["name"]: m for m in bench["per_layer"]}
    workloads = args.workload or WORKLOADS

    for w in workloads:
        digests = []
        for trace in (0, 0, 1):
            result, report, stem = run_once(w, args.seed, trace)
            check_result(w, result)
            check_metrics(w, result, report, layer if trace else e2e)
            if report["attempted"] != result["attempted"]:
                raise AssertionError(f"{w}: report and result disagree")
            if trace:
                check_spans(w, stem)
            digests.append(report["digest"])
        if len(set(digests)) != 1:
            raise AssertionError(f"{w}: modelled digest differs across "
                                 f"runs: {digests}")
        print(f"{w}: ok ({result['attempted']} ops, digest {digests[0]})")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except AssertionError as e:
        print(f"smoke test FAILED: {e}", file=sys.stderr)
        sys.exit(1)
