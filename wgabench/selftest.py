#!/usr/bin/env python3
"""Toy-size self-test of the benchmark.

    python3 wgabench/selftest.py

Runs every workload of BENCHMARK.json at a few kb per genome (--toy),
untraced and traced, and checks each result line: outputs correct, no
failed operation, and exactly the metrics BENCHMARK.json declares for
that mode, each a finite number with its declared unit. Exits 1 on the
first problem. Run from the repository root.
"""

import json
import math
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def check_run(spec, workload, trace):
    declared = spec["per_layer" if trace else "end_to_end"]
    command = [sys.executable, os.path.join(ROOT, "wgabench", "run.py"),
               "--workload", workload, "--seed", "1", "--seconds", "1",
               "--trace", str(trace), "--toy"]
    proc = subprocess.run(command, capture_output=True, text=True, cwd=ROOT)
    label = "%s --trace %d" % (workload, trace)
    if proc.returncode != 0:
        return ["%s: exit %d\n%s" % (label, proc.returncode, proc.stderr[-2000:])]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    problems = []
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("%s: result keys %s" % (label, sorted(result)))
    if result.get("correct") is not True or result.get("failed") != 0:
        problems.append("%s: correct=%s failed=%s" %
                        (label, result.get("correct"), result.get("failed")))
    if not isinstance(result.get("attempted"), int) or result["attempted"] < 1:
        problems.append("%s: attempted=%s" % (label, result.get("attempted")))
    metrics = result.get("metrics", {})
    want = {m["name"]: m["unit"] for m in declared}
    if set(metrics) != set(want):
        problems.append("%s: missing %s, undeclared %s" % (
            label, sorted(set(want) - set(metrics)),
            sorted(set(metrics) - set(want))))
    for name, unit in want.items():
        got = metrics.get(name)
        if got is None:
            continue
        value = got.get("value")
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            problems.append("%s: %s value %r" % (label, name, value))
        if got.get("unit") != unit:
            problems.append("%s: %s unit %r, declared %r" %
                            (label, name, got.get("unit"), unit))
    return problems


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    problems = []
    for workload in spec["workloads"]:
        for trace in (0, 1):
            found = check_run(spec, workload["name"], trace)
            print("%-24s trace %d: %s" % (workload["name"], trace,
                                          "ok" if not found else "FAIL"))
            problems += found
    for problem in problems:
        print(problem, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
