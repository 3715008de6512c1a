"""Reduced-size self-check of the benchmark.

    python3 perfbench/selfcheck.py

Run from the repository root; takes about half a minute.  Every workload
runs at reduced size through the same code as run.py, with tracing off and
on.  The check passes (exit 0) when

- every metric named in BENCHMARK.json is computed and has a unit,
- no run fails, and the default-seed results match perfbench/reference.json,
- spans nest: each child lies inside its parent and every self time is
  >= 0, recomputed here from the written spans file,
- the count identities of the traced runs hold, and
- an exception escaping the program, or a nonzero exit code, is counted as
  a failed run instead of crashing the harness.
"""
from __future__ import annotations

import json
import os
import sys

import numpy as np

from run import pin_threads


def span_defects(path: str) -> list:
    spans = np.load(path)
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    problems = []
    child = np.flatnonzero(parent >= 0)
    p = parent[child]
    if np.any(spans["run"][child] != spans["run"][p]):
        problems.append("a span's parent belongs to another run")
    if np.any((start[child] < start[p]) | (end[child] > end[p])):
        problems.append("a span lies outside its parent")
    duration = end - start
    covered = np.bincount(p, weights=duration[child], minlength=duration.size)
    if np.any(duration - covered < -1e-9):
        problems.append("a span has negative self time")
    return problems


def escape_problems(harness, root: str) -> list:
    """Failures inside the program must be counted, not crash the harness."""
    name = "plap_bracket_p3"
    workload = harness.WORKLOADS[name]
    out = os.path.join(root, harness.OUT_DIR, "selfcheck")
    os.makedirs(out, exist_ok=True)
    cfg_path = harness.write_config(workload, out, small=True)
    artifacts = os.path.join(out, "artifacts")
    original = harness.cli.run_scenario

    def raises(cfg, out_dir):
        raise ValueError("injected failure")

    problems = []
    try:
        for fake, expect in ((raises, "ValueError"), (lambda cfg, out_dir: 1, "exit code 1")):
            harness.cli.run_scenario = fake
            *_, found = harness.run_once(cfg_path, harness.DEFAULT_SEED, artifacts,
                                         harness.Checker(workload))
            if not any(expect in p for p in found):
                problems.append(f"injected {expect!r} not reported, got {found}")
    finally:
        harness.cli.run_scenario = original
    return problems


def main() -> int:
    pin_threads()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import harness

    harness.check_import(root)
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    problems = []
    for name in harness.WORKLOADS:
        for trace in (False, True):
            record = harness.bench(root, name, harness.DEFAULT_SEED, 0.5, trace, small=True)
            label = f"{name} trace={int(trace)}"
            for metric in spec["per_layer" if trace else "end_to_end"]:
                if metric["name"] not in record["metrics"]:
                    problems.append(f"{label}: metric {metric['name']} not emitted")
                elif not metric.get("unit"):
                    problems.append(f"{label}: metric {metric['name']} has no unit")
            problems += [f"{label}: {p}" for p in record["problems"]]
            if trace:
                problems += [f"{label}: {p}" for p in
                             span_defects(os.path.join(root, record["spans_file"]))]
                problems += [f"{label}: {p}" for p in
                             harness.identity_problems(record["metrics"])]
            print(f"{label}: {record['attempted']} runs checked", flush=True)
    problems += escape_problems(harness, root)
    for problem in problems:
        print(f"FAIL {problem}")
    print("selfcheck " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    raise SystemExit(main())
