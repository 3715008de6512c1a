"""Record the reference result values of every workload at the default seed.

    python3 perfbench/record_reference.py

Run from the repository root, on a commit whose results are known good.
Writes perfbench/reference.json, which the benchmark compares each
default-seed run against (summary result values and trajectory terminal
norms, within harness.REL_TOL and harness.ABS_TOL).
"""
from __future__ import annotations

import json
import os
import sys

from run import pin_threads

if __name__ == "__main__":
    pin_threads()
    root = os.getcwd()
    sys.path.insert(0, os.path.join(root, "src"))
    import harness

    harness.check_import(root)
    values = {}
    for name, workload in harness.WORKLOADS.items():
        for small in (False, True):
            out = os.path.join(root, harness.OUT_DIR, "reference")
            os.makedirs(out, exist_ok=True)
            cfg_path = harness.write_config(workload, out, small)
            artifacts = os.path.join(out, "artifacts")
            checker = harness.Checker(workload)
            *_, problems = harness.run_once(cfg_path, harness.DEFAULT_SEED, artifacts, checker)
            if problems:
                raise SystemExit(f"{name}: {problems}")
            values[name + ("@small" if small else "")] = harness.result_values(artifacts)
            print(name, "small" if small else "full", values[name + ("@small" if small else "")])
    with open(harness.REFERENCE_PATH, "w") as fh:
        json.dump({"seed": harness.DEFAULT_SEED, "rel_tol": harness.REL_TOL,
                   "abs_tol": harness.ABS_TOL, "values": values}, fh, indent=1, sort_keys=True)
        fh.write("\n")
