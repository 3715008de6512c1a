"""Benchmark of spdeorder: one workload per invocation.

    python3 perfbench/run.py --workload heat_ensemble --seed 12345 --seconds 30 --trace 0

Run from the repository root.  Prints every metric by name with its unit;
the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.  Exits 2 without a result when the sources or
BENCHMARK.json are missing.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import json
import os
import sys

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")


def pin_threads() -> None:
    """One BLAS/OpenMP thread; takes effect only before numpy is imported."""
    for var in THREAD_VARS:
        os.environ[var] = "1"


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=12345,
                        help="becomes run.master_seed of every run")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="length of the closed loop")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _format(value: float) -> str:
    return f"{value:.6g}"


def main(argv=None) -> int:
    args = _parse(argv)
    root = os.getcwd()
    src = os.path.join(root, "src")
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as err:
        sys.stderr.write(f"perfbench: cannot read BENCHMARK.json in {root}: {err}\n")
        return 2
    if not os.path.isfile(os.path.join(src, "spdeorder", "__init__.py")):
        sys.stderr.write(f"perfbench: no spdeorder sources under {src}; "
                         "run from the repository root\n")
        return 2
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        sys.stderr.write(f"perfbench: unknown workload {args.workload!r}\n")
        return 2

    pin_threads()
    sys.path.insert(0, src)
    try:
        import harness
        harness.check_import(root)
    except Exception as err:
        sys.stderr.write(f"perfbench: cannot import spdeorder from {src}: {err}\n")
        return 2

    record = harness.bench(root, args.workload, args.seed, args.seconds, bool(args.trace))
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {m["name"]: {"value": record["metrics"][m["name"]], "unit": m["unit"]}
               for m in declared if m["name"] in record["metrics"]}
    missing = [m["name"] for m in declared if m["name"] not in record["metrics"]]
    record["missing_metrics"] = missing
    # a per-layer metric whose traced function was removed is missing, not wrong
    correct = record["failed"] == 0

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"seconds {args.seconds:g}")
    for name, m in metrics.items():
        print(f"  {name} = {_format(m['value'])} {m['unit']}")
    for name in missing:
        print(f"  {name} = missing")
    if args.trace:
        print(f"  untraced run_s = {[round(t, 4) for t in record['untraced_run_s']]}")
        print(f"  traced run_s = {[round(t, 4) for t in record['traced_run_s']]}")
    else:
        samples = record["run_s_samples"]
        tail = record["run_s_tail"]
        tail_text = (f"p{tail[0]:.1f} = {_format(tail[1])} s" if tail else
                     "no percentile has ten samples beyond it")
        print(f"  run_s: median of {len(samples)} samples, {tail_text}")
        print(f"  wall run_s = {[round(t, 4) for t in record['wall_run_s_samples']]}")
        print(f"  setup_s samples = {[round(t, 4) for t in record['setup_s_samples']]}")
    print(f"  attempted = {record['attempted']}  failed = {record['failed']}  "
          f"failed_frac = {_format(record['failed_frac'])}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print("env " + json.dumps(record["env"], sort_keys=True))

    out = os.path.join(root, harness.OUT_DIR, args.workload)
    with open(os.path.join(out, f"result_trace{args.trace}_seed{args.seed}.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
