"""Workloads, output checks and metrics of the spdeorder benchmark.

Each run goes through the command-line entry point (``spdeorder.cli.main``
with ``run <config> --seed S --out DIR``), exactly as ``spde-order run``
does, in a closed loop from one thread: the next run starts only after the
previous one has finished and its artifacts have been checked.  Import this
module only after BLAS/OpenMP threads are pinned (see run.py).
"""
from __future__ import annotations

import contextlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

import spdeorder
from spdeorder import cli

import tracing

DEFAULT_SEED = 12345
OUT_DIR = ".perfbench_out"
REFERENCE_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference.json")
# result values may move by rounding when a kernel is rewritten; anything
# beyond this is a wrong answer
REL_TOL = 1e-8
ABS_TOL = 1e-10
# summary keys that count work (sweeps, paths) rather than give a result
COUNT_KEYS = ("paths", "min_sweeps", "max_sweeps")
SETUP_REPEATS = 7
SETUP_CODE = (
    "import sys\n"
    "from spdeorder.config import load_config\n"
    "from spdeorder.scenarios import build_problem_spec\n"
    "build_problem_spec(load_config(sys.argv[1]))\n"
)


@dataclass(frozen=True)
class Workload:
    name: str
    config: dict  # config key -> value, written as the run's config file
    small: dict  # overrides for the warm-up and the reduced-size self-check
    artifacts: tuple


_BRACKET_FILES = ("bracket_min.txt", "bracket_max.txt",
                  "trajectory_min.csv", "trajectory_max.csv")

WORKLOADS = {w.name: w for w in (
    # 200 independent linear (p=2) solves on one time grid: per-call overhead
    # in solver/operators plus the comparison reduction; no bracket sweeps
    Workload(
        "heat_ensemble",
        {"scenario": "heat_comparison"},
        {"run.M": "3", "time.T": "0.02"},
        ("assumptions.txt", "comparison.txt", "comparison.csv",
         "trajectory_lower.csv", "trajectory_upper.csv", "sigma_trace.csv",
         "summary.txt")),
    # the paper's headline computation: sequential sweeps at p=3, about two
    # Newton iterations per step, no noise, heavy trajectory output
    Workload(
        "plap_bracket_p3",
        {"scenario": "plap_bracket", "spatial.p": "3", "run.dual_jump_side": "true"},
        {"time.T": "0.02"},
        ("assumptions.txt", "summary.txt") + _BRACKET_FILES
        + tuple(f.replace(".", "_jump_upper.") for f in _BRACKET_FILES)),
    # stochastic brackets on 4x longer vectors with a small batch of paths
    Workload(
        "bracket_ensemble_n256",
        {"scenario": "custom", "grid.n": "256", "spatial.p": "3",
         "drift.kind": "heaviside", "drift.s0": "0.5", "drift.low": "0",
         "drift.high": "1", "noise.K": "4", "run.M": "12", "time.T": "0.5",
         "time.dt": "1e-3", "u0.kind": "sine", "run.max_outer": "100"},
        {"run.M": "2", "time.T": "0.02"},
        ("assumptions.txt", "summary.txt") + _BRACKET_FILES),
)}


def check_import(root: str) -> None:
    """Refuse to measure a spdeorder that is not the checkout's own."""
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(spdeorder.__file__).startswith(src + os.sep):
        raise RuntimeError(f"spdeorder imported from {spdeorder.__file__}, not from {src}")


def write_config(workload: Workload, out: str, small: bool) -> str:
    values = dict(workload.config)
    if small:
        values.update(workload.small)
    path = os.path.join(out, "small.cfg" if small else "run.cfg")
    with open(path, "w") as fh:
        fh.write("".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


# ---------------------------------------------------------------------------
# output checks


def terminal_rms(path: str) -> float:
    """Root mean square of the last time row of a trajectory CSV."""
    with open(path, "rb") as fh:
        header = fh.readline().decode()
        n = int(header.split("n_interior=")[1].split()[0])
        size = os.fstat(fh.fileno()).st_size
        fh.seek(max(0, size - 128 * (n + 1)))
        rows = fh.read().decode().splitlines()[-n:]
    values = np.array([float(row.rsplit(",", 1)[1]) for row in rows])
    return float(np.sqrt(np.mean(values * values)))


def result_values(out_dir: str) -> dict:
    """Summary result values (not counts) and trajectory terminal norms."""
    values = {}
    with open(os.path.join(out_dir, "summary.txt")) as fh:
        for line in fh:
            key, _, raw = line.strip().partition(" = ")
            if key in COUNT_KEYS or key.startswith("gate."):
                continue
            try:
                values[key] = float(raw)
            except ValueError:
                continue
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("trajectory_") and name.endswith(".csv"):
            values[f"{name}:terminal_rms"] = terminal_rms(os.path.join(out_dir, name))
    return values


def _close(value: float, ref: float) -> bool:
    return abs(value - ref) <= ABS_TOL + REL_TOL * abs(ref)


@dataclass
class Checker:
    """Checks one workload's artifacts run after run.

    Every run must exit 0, write every expected artifact, fail no gate,
    write the same summary.txt as the first run (reruns are
    byte-identical) and, at the default seed, match the recorded reference
    values within REL_TOL/ABS_TOL.
    """

    workload: Workload
    reference: Optional[dict] = None
    first_summary: Optional[bytes] = None

    def problems(self, out_dir: str, code: int) -> list:
        problems = [f"exit code {code}"] if code != 0 else []
        missing = [a for a in self.workload.artifacts
                   if not os.path.isfile(os.path.join(out_dir, a))]
        if missing:
            return problems + [f"missing artifacts {missing}"]
        with open(os.path.join(out_dir, "summary.txt"), "rb") as fh:
            summary = fh.read()
        failed = [line for line in summary.decode().splitlines()
                  if line.startswith("gate.") and line.endswith("= fail")]
        problems += [f"failed {line}" for line in failed]
        if self.first_summary is None:
            self.first_summary = summary
        elif summary != self.first_summary:
            problems.append("summary.txt differs from the first run")
        if self.reference is not None:
            values = result_values(out_dir)
            for key, ref in self.reference.items():
                if key not in values:
                    problems.append(f"result {key} missing")
                elif not _close(values[key], ref):
                    problems.append(f"result {key} = {values[key]!r}, reference {ref!r}")
        return problems


def load_reference(workload: Workload, small: bool, seed: int):
    if seed != DEFAULT_SEED:
        return None
    with open(REFERENCE_PATH) as fh:
        return json.load(fh)["values"][workload.name + ("@small" if small else "")]


# ---------------------------------------------------------------------------
# running


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def record(self, label: str, problems: list) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.append(f"{label}: " + "; ".join(problems))
            sys.stderr.write(f"perfbench: {label} failed: {'; '.join(problems)}\n")


def run_once(cfg_path: str, seed: int, out_dir: str, checker: Checker):
    """One closed-loop run, timed from the call into the CLI until the
    artifacts are written and checked.  Returns (wall seconds, seconds at
    the reference speed, problems found)."""
    shutil.rmtree(out_dir, ignore_errors=True)
    argv = ["run", cfg_path, "--seed", str(seed), "--out", out_dir]
    with SpeedProbe() as speed:
        try:
            # stdout carries the benchmark's result line only
            with contextlib.redirect_stdout(sys.stderr):
                code = cli.main(argv)
            problems = checker.problems(out_dir, code)
        except Exception as err:  # an escaped error is a failed run, not a crash
            traceback.print_exc(file=sys.stderr)
            problems = [f"{type(err).__name__}: {err}"]
    return speed.wall_s, speed.ref_s, problems


def closed_loop(seconds: float, step) -> list:
    """Call step() back to back while the next call is expected to end in
    time; at least once.  step() returns its wall seconds."""
    deadline = time.perf_counter() + seconds
    durations = []
    while True:
        durations.append(step())
        if time.perf_counter() + float(np.median(durations)) > deadline:
            return durations


def measure_setup(root: str, cfg_path: str, repeats: int):
    """Median wall seconds over `repeats` fresh interpreters that import
    spdeorder, resolve the config and build the ProblemSpec.  One
    unmeasured start comes first, so every measured one finds the bytecode
    cache.  Returns (seconds, samples, problems).

    Not rescaled by the speed probe: start-up time did not follow the
    probe, not even one timed in the started interpreter itself."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(root, "src") + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    times = []
    for i in range(repeats + 1):
        t0 = time.perf_counter()
        try:
            proc = subprocess.run([sys.executable, "-c", SETUP_CODE, cfg_path], cwd=root,
                                  env=env, capture_output=True, text=True, timeout=60)
        except subprocess.TimeoutExpired:
            return None, times, ["set-up took more than 60 s"]
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            return None, times, [f"set-up exited {proc.returncode}: "
                                 f"{proc.stderr.strip()[-300:]}"]
        if i:
            times.append(elapsed)
    return float(np.median(times)), times, []


def output_bytes(out_dir: str) -> int:
    return sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())


# ---------------------------------------------------------------------------
# machine speed
#
# The shared 2-CPU machine the benchmark was defined on changes speed by up
# to 1.8x from one second to the next (other tenants), which moved the
# median wall time of a 30 s loop by 10-20%.  So every timing is also taken
# at a reference speed.  A fixed numpy loop with the solver's call pattern
# (the probe) is timed every PROBE_PERIOD_S while a run goes.  Each stretch
# of the run is scaled by PROBE_REF_S / (probe time), which holds as long
# as the program slows down the way the probe does.  That fits a program
# whose time goes into many small numpy calls.

PROBE_CALLS = 20  # small-vector iterations per probe, about 0.25 ms
PROBE_PERIOD_S = 0.1
# typical probe time on the machine the benchmark was defined on, so that
# seconds at the reference speed read close to wall seconds there
PROBE_REF_S = 2.5e-4
_PROBE_V = np.linspace(0.0, 1.0, 64)
_PROBE_EDGE = np.zeros(1)


def probe_s() -> float:
    t0 = time.perf_counter()
    for _ in range(PROBE_CALLS):
        d = np.diff(np.concatenate((_PROBE_EDGE, _PROBE_V, _PROBE_EDGE)))
        float(np.dot(np.abs(d) ** 1.5, d))
    return time.perf_counter() - t0


def probe_median_s(n: int) -> float:
    return float(np.median([probe_s() for _ in range(n)]))


class SpeedProbe:
    """Context manager that times the probe every PROBE_PERIOD_S (SIGALRM,
    so main thread only) and once at exit.  Gives `wall_s`, the wall time
    without the probes, and `ref_s`, the same at the reference speed."""

    def __enter__(self):
        self.marks = []  # (probe start, probe seconds)
        signal.signal(signal.SIGALRM, self._tick)
        self.start = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PROBE_PERIOD_S, PROBE_PERIOD_S)
        return self

    def _tick(self, signum, frame):
        t = time.perf_counter()
        self.marks.append((t, probe_s()))

    def __exit__(self, *exc_info):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        end = time.perf_counter()
        self.marks.append((end, probe_s()))
        marks = np.array(self.marks)
        # the program runs from the end of one probe to the start of the next
        stretch = marks[:, 0] - np.concatenate(([self.start], marks[:-1].sum(axis=1)))
        # median of three neighbouring probes, so that one probe caught by a
        # context switch does not rescale its stretch
        cost = np.concatenate((marks[:1, 1], marks[:, 1], marks[-1:, 1]))
        cost = np.median(np.stack((cost[:-2], cost[1:-1], cost[2:])), axis=0)
        self.wall_s = float(np.sum(stretch))
        self.ref_s = float(np.sum(stretch * PROBE_REF_S / cost))
        return False


def git_commit(root: str) -> str:
    """Commit of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": git_commit(root),
        "threads": {k: v for k, v in sorted(os.environ.items())
                    if k.endswith("_NUM_THREADS")},
        "load": "closed loop, 1 process, 1 thread",
    }


def percentile_tail(samples: list):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are fewer than 11 samples."""
    n = len(samples)
    if n < 11:
        return None
    rank = n - 10  # 1-based rank with exactly ten samples above it
    return 100.0 * rank / n, sorted(samples)[rank - 1]


# ---------------------------------------------------------------------------
# per-layer metrics of one traced run


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if values.size else 0.0


def _ratio(num: float, den: float) -> float:
    # 0 where the layer was bypassed (no denominator)
    return num / den if den else 0.0


def layer_metrics(view: tracing.SpanView, run_M: int, io_bytes: int) -> dict:
    """Per-layer metrics from one run's spans; a metric whose span target no
    longer exists is left out."""
    v = view
    out = {}

    def put(name, fn):
        try:
            out[name] = float(fn())
        except tracing.MissingSpan:
            pass

    def halvings():
        return (v.calls_under("operators.apply_A_values", "solver.implicit_step")
                - v.calls("solver.implicit_step") - v.counter("solver.solve_frozen"))

    put("noise.sample.calls", lambda: v.calls("noise.sample_noise_path"))
    put("noise.sample.busy_s", lambda: v.busy("noise.sample_noise_path"))
    put("noise.sample.us_p50", lambda: 1e6 * _pct(v.durations("noise.sample_noise_path"), 50))
    put("noise.increments", lambda: v.counter("noise.sample_noise_path"))
    put("operators.apply_A.calls", lambda: v.calls("operators.apply_A_values"))
    put("operators.apply_A.busy_s", lambda: v.busy("operators.apply_A_values"))
    put("operators.jacobian.calls", lambda: v.calls("operators.jacobian_bands"))
    put("operators.jacobian.busy_s", lambda: v.busy("operators.jacobian_bands"))
    put("operators.pointwise.busy_s", lambda: sum(
        v.busy(s) for s in ("operators.eval_b_values", "operators.eval_f_values",
                            "operators.noise_term_values")))
    put("operators.check_assumptions.busy_s", lambda: v.busy("operators.check_assumptions"))
    put("solver.solve_frozen.calls", lambda: v.calls("solver.solve_frozen"))
    put("solver.steps", lambda: v.calls("solver.implicit_step"))
    put("solver.newton_iters", lambda: v.counter("solver.solve_frozen"))
    put("solver.newton_iters_per_step", lambda: _ratio(
        v.counter("solver.solve_frozen"), v.calls("solver.implicit_step")))
    put("solver.step.us_p50", lambda: 1e6 * _pct(v.durations("solver.implicit_step"), 50))
    put("solver.step.us_p99", lambda: 1e6 * _pct(v.durations("solver.implicit_step"), 99))
    put("solver.step.self_s", lambda: v.self_time_of("solver.implicit_step"))
    put("solver.linsolve.calls", lambda: v.calls("solver.solve_banded"))
    put("solver.linsolve.busy_s", lambda: v.busy("solver.solve_banded"))
    put("solver.line_search_halvings", halvings)
    put("solver.line_search_accept_ratio", lambda: _ratio(
        v.counter("solver.solve_frozen"), v.counter("solver.solve_frozen") + halvings()))
    put("comparison.study_s", lambda: v.busy("comparison.comparison_study"))
    put("comparison.coupled_runs", lambda: v.calls("comparison.run_coupled"))
    put("comparison.useful_run_ratio", lambda: _ratio(run_M, v.calls("comparison.run_coupled")))
    put("comparison.reduce_s", lambda: v.busy("comparison.energy_series")
        + v.busy("comparison.sigma_energy_trace"))
    put("bracket.extremal_solves", lambda: v.calls("bracket.build_extremal"))
    put("bracket.sweeps", lambda: v.calls("bracket.apply_S"))
    put("bracket.sweep.ms_p50", lambda: 1e3 * _pct(v.durations("bracket.apply_S"), 50))
    put("bracket.iterate_s", lambda: v.busy("bracket.iterate_bracket"))
    put("bracket.self_s", lambda: v.layer_self("bracket"))
    put("scenarios.io_s", lambda: v.busy("scenarios.trajectory_to_csv")
        + v.busy("scenarios.energies_to_csv"))
    put("scenarios.io_bytes", lambda: io_bytes)
    put("scenarios.build_s", lambda: v.busy("scenarios.build_problem_spec"))
    put("scenarios.self_s", lambda: v.self_time_of("scenarios.run_scenario"))
    put("config.resolve_s", lambda: v.layer_busy("config"))
    return out


def identity_problems(m: dict) -> list:
    """Count identities every traced run must satisfy (skipped when a
    metric is missing)."""
    problems = []

    def have(*names):
        return all(n in m for n in names)

    if have("solver.linsolve.calls", "solver.newton_iters") and \
            m["solver.linsolve.calls"] != m["solver.newton_iters"]:
        problems.append(f"linsolve calls {m['solver.linsolve.calls']:.0f} != "
                        f"Newton iterations {m['solver.newton_iters']:.0f}")
    if have("solver.line_search_halvings") and m["solver.line_search_halvings"] < 0:
        problems.append(f"negative line-search halvings {m['solver.line_search_halvings']:.0f}")
    if have("solver.solve_frozen.calls", "bracket.extremal_solves", "bracket.sweeps",
            "comparison.coupled_runs"):
        expected = (m["bracket.extremal_solves"] + m["bracket.sweeps"]
                    + 2 * m["comparison.coupled_runs"])
        if m["solver.solve_frozen.calls"] != expected:
            problems.append(f"solve_frozen calls {m['solver.solve_frozen.calls']:.0f} != "
                            f"extremal + sweeps + 2 coupled = {expected:.0f}")
    return problems


# ---------------------------------------------------------------------------
# one benchmark invocation


def bench(root: str, name: str, seed: int, seconds: float, trace: bool,
          small: bool = False) -> dict:
    """Run one workload for about `seconds` and return the result record.

    With trace off it measures the end-to-end metrics; with trace on it
    alternates untraced and traced runs and derives the per-layer metrics
    from the traced ones.  `small` selects the reduced-size inputs of the
    self-check.
    """
    workload = WORKLOADS[name]
    out = os.path.join(root, OUT_DIR, name + ("@small" if small else ""))
    os.makedirs(out, exist_ok=True)
    artifacts = os.path.join(out, "artifacts")
    env = environment(root)
    env["probe_ms_start"] = 1e3 * probe_median_s(41)
    cfg_path = write_config(workload, out, small)
    cfg = cli.load_config(cfg_path)
    paths = cfg["run.M"] if cfg["noise.K"] > 0 else 1
    checker = Checker(workload, load_reference(workload, small, seed))
    tally = Tally()

    # warm-up at reduced size, so lazy set-up is not in the first sample
    warm_path = write_config(workload, out, small=True)
    tally.record("warm-up", run_once(warm_path, seed, artifacts, Checker(workload))[2])

    metrics, record = {}, {}
    if not trace:
        setup_s, setup_samples, problems = measure_setup(root, cfg_path, SETUP_REPEATS)
        tally.record("set-up", problems)
        ref = []

        def step():
            wall_s, ref_s, problems = run_once(cfg_path, seed, artifacts, checker)
            tally.record(f"run {tally.attempted}", problems)
            ref.append(ref_s)
            return wall_s

        wall = closed_loop(seconds, step)
        run_s = float(np.median(ref))
        metrics = {
            "run_s": run_s,
            "paths_per_s": paths / run_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        if setup_s is not None:
            metrics["setup_s"] = setup_s
        record.update(run_s_samples=ref, run_s_tail=percentile_tail(ref),
                      wall_run_s_samples=wall, setup_s_samples=setup_samples)
    else:
        tracer = tracing.Tracer()
        untraced, traced, per_run = [], [], []

        def pair():
            wall_u, ref_s, problems = run_once(cfg_path, seed, artifacts, checker)
            tally.record(f"run {tally.attempted}", problems)
            untraced.append(ref_s)
            run_id = len(traced)
            tracer.install(run_id)
            try:
                wall_t, ref_s, problems = run_once(cfg_path, seed, artifacts, checker)
            finally:
                tracer.uninstall()
            traced.append(ref_s)
            view = tracer.spans(run_id)
            m = layer_metrics(view, cfg["run.M"], output_bytes(artifacts)
                              if os.path.isdir(artifacts) else 0)
            m["trace.spans"] = float(len(view))
            per_run.append(m)
            tally.record(f"traced run {run_id}",
                         problems + view.nesting_defects() + identity_problems(m))
            return wall_u + wall_t

        closed_loop(seconds, pair)
        for key in per_run[0]:
            metrics[key] = float(np.median([m[key] for m in per_run]))
        metrics["trace.overhead_ratio"] = float(np.median(traced) / np.median(untraced))
        record.update(untraced_run_s=untraced, traced_run_s=traced,
                      missing_spans=sorted(tracer.missing))
        tracer.save(os.path.join(out, "spans.npz"))
        record["spans_file"] = os.path.relpath(os.path.join(out, "spans.npz"), root)

    env["probe_ms_end"] = 1e3 * probe_median_s(41)
    env["probe_ref_ms"] = 1e3 * PROBE_REF_S
    record.update(workload=name, seed=seed, seconds=seconds, trace=int(trace),
                  small=small, paths_per_run=paths, env=env, metrics=metrics,
                  attempted=tally.attempted, failed=tally.failed,
                  failed_frac=tally.failed / tally.attempted,
                  problems=tally.problems)
    return record
