"""Outside-in span tracing of the spdeorder layers.

The package imports functions by name (``from .solver import solve_frozen``),
so a function is traced by replacing it in every ``spdeorder`` module that
holds it, and methods by replacing the class attribute.  Each call records
one span: name, start, end, parent span and run id.  Spans stay in compact
in-memory arrays while the run goes and are written out at the end.

A target that no longer exists in its defining module is reported as
missing, and the metrics that need it are left out rather than failing the
run.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

# (span name, layer, defining module, attribute path)
TARGETS = (
    ("config.resolve_config", "config", "spdeorder.config", "resolve_config"),
    ("config.load_config", "config", "spdeorder.config", "load_config"),
    ("scenarios.run_scenario", "scenarios", "spdeorder.scenarios", "run_scenario"),
    ("scenarios.build_problem_spec", "scenarios", "spdeorder.scenarios",
     "build_problem_spec"),
    ("scenarios.trajectory_to_csv", "scenarios", "spdeorder.solver", "Trajectory.to_csv"),
    ("scenarios.energies_to_csv", "scenarios", "spdeorder.comparison",
     "ComparisonReport.energies_to_csv"),
    ("noise.sample_noise_path", "noise", "spdeorder.noise", "sample_noise_path"),
    ("operators.check_assumptions", "operators", "spdeorder.operators",
     "check_assumptions"),
    ("operators.apply_A_values", "operators", "spdeorder.operators", "apply_A_values"),
    ("operators.jacobian_bands", "operators", "spdeorder.operators", "jacobian_bands"),
    ("operators.eval_b_values", "operators", "spdeorder.operators", "eval_b_values"),
    ("operators.eval_f_values", "operators", "spdeorder.operators", "eval_f_values"),
    ("operators.noise_term_values", "operators", "spdeorder.operators",
     "noise_term_values"),
    ("solver.solve_frozen", "solver", "spdeorder.solver", "solve_frozen"),
    ("solver.implicit_step", "solver", "spdeorder.solver", "implicit_step"),
    # scipy's solve_banded, traced only where the solver module calls it
    ("solver.solve_banded", "solver", "spdeorder.solver", "solve_banded"),
    ("comparison.comparison_study", "comparison", "spdeorder.comparison",
     "comparison_study"),
    ("comparison.run_coupled", "comparison", "spdeorder.comparison", "run_coupled"),
    ("comparison.energy_series", "comparison", "spdeorder.comparison", "energy_series"),
    ("comparison.sigma_energy_trace", "comparison", "spdeorder.comparison",
     "sigma_energy_trace"),
    ("bracket.bracket_study", "bracket", "spdeorder.bracket", "bracket_study"),
    ("bracket.build_extremal", "bracket", "spdeorder.bracket", "build_extremal"),
    ("bracket.iterate_bracket", "bracket", "spdeorder.bracket", "iterate_bracket"),
    ("bracket.apply_S", "bracket", "spdeorder.bracket", "apply_S"),
    ("bracket.verify_interval", "bracket", "spdeorder.bracket", "verify_interval"),
)

# counters taken from return values at the span boundary: span -> (counter, fn)
RESULT_COUNTERS = {
    "solver.solve_frozen": ("newton_iters", lambda traj: sum(traj.newton_iters)),
    "noise.sample_noise_path": ("noise_increments", lambda path: path.increments.size),
}

NAMES = tuple(t[0] for t in TARGETS)
LAYER_OF = {t[0]: t[1] for t in TARGETS}


class MissingSpan(LookupError):
    """A metric needs a span whose target no longer exists."""


class Tracer:
    """Records spans for the targets in TARGETS while installed."""

    def __init__(self):
        self.name = array("i")
        self.parent = array("i")
        self.run = array("i")
        self.start = array("d")
        self.end = array("d")
        self.counters: dict = {}  # (run id, counter) -> total
        self.missing = set()
        self._stack = [-1]
        self._run_id = -1
        self._patches = []  # (owner, attribute, original)
        self._wrappers = {}
        for name_id, (span, _, module, path) in enumerate(TARGETS):
            owner, attr = _resolve(module, path)
            if owner is None:
                self.missing.add(span)
                continue
            original = getattr(owner, attr)
            self._wrappers[span] = (owner, attr, original,
                                    self._wrap(original, name_id, span))

    def _wrap(self, fn, name_id, span):
        names, parents, runs = self.name.append, self.parent.append, self.run.append
        starts, ends_append, ends = self.start.append, self.end.append, self.end
        stack, clock = self._stack, time.perf_counter
        counter = RESULT_COUNTERS.get(span)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ends)
            names(name_id)
            parents(stack[-1])
            runs(tracer._run_id)
            ends_append(0.0)
            stack.append(index)
            starts(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if counter is not None:
                key = (tracer._run_id, counter[0])
                tracer.counters[key] = tracer.counters.get(key, 0) + counter[1](result)
            return result

        return traced

    def install(self, run_id: int) -> None:
        """Start a traced run: patch every module and class that holds a target."""
        self._run_id = run_id
        for owner, attr, original, wrapper in self._wrappers.values():
            holders = [owner] if isinstance(owner, type) else [
                mod for name, mod in list(sys.modules.items())
                if name.split(".")[0] == "spdeorder"
                and getattr(mod, attr, None) is original]
            for holder in holders:
                setattr(holder, attr, wrapper)
                self._patches.append((holder, attr, original))

    def uninstall(self) -> None:
        for holder, attr, original in reversed(self._patches):
            setattr(holder, attr, original)
        self._patches.clear()

    def spans(self, run_id: int) -> "SpanView":
        idx = np.flatnonzero(_column(self.run) == run_id)
        return SpanView(self, run_id, idx)

    def save(self, path) -> None:
        """Write every span recorded so far, one row per span."""
        np.savez(path, names=np.array(NAMES), name=_column(self.name),
                 parent=_column(self.parent), run=_column(self.run),
                 start=_column(self.start), end=_column(self.end))


def _column(values: array) -> np.ndarray:
    # a copy, so the array can keep growing (it cannot resize while exported)
    return np.frombuffer(values, dtype=values.typecode).copy()


def _resolve(module_name, path):
    """(owner, attribute) for 'func' or 'Class.method' in a loaded module."""
    obj = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        obj = getattr(obj, part, None)
    if obj is None or not hasattr(obj, parts[-1]):
        return None, None
    return obj, parts[-1]


class SpanView:
    """Spans of one run, with durations and self times."""

    def __init__(self, tracer: Tracer, run_id: int, idx: np.ndarray):
        self.tracer = tracer
        self.run_id = run_id
        name = _column(tracer.name)[idx]
        parent = _column(tracer.parent)[idx]
        self.start = _column(tracer.start)[idx]
        self.end = _column(tracer.end)[idx]
        self.name = name
        self.duration = self.end - self.start
        # parent as a position inside this view (-1 for a root span)
        local = np.full(parent.shape, -1)
        has_parent = parent >= 0
        local[has_parent] = np.searchsorted(idx, parent[has_parent])
        self.parent = local
        covered = np.bincount(local[has_parent], weights=self.duration[has_parent],
                              minlength=idx.size)
        # children of one span run one after another, so they never overlap
        self.self_time = self.duration - covered
        self.parent_name = np.where(has_parent, name[np.maximum(local, 0)], -1)

    def __len__(self):
        return int(self.name.size)

    def _mask(self, span: str) -> np.ndarray:
        if span in self.tracer.missing:
            raise MissingSpan(span)
        return self.name == NAMES.index(span)

    def calls(self, span: str) -> int:
        return int(np.count_nonzero(self._mask(span)))

    def busy(self, span: str) -> float:
        return float(np.sum(self.duration[self._mask(span)]))

    def self_time_of(self, span: str) -> float:
        return float(np.sum(self.self_time[self._mask(span)]))

    def durations(self, span: str) -> np.ndarray:
        return self.duration[self._mask(span)]

    def calls_under(self, span: str, parent: str) -> int:
        self._mask(parent)  # raises MissingSpan when the parent target is gone
        mask = self._mask(span) & (self.parent_name == NAMES.index(parent))
        return int(np.count_nonzero(mask))

    def layer_self(self, layer: str) -> float:
        ids = [NAMES.index(s) for s in NAMES if LAYER_OF[s] == layer]
        return float(np.sum(self.self_time[np.isin(self.name, ids)]))

    def layer_busy(self, layer: str) -> float:
        """Time inside the layer's outermost spans (nested ones not counted twice)."""
        ids = [NAMES.index(s) for s in NAMES if LAYER_OF[s] == layer]
        inner = np.isin(self.parent_name, ids)
        return float(np.sum(self.duration[np.isin(self.name, ids) & ~inner]))

    def counter(self, span: str) -> int:
        counter = RESULT_COUNTERS[span][0]
        self._mask(span)
        return self.tracer.counters.get((self.run_id, counter), 0)

    def nesting_defects(self) -> list:
        """Spans that leave their parent's interval or have negative self time."""
        problems = []
        has_parent = self.parent >= 0
        p = self.parent[has_parent]
        outside = ((self.start[has_parent] < self.start[p])
                   | (self.end[has_parent] > self.end[p]))
        if np.any(outside):
            problems.append(f"{int(np.count_nonzero(outside))} spans outside their parent")
        if np.any(self.duration < 0):
            problems.append("negative span duration")
        if np.any(self.self_time < -1e-9):
            problems.append(f"negative self time {float(np.min(self.self_time)):.3e} s")
        return problems
