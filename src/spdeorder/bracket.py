"""Extremal sub/supersolution brackets and the monotone fixed-point
iteration.

The bracket trajectories solve the auxiliary problems with the Lipschitz
forcing -C_B(1+u) (lower) and +C_B(1+u) (upper).  The candidate map S
sends a trajectory to the solution of the frozen-drift problem with the
drift evaluated along it; iterating S from a bracket produces a monotone
sequence whose limit approximates the minimal or maximal solution.  The
iteration is pathwise: each sweep is deterministic for a fixed noise path
and drift.  S is causal, so the extremals and all sweeps of all (noise
path, drift) pairs and of both sides run in one time march: a wave over
sweep levels, the extremals at level 0, each level one row or more
behind the one it reads, whose passes step every level that can step in
one batch and write the new iterates in place.  Each member's extremal
and iterates are those of solving and sweeping it alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .noise import NoisePath, sample_noise_path
from .operators import DriftSpec, eval_b_values
from .solver import (
    Forcing,
    NewtonLog,
    NewtonParams,
    ProblemSpec,
    Trajectory,
    solve_frozen,
    sup_h_distance,
)

MIN_SIDE = "min"
MAX_SIDE = "max"


def extremal_forcing(sides: Union[str, Sequence[str]],
                     C_B: Union[float, Sequence[float]]) -> Forcing:
    """State-dependent Lipschitz forcing -C_B(1+u) / +C_B(1+u): one side and
    one C_B for the whole batch, or one of either per member."""
    coeff = _extremal_coeff(sides, C_B)
    if coeff.ndim:
        coeff = coeff[:, None]

    def forcing(n, u):
        return coeff * (1.0 + u)

    return forcing


def _extremal_coeff(sides, C_B) -> np.ndarray:
    """The coefficient -C_B (min side) or +C_B (max side) of the extremal
    forcing, per side."""
    sides = np.asarray(sides)
    if not np.isin(sides, (MIN_SIDE, MAX_SIDE)).all():
        raise ValueError(f"side must be '{MIN_SIDE}' or '{MAX_SIDE}'")
    return np.where(sides == MAX_SIDE, 1.0, -1.0) * np.asarray(C_B, dtype=float)


def build_extremal(
    spec: ProblemSpec,
    u0: np.ndarray,
    sides: Union[str, Sequence[str]],
    noise_paths: Union[NoisePath, Sequence[NoisePath], None] = None,
    newton: NewtonParams = NewtonParams(),
    drifts: Optional[Sequence[DriftSpec]] = None,
) -> Trajectory:
    """Solve the auxiliary bracket problems from u0 in one batch: one side
    for every path, or one side per noise path.  The forcing reads only C_B
    of the drift: spec.drift's, or that of each member's drift in drifts."""
    C_B = spec.drift.C_B if drifts is None else [drift.C_B for drift in drifts]
    return solve_frozen(spec, u0, extremal_forcing(sides, C_B), noise_paths, newton)


def apply_S(
    spec: ProblemSpec,
    u_tilde: Trajectory,
    noise_paths: Union[NoisePath, Sequence[NoisePath], None] = None,
    newton: NewtonParams = NewtonParams(),
    store: Optional[Callable[[tuple, np.ndarray, np.ndarray], None]] = None,
    drifts: Optional[Sequence[DriftSpec]] = None,
    schedule: Optional[Iterable] = None,
    sides: Optional[Sequence[Optional[str]]] = None,
) -> Union[Trajectory, NewtonLog]:
    """Candidate map: solve the frozen problem with the drift evaluated
    along u_tilde (sampled at the right endpoint of each step, see the
    Forcing contract in the solver module), in one batch over the paths of
    u_tilde, one noise path each, from row 0 of u_tilde.  drifts holds one
    drift per path (spec.drift for all by default); each drift is
    evaluated on its own paths' rows, one eval_b_values call per distinct
    drift and pass, so every path's values are those of its solve alone.

    sides, when given, holds one entry per path: None for a path that S
    maps, or the side of an extremal path, which steps instead with the
    extremal forcing of that side and its drift's C_B on its own state,
    bit for bit that of extremal_forcing; its values do not depend on
    u_tilde past row 0.  A store takes the new states
    pass by pass instead, as store(n, v, h) with the pass index
    n = (members, steps) and the forcing values h the pass read, and a
    schedule hands the march its passes (see march); a pass that steps
    path m at step k reads row k + 1 of path m of u_tilde before its new
    states reach the store."""
    drifts = (spec.drift,) * u_tilde.n_paths if drifts is None else drifts
    if len(drifts) != u_tilde.n_paths or (sides is not None and len(sides) != len(drifts)):
        raise ValueError("apply_S needs one drift and one side per path")
    kinds, group = _drift_kinds(drifts)
    if sides is not None:
        extremal = np.array([side is not None for side in sides])
        # each path's coefficient, read only on the extremal ones
        coeff = _extremal_coeff([side or MIN_SIDE for side in sides],
                                [drift.C_B for drift in drifts])
    read = None

    def forcing(n, u):
        nonlocal read
        members, steps = n
        read = _drift_values(kinds, group[members], u_tilde.values[members, steps + 1])
        if sides is not None and (rows := extremal[members]).any():
            read[rows] = coeff[members][rows, None] * (1.0 + u[rows])
        return read

    def stored(n, v):
        store(n, v, read)

    return solve_frozen(spec, u_tilde.values[:, 0], forcing, noise_paths, newton,
                        None if store is None else stored, schedule)


def _drift_kinds(drifts: Sequence[DriftSpec]) -> tuple:
    """The distinct drifts, in order of first appearance, and the index
    among them of each drift."""
    kinds = list(dict.fromkeys(drifts))
    return kinds, np.array([kinds.index(drift) for drift in drifts])


def _drift_values(kinds: Sequence[DriftSpec], group: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """b(values) with row i under the drift kinds[group[i]]: one
    eval_b_values call per drift on all rows, pointwise, and each row keeps
    the values of its own."""
    h = eval_b_values(kinds[0], values)
    for g in range(1, len(kinds)):
        rows = (group == g).reshape(group.shape + (1,) * (values.ndim - 1))
        np.copyto(h, eval_b_values(kinds[g], values), where=rows)
    return h


@dataclass(frozen=True)
class BracketResult:
    """One side of one (noise path, drift) pair: its extremal, its final
    iterate and the defects of each sweep.  Both trajectories are
    read-only views into the study's one array, and their rows were made
    in many passes, so neither carries per-step Newton metadata."""

    side: str
    extremal_start: Trajectory
    residual_history: tuple
    monotonicity_violations: tuple
    containment_violations: tuple
    # the step each sweep starts at, N for a sweep taken without stepping
    sweep_starts: tuple
    converged: bool
    final: Trajectory
    n_sweeps: int
    mono_tol: float

    @property
    def monotone_ok(self) -> bool:
        return all(v <= self.mono_tol for v in self.monotonicity_violations)

    def to_text(self) -> str:
        lines = [
            f"side = {self.side}",
            f"sweeps = {self.n_sweeps}",
            f"converged = {str(self.converged).lower()}",
            f"final_residual = "
            f"{(self.residual_history[-1] if self.residual_history else 0.0)!r}",
            f"monotone_ok = {str(self.monotone_ok).lower()}",
            "residual_history = "
            + ",".join(repr(r) for r in self.residual_history),
            "monotonicity_violations = "
            + ",".join(repr(v) for v in self.monotonicity_violations),
            "containment_violations = "
            + ",".join(repr(v) for v in self.containment_violations),
        ]
        return "\n".join(lines) + "\n"


class _Wave:
    """The schedule and the store of the one march that runs a whole
    bracket study.  Level k of member m, the sweep that makes
    u^k = S(u^{k-1}), is a lane; level 0 is the member's extremal u^0,
    and each distinct extremal is one lane, read by every member that
    shares it.  Each pass steps every lane that can step by one row, in
    one batch: the extremals step in every pass, from row 0 until they
    hold row N, with the forcing -C_B(1+u_n) / +C_B(1+u_n) of their own
    state.

    buf holds each member's latest iterate in row m (current) and the
    extremals in the rows after them (ext).  A pass that makes a row of
    the extremals copies it into the members that read them, so all
    levels of a member share its row of current: level k holds rows
    0..have[m, k] there, and the later rows still hold lower levels.  A
    lane at row r steps once level k - 1 holds row r + 1.  Its forcing
    reads that row, which the lane then writes over, and its state is its
    own row r.  Level k + 1 writes row r only in a pass that steps lane k
    too, and a pass reads before it writes: a level that has stepped steps
    in every pass until it completes, since its predecessor, which has
    stepped too, stays at least a row ahead of it.

    Level k + 1 starts at R = (the first row where b(u^k) and b(u^{k-1})
    differ bit for bit) - 1, found as level k writes that row: rows 0..R
    of u^{k+1} are those of u^k, so it neither solves nor writes them.  A
    lane steps only while its predecessor cannot be final: its residual
    so far exceeds tol_fixed (it only grows), or it completed without
    stopping.  A level stops when it completes with a residual of at most
    tol_fixed, or at level max_outer, and the levels after it are dropped:
    they never stepped, so they wrote nothing.  If level k completes
    without stopping and no drift value changed, level k + 1 is taken
    without stepping: u^{k+1} = u^k, residual and monotonicity 0.0, the
    containment defect of level k, and it stops.

    Each lane's step gets the state, forcing and noise weight of its
    sweep alone, and each row's defects are reduced on their own: sums of
    squares run along the node axis and maxima are exact, so every defect
    equals the one taken over the whole trajectory at once.  The march
    keeps no per-lane Newton metadata, so neither the extremals nor the
    finals carry any.
    """

    def __init__(self, buf: np.ndarray, index: np.ndarray, drifts: Sequence[DriftSpec],
                 max_outer: int, tol_fixed: float, dx: float):
        M, N = len(index), buf.shape[1] - 1
        P, K = M // 2, max_outer
        self.buf, self.current, self.ext = buf, buf[:M], buf[M:]
        self.extremals = np.arange(M, len(buf))  # their rows of buf
        self.index = index
        # the containment defect of each row of each member's latest
        # iterate; row 0 is u0 in every iterate and extremal
        self.excess = np.zeros((M, N + 1))
        self.N, self.P, self.K, self.tol, self.dx = N, P, K, tol_fixed, dx
        # the rows of ext holding each member's lower and upper extremal
        members = np.arange(M) % P
        self.bounds = np.stack((index[members], index[P + members]), axis=1)
        self.kinds, self.group = _drift_kinds(drifts)
        # the per-level arrays below have a column for each level up to
        # top + 1 at least; they grow as levels start, not with max_outer.
        # The last row each level holds; N + 1 for a level not started or
        # dropped.  Level 0 is the extremals, which all hold the same rows
        self.have = np.full((M, 3), N + 1)
        self.have[:, :2] = 0
        # the last row level k + 1 may step from: have[m, k] - 1, or -1
        # while level k may be final
        self.limit = np.full((M, 3), -1)
        self.start = np.zeros((M, 3), dtype=int)
        # each level's worst sum of squares of new - old, monotonicity and
        # containment defects
        self.defects = np.zeros((3, M, 3))
        self.defects[1, :, 1] = -np.inf
        self.top = 1  # the highest level started
        # residual, monotonicity and containment defects and start of each sweep
        self.histories = [[] for _ in range(M)]

    def passes(self):
        """The passes of the march: ((rows of buf, steps), states) of every
        lane that can step, the extremals last."""
        while True:
            lanes = self.have[:, 1:self.top + 1]
            m, k = np.nonzero(lanes <= self.limit[:, :self.top])
            steps = lanes[m, k]
            self.k = k + 1
            if self.have[0, 0] < self.N:
                m = np.concatenate((m, self.extremals))
                steps = np.concatenate((steps, np.full(len(self.ext), self.have[0, 0])))
            elif not len(m):
                return
            yield (m, steps), self.buf[m, steps]

    def store(self, n: tuple, v: np.ndarray, h: np.ndarray) -> None:
        (m, steps), k = n, self.k
        if self.have[0, 0] < self.N:  # the extremals end the pass
            L, row = len(k), self.have[0, 0] + 1
            self.ext[:, row] = v[L:]
            self.current[:, row] = v[L + self.index]
            self.have[:, 0], self.limit[:, 0] = row, row - 1
            if not L:
                return
            m, steps, v = m[:L], steps[:L], v[:L]
        rows = steps + 1
        old = self.current[m, rows]
        todo = np.flatnonzero((self.have[m, k + 1] == self.N + 1) & (k < self.K))
        if len(todo):
            # h holds the b(old) each lane read; bit patterns, not ==:
            # +0.0 against -0.0 changes the forcing too
            new = _drift_values(self.kinds, self.group[m[todo]], v[todo])
            changed = (new.view(np.int64) != h[todo].view(np.int64)).any(axis=-1)
            for i in todo[changed].tolist():
                self._start(m[i], k[i] + 1, steps[i])
        # the worst sum of squares of new - old, monotonicity and
        # containment defect of each new row
        found = np.empty((3, len(m)))
        diff = np.subtract(v, old, out=old)
        (diff * diff).sum(axis=-1, out=found[0])
        # min side expects new >= old pointwise, max side the reverse; the
        # lanes are in member order, so the min-side ones come first
        n_min = m.searchsorted(self.P)
        np.negative(diff[:n_min], out=diff[:n_min])  # in place, exact
        diff.max(axis=-1, out=found[1])
        # worst of lower - new and new - upper on each row
        lower, upper = self.ext[self.bounds[m], rows[:, None]].transpose(1, 0, 2)
        np.maximum((lower - v).max(axis=-1), (v - upper).max(axis=-1), out=found[2])
        self.excess[m, rows] = found[2]
        defects = np.maximum(self.defects[:, m, k], found, out=found)
        self.defects[:, m, k] = defects
        self.current[m, rows] = v
        self.have[m, k] = rows
        # a residual above tol_fixed so far: the level cannot be final
        self.limit[m, k] = np.where(np.sqrt(defects[0] * self.dx) > self.tol, steps, -1)
        if rows.max() == self.N:
            for i in np.flatnonzero(rows == self.N).tolist():
                self._complete(m[i], k[i])

    def _start(self, m: int, k: int, R: int) -> None:
        if k + 2 > self.have.shape[1]:  # double the level axis
            for name, fill in (("have", self.N + 1), ("limit", -1), ("start", 0),
                               ("defects", 0.0)):
                levels = getattr(self, name)
                setattr(self, name, np.concatenate(
                    (levels, np.full(levels.shape, fill, levels.dtype)), axis=-1))
        self.have[m, k] = self.start[m, k] = R
        self.defects[:, m, k] = (0.0, -np.inf, self.excess[m, :R + 1].max())
        self.top = max(self.top, k)

    def _complete(self, m: int, k: int) -> None:
        sq, mono, containment = self.defects[:, m, k].tolist()
        residual = float(np.sqrt(sq * self.dx))
        # max keeps the first of equal values, so 0.0 goes first: a -0.0
        # defect is recorded as +0.0
        containment = max(0.0, containment)
        history = self.histories[m]
        history.append((residual, max(0.0, mono), containment, int(self.start[m, k])))
        if residual <= self.tol or k == self.K:
            self.have[m, k + 1:] = self.N + 1
        elif self.have[m, k + 1] == self.N + 1:
            # no drift value changed: sweep k + 1 repeats u^k without stepping
            history.append((0.0, 0.0, containment, self.N))
        else:
            self.limit[m, k] = self.N - 1


def iterate_bracket(
    spec: ProblemSpec,
    u0: np.ndarray,
    noise_paths: Sequence[NoisePath],
    drifts: Optional[Sequence[DriftSpec]] = None,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> list[BracketResult]:
    """Monotone sweeps u <- S(u) of both sides of P (noise path, drift)
    pairs from the one (n,) datum u0: path m carries drifts[m]
    (spec.drift for all by default).

    Member m < P sweeps the min side of path m from its lower extremal,
    member P + m the max side from its upper one.  The extremal forcing
    reads only C_B of the drift, so each distinct (noise path, side, C_B)
    extremal is solved once, and members that share one read it.

    S is causal: row r of S(u) reads u only at rows <= r, and only through
    the drift values b(u).  So the whole study runs in one apply_S call, a
    wave over sweep levels (see _Wave) whose level 0 solves the
    extremals: sweep k steps a row once sweep k - 1 (the extremal for
    k = 1) has made the rows it reads, writes its iterate in place over
    sweep k - 1's, and starts at the row R before the first row where
    b(u^{k-1}) and b(u^{k-2}) differ bit for bit (sweep 1 at 0), since
    S(u^{k-1}) equals u^{k-1} on rows 0..R; R = N, a sweep taken without
    stepping, when none differs.  A member stops when
    sup_t ||S(u) - u||_H <= tol_fixed, which a sweep without stepping
    always meets, or after max_outer sweeps, and its later sweeps are
    dropped before they step; so its extremal, iterates and defects are
    bit for bit those of build_extremal and of sweeping it alone from
    step 0 every time.  Min-side iterates are expected nondecreasing in
    the sweep index (max side mirrored); per-sweep violations and
    bracket-containment defects are logged, never silently accepted.  A
    Newton failure in any lane raises NewtonDivergenceError from the
    first failing pass.  Returns the 2P results in member order; their
    trajectories are read-only views into the study's one array, and
    neither an extremal nor a final, whose rows many passes solved,
    carries Newton metadata.
    """
    if not tol_fixed > 0:
        raise ValueError("tol_fixed must be positive")
    if max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    paths = list(noise_paths)
    P = len(paths)
    drifts = [spec.drift] * P if drifts is None else list(drifts)
    if P < 1 or len(drifts) != P:
        raise ValueError("need at least one noise path and one drift per path")
    sides = (MIN_SIDE,) * P + (MAX_SIDE,) * P
    keys = [(id(paths[m % P]), side, drifts[m % P].C_B) for m, side in enumerate(sides)]
    slots = {}
    for key in keys:
        slots.setdefault(key, len(slots))
    index = np.array([slots[key] for key in keys])  # each member's extremal
    owners = [keys.index(key) for key in slots]  # the first member of each
    grid, tg = spec.grid, spec.time_grid
    if np.shape(u0) != (grid.n_interior,):
        raise ValueError(f"initial datum of shape {np.shape(u0)}, "
                         f"expected ({grid.n_interior},)")
    # each member's latest iterate, rewritten in place by its sweeps, then
    # the extremals; finite before the march, since u_tilde wraps it
    buf = np.zeros((2 * P + len(owners), tg.n_steps + 1, grid.n_interior))
    buf[:, 0] = u0
    wave = _Wave(buf, index, drifts * 2, max_outer, tol_fixed, grid.dx)
    lanes = list(range(2 * P)) + owners  # the member whose path and drift each row takes
    apply_S(spec, Trajectory(grid, tg, buf), [paths[m % P] for m in lanes],
            newton, wave.store, [drifts[m % P] for m in lanes], wave.passes(),
            [None] * (2 * P) + [sides[m] for m in owners])
    return [
        BracketResult(
            side=side,
            extremal_start=Trajectory(grid, tg, wave.ext[e:e + 1]),
            residual_history=residuals,
            monotonicity_violations=mono,
            containment_violations=containment,
            sweep_starts=sweep_starts,
            converged=residuals[-1] <= tol_fixed,
            final=Trajectory(grid, tg, buf[m:m + 1]),
            n_sweeps=len(residuals),
            mono_tol=mono_tol,
        )
        for m, (side, e, (residuals, mono, containment, sweep_starts))
        in enumerate(zip(sides, index.tolist(), (zip(*h) for h in wave.histories)))
    ]


@dataclass(frozen=True)
class BracketPair:
    path_index: int
    minimal: BracketResult
    maximal: BracketResult

    @property
    def gap(self) -> float:
        """sup-over-time H distance between the two one-sided finals."""
        return sup_h_distance(self.minimal.final, self.maximal.final)

    @property
    def cross_order_violation(self) -> float:
        """Worst pointwise excess of the min final over the max final."""
        return float(np.max(self.minimal.final.values - self.maximal.final.values))


def bracket_study(
    spec: ProblemSpec,
    u0: np.ndarray,
    master_seed: int,
    path_indices: Sequence[int] = (0,),
    drifts: Optional[Sequence[DriftSpec]] = None,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> list[BracketPair]:
    """Both one-sided iterations of every (drift, noise path) pair from the
    (n,) datum u0, in one march (see iterate_bracket): drifts
    defaults to (spec.drift,), and path index m is noise path m of
    master_seed.

    Returns one pair per (drift, path), drift-major: pair
    d * len(path_indices) + i is drifts[d] on path path_indices[i].  Each
    pair's results are bit for bit those of the call with that one drift
    and that one path.
    """
    drifts = (spec.drift,) if drifts is None else tuple(drifts)
    indices = list(path_indices)
    paths = [sample_noise_path(master_seed, m, spec.noise.K, spec.time_grid)
             for m in indices]
    results = iterate_bracket(spec, u0, paths * len(drifts),
                              [drift for drift in drifts for _ in indices],
                              tol_fixed, max_outer, mono_tol, newton)
    P = len(indices) * len(drifts)
    return [BracketPair(indices[i % len(indices)], results[i], results[P + i])
            for i in range(P)]
