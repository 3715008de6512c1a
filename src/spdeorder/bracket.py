"""Extremal sub/supersolution brackets and the monotone fixed-point
iteration.

The bracket trajectories solve the auxiliary problems with the Lipschitz
forcing -C_B(1+u) (lower) and +C_B(1+u) (upper).  The candidate map S
sends a trajectory to the solution of the frozen-drift problem with the
drift evaluated along it; iterating S from a bracket produces a monotone
sequence whose limit approximates the minimal or maximal solution.  The
iteration is pathwise: each sweep is deterministic for a fixed noise path
and drift.  The sweeps of all (noise path, drift) pairs and of both sides
run in lock step, one batched solve per sweep that writes the new iterates
in place, and each member's iterates are those of sweeping it alone.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

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

# a sweep reduces its defects in blocks of new states: at most 1/32 of the
# steps and 256 KiB a block, so the reduction's numpy calls are paid once
# per block, not once per step, and its temporaries stay small
_BLOCK_BYTES = 256 * 1024


def extremal_forcing(sides: Union[str, Sequence[str]],
                     C_B: Union[float, Sequence[float]]) -> Forcing:
    """State-dependent Lipschitz forcing -C_B(1+u) / +C_B(1+u): one side and
    one C_B for the whole batch, or one of either per member."""
    sides = np.asarray(sides)
    if not np.isin(sides, (MIN_SIDE, MAX_SIDE)).all():
        raise ValueError(f"side must be '{MIN_SIDE}' or '{MAX_SIDE}'")
    coeff = np.where(sides == MAX_SIDE, 1.0, -1.0) * np.asarray(C_B, dtype=float)
    if coeff.ndim:
        coeff = coeff[:, None]

    def forcing(n, u):
        return coeff * (1.0 + u)

    return forcing


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
    members: Union[slice, np.ndarray] = slice(None),
    store: Optional[Callable[[int, np.ndarray], None]] = None,
    drifts: Optional[Sequence[DriftSpec]] = None,
    start: int = 0,
) -> Union[Trajectory, NewtonLog]:
    """Candidate map: solve the frozen problem with the drift evaluated
    along u_tilde (sampled at the right endpoint of each step, see the
    Forcing contract in the solver module), in one batch over the paths
    `members` of u_tilde (all by default), one noise path each.  drifts
    holds one drift per member (spec.drift for all by default); each
    drift is evaluated on its own members' rows, one eval_b_values call per
    distinct drift, so every member's values are those of its solve alone.
    A store takes the new states step by step instead (see solve_frozen);
    step n reads row n + 1 of u_tilde before state n + 1 reaches the
    store.  The solve steps from row start of u_tilde on (row 0, the
    datum, by default); with start > 0 the caller knows S(u_tilde) to
    share rows 0..start with u_tilde, and the store receives states
    start + 1 to N."""
    source = np.arange(u_tilde.n_paths)[members]
    drifts = (spec.drift,) * len(source) if drifts is None else drifts
    if len(drifts) != len(source):
        raise ValueError("apply_S needs one drift per member")
    # each drift with its batch rows and the rows of u_tilde they read
    groups = [(drift, rows, source[rows]) for drift, rows in _drift_groups(drifts)]

    def forcing(n, u):
        h = np.empty(u.shape)
        for drift, rows, read in groups:
            h[rows] = eval_b_values(drift, u_tilde.values[read, n + 1])
        return h

    return solve_frozen(spec, u_tilde.values[source, start], forcing, noise_paths, newton,
                        store, start)


def _drift_groups(drifts: Sequence[DriftSpec]) -> list:
    """Each distinct drift with the batch rows that carry it, in order of
    first appearance."""
    return [(drift, np.array([row for row, d in enumerate(drifts) if d == drift]))
            for drift in dict.fromkeys(drifts)]


@dataclass(frozen=True)
class BracketResult:
    side: str
    extremal_start: Trajectory
    residual_history: tuple
    monotonicity_violations: tuple
    containment_violations: tuple
    # the step each sweep starts at, N for a sweep taken without stepping;
    # a batch steps from the smallest start among its members
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


class _InPlaceSweep:
    """The store of one sweep: it writes the new states of the members into
    `current`, in place of the iterate the sweep reads, and reduces each
    member's residual and monotonicity defects on the way.  It writes the
    containment defect of each new row into `excess`, and records, for each
    member, the first row where the drift values of the new states differ
    from those of the old ones.

    A sweep from step start keeps rows 0..start of its members, whose
    residual and monotonicity defects are zero.  New states wait in a block
    of steps.  A full block is compared with the rows of `current` it
    replaces, which the sweep's forcing has read by then, and with the
    extremals, and then written over them.  Sums of squares run along the
    contiguous node axis and maxima are exact, so every defect equals the
    one taken over the whole trajectory at once.
    """

    def __init__(self, current: np.ndarray, ext: np.ndarray, index: np.ndarray,
                 excess: np.ndarray, members: np.ndarray, P: int, start: int,
                 drifts: Sequence[DriftSpec]):
        B, rows, n = len(members), current.shape[1], current.shape[2]
        self.current, self.ext, self.excess, self.members = current, ext, excess, members
        # the rows of ext holding each member's lower and upper extremal
        self.lower, self.upper = index[members % P], index[P + members % P]
        # min side expects new >= old pointwise, max side the reverse; the
        # members are in order, so the min-side ones come first
        self.n_min = int(np.count_nonzero(members < P))
        self.groups = _drift_groups(drifts)
        width = max(1, min((rows - 1) // 32, _BLOCK_BYTES // (8 * B * n)))
        # the new states of a block, and the old rows they replace
        self.pair = np.empty((2, B, width, n))
        self.block = self.pair[0]
        self.rows = rows
        self.sq = np.zeros(B)  # worst sum of squares of new - old
        self.mono = np.full(B, -np.inf)
        self.changed = np.full(B, rows)  # rows: no drift value changed
        self.first = start + 1  # the row of current that block[:, 0] replaces

    def __call__(self, n: int, u: np.ndarray) -> None:
        k = n + 1 - self.first
        self.block[:, k] = u
        if k + 1 == self.block.shape[1] or n + 2 == self.rows:
            self._flush(k + 1)

    def _flush(self, width: int) -> None:
        rows = slice(self.first, self.first + width)
        pair = self.pair[:, :, :width]
        new, old = pair
        old[...] = self.current[self.members, rows]
        for drift, batch in self.groups:
            # the members whose first change is not found yet, evaluated in
            # a view from the first to the last of them: no copy
            todo = batch[self.changed[batch] == self.rows]
            if not len(todo):
                continue
            lo, hi = todo[0], todo[-1] + 1
            # bit patterns, not ==: +0.0 against -0.0 changes the forcing too
            bits = eval_b_values(drift, pair[:, lo:hi]).view(np.int64)
            moved = np.any(bits[0] != bits[1], axis=-1)[todo - lo]  # (todo, width)
            self.changed[todo] = np.where(moved.any(axis=1),
                                          self.first + moved.argmax(axis=1), self.rows)
        diff = np.subtract(new, old, out=old)
        np.maximum(self.sq, np.max(np.sum(diff * diff, axis=-1), axis=1), out=self.sq)
        np.negative(diff[:self.n_min], out=diff[:self.n_min])  # in place, exact
        np.maximum(self.mono, np.max(diff, axis=(1, 2)), out=self.mono)
        # worst of lower - new and new - upper on each row
        self.excess[self.members, rows] = np.maximum(
            np.max(self.ext[self.lower, rows] - new, axis=-1),
            np.max(new - self.ext[self.upper, rows], axis=-1))
        self.current[self.members, rows] = new
        self.first += width

    def outcomes(self, dx: float) -> list:
        """(member, (residual, monotonicity, containment), first changed row)
        of each member: the residual sup_t ||new - old||_H, the worst
        defects, never below 0.0, and the first row whose drift values
        changed (the row count when none did)."""
        residuals = np.sqrt(self.sq * dx).tolist()
        excess = self.excess[self.members].max(axis=1).tolist()
        # max keeps the first of equal values, so 0.0 goes first: a -0.0
        # defect is recorded as +0.0
        return [(member, (r, max(0.0, m), max(0.0, e)), changed)
                for member, r, m, e, changed in
                zip(self.members.tolist(), residuals, self.mono.tolist(),
                    excess, self.changed.tolist())]


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
    pairs from the one (n,) datum u0, in lock step: path m carries
    drifts[m] (spec.drift for all by default).

    Member m < P sweeps the min side of path m from its lower extremal,
    member P + m the max side from its upper one.  The extremal forcing
    reads only C_B of the drift, so one build_extremal call solves each
    distinct (noise path, side, C_B) once, and members that share one read
    the same extremal.

    S reads u only through the drift values b(u) along it.  If b(u^k) and
    b(u^{k-1}) agree bit for bit on rows 1..R, sweep k + 1 repeats the
    first R steps of sweep k, so u^{k+1} equals u^k on rows 0..R; R = N
    when no drift value changed.  So each member's sweep starts at its own
    R (sweep 1 at 0), and a member with R = N takes its sweep without
    stepping: its iterate is unchanged, so its residual and monotonicity
    defects are 0.0 and its containment defect is that of its previous
    sweep.  The other members sweep in one apply_S call from the smallest R
    among them, which writes their new iterates in place over the old
    ones, and their containment defects row by row.  A member stops when sup_t ||S(u) - u||_H <=
    tol_fixed, which a sweep without stepping always meets, or after
    max_outer sweeps, and is never swept again; so its iterates and defects
    are bit for bit those of sweeping it alone from step 0 every time.
    Min-side iterates are expected nondecreasing in the sweep index (max
    side mirrored); per-sweep violations and bracket-containment defects
    are logged, never silently accepted.  Returns the 2P results in member
    order; their trajectories are read-only views into the batch's
    extremal and iterate arrays.
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
    extremals = build_extremal(spec, u0, [sides[m] for m in owners],
                               [paths[m % P] for m in owners], newton,
                               [drifts[m % P] for m in owners])
    grid, tg, N = spec.grid, spec.time_grid, spec.time_grid.n_steps
    ext = extremals.values
    # each member's latest iterate, rewritten in place by its sweeps; a
    # stopped member's slot is never written again
    current = ext[index]
    # u_tilde of every sweep: a read-only view of current
    iterates = Trajectory(grid, tg, current[:], copy=False)
    # the containment defect of each row of each member's latest iterate;
    # row 0 is u0 in every iterate and extremal
    excess = np.zeros((len(sides), N + 1))
    # residual, monotonicity and containment defects and start of each sweep
    histories = [([], [], [], []) for _ in sides]
    finals = [None] * len(sides)
    starts = np.zeros(len(sides), dtype=int)  # each member's next start step
    active = np.arange(len(sides))
    for sweep in range(1, max_outer + 1):
        idle = starts[active] == N
        # (member, defects, first changed row, Newton metadata of each step)
        swept = [(m, (0.0, 0.0, histories[m][2][-1]), N + 1, NewtonLog((0,) * N, 0.0))
                 for m in active[idle].tolist()]
        if not idle.all():
            members = active[~idle]
            start = int(starts[members].min())
            member_drifts = [drifts[m % P] for m in members]
            sink = _InPlaceSweep(current, ext, index, excess, members, P, start,
                                 member_drifts)
            log = apply_S(spec, iterates, [paths[m % P] for m in members], newton,
                          members, sink, member_drifts, start)
            log = NewtonLog((0,) * start + log.newton_iters, log.max_newton_residual)
            swept += [(*outcome, log) for outcome in sink.outcomes(grid.dx)]
        for m, defects, changed, log in swept:
            for record, value in zip(histories[m], (*defects, int(starts[m]))):
                record.append(value)
            starts[m] = changed - 1
            if defects[0] <= tol_fixed or sweep == max_outer:
                finals[m] = Trajectory(grid, tg, current[m:m + 1], log.newton_iters,
                                       log.max_newton_residual, copy=False)
        active = active[[finals[m] is None for m in active]]
        if not len(active):
            break
    return [
        BracketResult(
            side=side,
            extremal_start=Trajectory(grid, tg, ext[e:e + 1], extremals.newton_iters,
                                      extremals.max_newton_residual, copy=False),
            residual_history=tuple(residuals),
            monotonicity_violations=tuple(mono),
            containment_violations=tuple(containment),
            sweep_starts=tuple(sweep_starts),
            converged=residuals[-1] <= tol_fixed,
            final=finals[m],
            n_sweeps=len(residuals),
            mono_tol=mono_tol,
        )
        for m, (side, e, (residuals, mono, containment, sweep_starts))
        in enumerate(zip(sides, index.tolist(), histories))
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
    (n,) datum u0, in one lock-step batch (see iterate_bracket): drifts
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
