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
    sides: Union[str, Sequence[str]],
    noise_paths: Union[NoisePath, Sequence[NoisePath], None] = None,
    newton: NewtonParams = NewtonParams(),
    drifts: Optional[Sequence[DriftSpec]] = None,
) -> Trajectory:
    """Solve the auxiliary bracket problems in one batch: one side for every
    path, or one side per noise path.  The forcing reads only C_B of the
    drift: spec.drift's, or that of each member's drift in drifts."""
    C_B = spec.drift.C_B if drifts is None else [drift.C_B for drift in drifts]
    return solve_frozen(spec, extremal_forcing(sides, C_B), noise_paths, newton)


def apply_S(
    spec: ProblemSpec,
    u_tilde: Trajectory,
    noise_paths: Union[NoisePath, Sequence[NoisePath], None] = None,
    newton: NewtonParams = NewtonParams(),
    members: Union[slice, np.ndarray] = slice(None),
    store: Optional[Callable[[int, np.ndarray], None]] = None,
    drifts: Optional[Sequence[DriftSpec]] = None,
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
    store."""
    source = np.arange(u_tilde.n_paths)[members]
    drifts = (spec.drift,) * len(source) if drifts is None else drifts
    if len(drifts) != len(source):
        raise ValueError("apply_S needs one drift per member")
    groups = [(drift, [row for row, d in enumerate(drifts) if d == drift])
              for drift in dict.fromkeys(drifts)]

    def forcing(n, u):
        if len(groups) == 1:  # the whole batch in one call
            return eval_b_values(groups[0][0], u_tilde.values[members, n + 1])
        h = np.empty(u.shape)
        for drift, rows in groups:
            h[rows] = eval_b_values(drift, u_tilde.values[source[rows], n + 1])
        return h

    return solve_frozen(spec, forcing, noise_paths, newton, store)


@dataclass(frozen=True)
class BracketResult:
    side: str
    extremal_start: Trajectory
    residual_history: tuple
    monotonicity_violations: tuple
    containment_violations: tuple
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
    member's residual, monotonicity and containment defects on the way.

    New states wait in a block of steps.  A full block is compared with the
    rows of `current` it replaces, which the sweep's forcing has read by
    then, and with the extremals, and then written over them.  Step 0 is
    spec.u0 in every iterate and extremal, so its defects are zero and it
    is skipped.  Sums of squares run along the contiguous node axis and
    maxima are exact, so every defect equals the one taken over the whole
    trajectory at once.
    """

    def __init__(self, current: np.ndarray, ext: np.ndarray, members: np.ndarray,
                 P: int):
        B, rows, n = len(members), current.shape[1], current.shape[2]
        self.current, self.ext, self.members = current, ext, members
        self.lower, self.upper = members % P, P + members % P
        # min side expects new >= old pointwise, max side the reverse
        self.sign = np.where(members < P, -1.0, 1.0)[:, None, None]
        width = max(1, min((rows - 1) // 32, _BLOCK_BYTES // (8 * B * n)))
        self.block = np.empty((B, width, n))
        self.first = 1  # the row of current that block[:, 0] replaces
        self.rows = rows
        self.sq = np.zeros(B)  # worst sum of squares of new - old
        self.mono = np.full(B, -np.inf)
        self.excess = np.full(B, -np.inf)  # worst of lower - new and new - upper

    def __call__(self, n: int, u: np.ndarray) -> None:
        k = n + 1 - self.first
        self.block[:, k] = u
        if k + 1 == self.block.shape[1] or n + 2 == self.rows:
            self._flush(k + 1)

    def _flush(self, width: int) -> None:
        rows = slice(self.first, self.first + width)
        new = self.block[:, :width]
        diff = new - self.current[self.members, rows]
        np.maximum(self.sq, np.max(np.sum(diff * diff, axis=-1), axis=1), out=self.sq)
        np.maximum(self.mono, np.max(self.sign * diff, axis=(1, 2)), out=self.mono)
        np.maximum(self.excess, np.max(self.ext[self.lower, rows] - new, axis=(1, 2)),
                   out=self.excess)
        np.maximum(self.excess, np.max(new - self.ext[self.upper, rows], axis=(1, 2)),
                   out=self.excess)
        self.current[self.members, rows] = new
        self.first += width

    def defects(self, dx: float) -> list:
        """(residual, monotonicity, containment) of each member: the residual
        sup_t ||new - old||_H, and the worst defects, never below 0.0."""
        residuals = np.sqrt(self.sq * dx).tolist()
        # max keeps the first of equal values, so 0.0 goes first: a -0.0
        # defect is recorded as +0.0
        return [(r, max(0.0, m), max(0.0, e)) for r, m, e in
                zip(residuals, self.mono.tolist(), self.excess.tolist())]


def iterate_bracket(
    spec: ProblemSpec,
    noise_paths: Sequence[NoisePath],
    drifts: Optional[Sequence[DriftSpec]] = None,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> list[BracketResult]:
    """Monotone sweeps u <- S(u) of both sides of P (noise path, drift)
    pairs, in lock step: path m carries drifts[m] (spec.drift for all by
    default).

    One build_extremal call solves the 2P extremals: the P lower ones, then
    the P upper ones, each under the C_B of its path's drift.  Member m < P sweeps the min side of path m from its
    lower extremal, member P + m the max side from its upper one.  Each
    sweep is one apply_S call over the members that have not stopped,
    which writes their new iterates in place over the old ones.  A member
    stops when sup_t ||S(u) - u||_H <= tol_fixed or after max_outer sweeps
    and is never swept again, so its iterates are bit for bit those of
    sweeping it alone.  Min-side iterates are expected nondecreasing in the
    sweep index (max side mirrored); per-sweep violations and
    bracket-containment defects are logged, never silently accepted.
    Returns the 2P results in member order; their trajectories are
    read-only views into the batch's extremal and iterate arrays.
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
    extremals = build_extremal(spec, sides, paths + paths, newton, drifts + drifts)
    grid, tg = spec.grid, spec.time_grid
    ext = extremals.values
    # each member's latest iterate, rewritten in place by its sweeps; a
    # stopped member's slot is never written again
    current = ext.copy()
    # u_tilde of every sweep: a read-only view of current
    iterates = Trajectory(grid, tg, current[:], copy=False)
    histories = [([], [], []) for _ in sides]
    finals = [None] * len(sides)
    active = np.arange(len(sides))
    for sweep in range(1, max_outer + 1):
        sink = _InPlaceSweep(current, ext, active, P)
        log = apply_S(spec, iterates, [paths[m % P] for m in active], newton,
                      active, sink, [drifts[m % P] for m in active])
        still = []
        for m, defects in zip(active.tolist(), sink.defects(grid.dx)):
            for record, value in zip(histories[m], defects):
                record.append(value)
            if defects[0] <= tol_fixed or sweep == max_outer:
                finals[m] = Trajectory(grid, tg, current[m:m + 1], log.newton_iters,
                                       log.max_newton_residual, copy=False)
            else:
                still.append(m)
        active = np.array(still, dtype=int)
        if not still:
            break
    return [
        BracketResult(
            side=side,
            extremal_start=Trajectory(grid, tg, ext[m:m + 1], extremals.newton_iters,
                                      extremals.max_newton_residual, copy=False),
            residual_history=tuple(residuals),
            monotonicity_violations=tuple(mono),
            containment_violations=tuple(containment),
            converged=residuals[-1] <= tol_fixed,
            final=finals[m],
            n_sweeps=len(residuals),
            mono_tol=mono_tol,
        )
        for m, (side, (residuals, mono, containment)) in enumerate(zip(sides, histories))
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
    master_seed: int,
    path_indices: Sequence[int] = (0,),
    drifts: Optional[Sequence[DriftSpec]] = None,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> list[BracketPair]:
    """Both one-sided iterations of every (drift, noise path) pair, in one
    lock-step batch (see iterate_bracket): drifts defaults to
    (spec.drift,), and path index m is noise path m of master_seed.

    Returns one pair per (drift, path), drift-major: pair
    d * len(path_indices) + i is drifts[d] on path path_indices[i].  Each
    pair's results are bit for bit those of the call with that one drift
    and that one path.
    """
    drifts = (spec.drift,) if drifts is None else tuple(drifts)
    indices = list(path_indices)
    paths = [sample_noise_path(master_seed, m, spec.noise.K, spec.time_grid)
             for m in indices]
    results = iterate_bracket(spec, paths * len(drifts),
                              [drift for drift in drifts for _ in indices],
                              tol_fixed, max_outer, mono_tol, newton)
    P = len(indices) * len(drifts)
    return [BracketPair(indices[i % len(indices)], results[i], results[P + i])
            for i in range(P)]
