"""Extremal sub/supersolution brackets and the monotone fixed-point
iteration.

The bracket trajectories solve the auxiliary problems with the forcing
inf b (lower) and sup b (upper), the ends of the drift's range.  By the
comparison principle of the frozen-drift problem alone, a step under
inf b ends below the step from the same state under b(v) for any v, and a
step under sup b above it, so the lower one is a subsolution and the upper
one a supersolution of every sweep.  Where an end is infinite (the max side
of sqrt_plus, the one unbounded built-in drift) the forcing is the growth
bound +C_B(1+|u|) of its own state, or -C_B(1+|u|) on a min side, taken
explicitly: where b touches that bound, the sweeps, which sample the drift
at the right end of each step, can pass it by O(dt).  The candidate map S
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

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .noise import NoisePath, sample_noise_path
from .operators import DRIFT_KINDS, DriftSpec, eval_b_values
from .solver import (
    Forcing,
    NewtonLog,
    NewtonParams,
    ProblemSpec,
    Trajectory,
    Workspace,
    solve_frozen,
    sup_h_distance,
)

MIN_SIDE = "min"
MAX_SIDE = "max"

# the length of the ring of each extremal's rows a study keeps while its
# sweeps can still read them (see _Wave)
WINDOW = 32


def forcing_parameter(side: str, drift: DriftSpec) -> tuple[float, float]:
    """What side's extremal forcing reads of drift: (end, C_B), the end of
    the drift's range on that side, inf b on the min side and sup b on the
    max side, and C_B where that end is infinite, else 0.0."""
    end = DRIFT_KINDS[drift.kind].range(drift)[side == MAX_SIDE]
    return end, 0.0 if math.isfinite(end) else drift.C_B


def extremal_forcing(sides: Union[str, Sequence[str]],
                     drifts: Union[DriftSpec, Sequence[DriftSpec]]) -> Forcing:
    """The bracket forcing of each member: the constant inf b on the min
    side and sup b on the max side, or -C_B(1+|u|) / +C_B(1+|u|) of its
    own state where that end of the drift's range is infinite; one side
    and one drift for the whole batch, or one of either per member."""
    sides = np.asarray(sides)
    if not np.isin(sides, (MIN_SIDE, MAX_SIDE)).all():
        raise ValueError(f"side must be '{MIN_SIDE}' or '{MAX_SIDE}'")
    end, C_B = np.vectorize(forcing_parameter, otypes=(float, float))(
        sides, np.asarray(drifts, dtype=object))
    if end.ndim:
        end, C_B = end[:, None], C_B[:, None]
    growth, coeff = np.isinf(end), np.copysign(C_B, end)

    def forcing(n, u):
        return np.where(growth, coeff * (1.0 + np.abs(u)), end)

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
    for every path, or one side per noise path.  The forcing is
    extremal_forcing's under spec.drift, or under each member's drift in
    drifts: it reads only the drift's range, and C_B where that is
    unbounded on the member's side."""
    drifts = spec.drift if drifts is None else list(drifts)
    return solve_frozen(spec, u0, extremal_forcing(sides, drifts), noise_paths, newton)


def apply_S(
    spec: ProblemSpec,
    u_tilde: Union[Trajectory, np.ndarray],
    noise_paths: Union[NoisePath, Sequence[NoisePath], None] = None,
    newton: NewtonParams = NewtonParams(),
    wave: Optional[_Wave] = None,
) -> Union[Trajectory, NewtonLog]:
    """Candidate map: solve the frozen problem with spec.drift evaluated
    along u_tilde (sampled at the right endpoint of each step, see the
    Forcing contract in the solver module), in one batch over the paths of
    u_tilde, one noise path each, from row 0 of u_tilde.

    A wave, a study, hands the march its passes and its own forcing (S's
    under each lane's drift on the sweep lanes, the extremal forcing on
    the extremal lanes) and takes the new states in place, and the result
    is the NewtonLog of the passes (see _Wave): u_tilde is then the (n,)
    datum every lane of the wave starts from."""
    if wave is not None:
        return solve_frozen(spec, u_tilde, wave.forcing, noise_paths, newton, wave.store,
                            wave.passes())
    u0 = u_tilde.values[:, 0]

    def forcing(n, u):
        members, steps = n  # every path: members is slice(None)
        return eval_b_values(spec.drift, u_tilde.values[members, steps + 1])

    return solve_frozen(spec, u0, forcing, noise_paths, newton)


def _runs(kinds: Sequence[DriftSpec], group: np.ndarray) -> list:
    """(drift, rows) of each run of rows with one drift: rows is a slice,
    and the runs cover every row in order."""
    cuts = [0, *(np.flatnonzero(group[1:] != group[:-1]) + 1).tolist(), len(group)]
    return [(kinds[group[a]], slice(a, b)) for a, b in zip(cuts, cuts[1:]) if a < b]


def _drift_values(runs: list, values: np.ndarray) -> np.ndarray:
    """b(values) with each run of rows under its own drift: one
    eval_b_values call per run, pointwise, so each row keeps the values of
    its own drift."""
    if len(runs) == 1:
        return eval_b_values(runs[0][0], values)
    h = np.empty_like(values)
    for drift, rows in runs:
        h[rows] = eval_b_values(drift, values[rows])
    return h


def _differ(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """The rows where a and b differ in the bit pattern of some value."""
    return (a.view(np.int64) != b.view(np.int64)).any(axis=-1)


@dataclass(frozen=True)
class BracketResult:
    """One side of one (noise path, drift) pair: its final iterate and the
    defects of each sweep.  The final is a read-only view into the study's
    array of its members' iterates, and its rows were made in many passes,
    so it carries no per-step Newton metadata.  The extremal is not kept:
    the study holds only the rows of it that its sweeps can still read."""

    side: str
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
    """A bracket study: its members' array, the ring of its extremals'
    rows, its lanes, and the schedule, forcing and store of the one march
    that runs it.  Level k of member m, the sweep that makes
    u^k = S(u^{k-1}), is a lane; level 0 is the member's extremal u^0,
    and each distinct extremal is one lane, read by every member that
    shares it.  Each pass steps every lane that can step by one row, in
    one batch: the extremals step in every pass, from row 0 until they
    hold row N, with extremal_forcing's forcing: inf b / sup b of their
    drift's range, or -C_B(1+|u_n|) / +C_B(1+|u_n|) of their own state
    where that end is infinite.

    current holds each member's latest iterate in row m.  All levels of
    a member share it, level 0 included: level k holds rows 0..have[m, k]
    there, and the later rows still hold lower levels.  Each new extremal
    row is written into the row of current of every member that reads it
    and steps lanes of its own (not a twin that tracks its owner), so an
    extremal lane steps from its slot owner's row and sweep 1 reads its
    forcing there like every other level.  A lane at row r steps once
    level k - 1 holds row r + 1.  Its forcing reads that row of its own
    row of current, which the lane then writes over, and its state is
    its own row r.  Level k + 1 writes row r only in a pass that steps
    lane k too, and a pass reads before it writes: a level that has
    stepped steps in every pass until it completes, since its
    predecessor, which has stepped too, stays at least a row ahead of
    it.  No sweep lane reads an extremal row made in its own pass, so one
    scatter stores the new rows of every lane.

    The extremals' rows are read after that only by the containment
    defects of the sweeps, at the row each sweep lane makes: ext is a
    ring of R = min(WINDOW, N + 1) rows of the E slots, row r of slot e at
    ext[r % R, e], flat row (r E + e) mod R E of ext_rows, and the
    extremals' new row r goes over row r - R.  When it would go over a
    row that a started, unfinished level of a member that steps lanes of
    its own still reads (a level that waits included), the ring falls
    back before the pass, once, to all N + 1 rows of each slot, copying
    the R rows it holds; the same flat rows index it then without
    wrapping.

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

    The passes follow a plan, built from have and defects only at an
    event: a level starts; the residual so far of a level whose successor
    waits first exceeds tol_fixed; a level completes; the extremals hold
    row 1, so level 1 may step, or row N, and they finish.  Between
    events no lane starts or stops stepping, so a pass moves every lane
    of the plan down one row.  The plan holds the sweep
    lanes, each drift's in one run, then the extremal lanes; one int
    array of each lane's step, its rows of current (state and new row)
    and the rows of current the copies of the extremals' new rows go to,
    which a pass advances by one; each sweep lane's rows of ext_rows (its
    lower and upper extremal at its new row), which a pass advances by
    E; each sweep lane's sign, -1.0 on the min side; the lanes whose
    successor has not started, whose new rows the store checks for a
    changed drift value; and each sweep lane's defects so far.  have and defects are synced
    from the plan at each event, before it is handled.

    Members that share an extremal slot march as one while they can.  The
    first is the slot's owner, each other a twin.  S reads its argument
    only through the drift values, so a twin's levels are its owner's bit
    for bit while its drift gives the owner's bits on every row the owner
    writes: its sweep rows and the extremal rows it reads.  Such a twin
    steps no lane (source holds its owner).  While one tracks, the store
    evaluates every lane's own drift and each twin drift on every lane's
    new rows, one eval_b_values call per distinct drift; the former also
    serves the todo lanes' check.  At the first row whose bits differ on
    a lane of the twin's owner (lane_member: an extremal lane's is its
    slot's owner) an event splits the twin: it takes a copy of its
    owner's row of current and excess, per-level arrays and histories,
    runs the pass's level-start check on its drift's values and marches
    from there as a member of its own.  A twin that never splits takes
    its owner's final and histories.  A study without twins makes none of
    these checks.

    Each lane's step gets the state, forcing and noise weight of its
    sweep alone, and each row's defects are reduced on their own: sums of
    squares run along the node axis and maxima are exact, so every defect
    equals the one taken over the whole trajectory at once.  The march
    keeps no per-lane Newton metadata, so the finals carry none.
    """

    def __init__(self, spec: ProblemSpec, u0: np.ndarray, paths: Sequence[NoisePath],
                 drifts: Sequence[DriftSpec], max_outer: int, tol_fixed: float,
                 current: np.ndarray):
        P = len(paths)
        M, N, n = 2 * P, spec.time_grid.n_steps, spec.grid.n_interior
        # member m < P sweeps the min side of paths[m] under drifts[m],
        # member P + m the max side
        self.sides = (MIN_SIDE,) * P + (MAX_SIDE,) * P
        # the extremal forcing reads only its forcing parameter of the
        # drift: one extremal per distinct (noise path, side, parameter),
        # the parameter's bits, so that -0.0 and +0.0 do not share
        keys = [(id(paths[m % P]), side,
                 np.array(forcing_parameter(side, drifts[m % P])).tobytes())
                for m, side in enumerate(self.sides)]
        slots = {}
        for key in keys:
            slots.setdefault(key, len(slots))
        self.index = index = np.array([slots[key] for key in keys])  # each member's extremal
        self.owners = np.array([keys.index(key) for key in slots])  # the first member of each
        # the member whose lanes hold each member's iterate: a twin's owner
        # while it tracks its owner, else the member itself
        self.source = self.owners[index]
        # each member's latest iterate, rewritten in place by its levels
        self.current = current
        current[:, 0] = u0
        self.current_rows = current.reshape(-1, n)  # row m (N + 1) + r is row r of current[m]
        # the ring of the extremals' rows, R = min(WINDOW, N + 1) of them:
        # row r of slot e at ext[r % R, e] from row 1 on, since no
        # containment defect reads row 0, u0
        self.ext = np.zeros((min(WINDOW, N + 1), len(self.owners), n))
        self.ext_rows = self.ext.reshape(-1, n)
        # the scratch of the forcing and the store: the rows the sweep
        # lanes read, and the store's defects
        self.work = Workspace(n)
        # the lanes: each member, then each extremal, whose member is the
        # first member that reads it, whose noise path and drift it takes
        self.extremals = np.arange(M, M + len(self.owners))  # the extremals' lanes
        self.member = np.concatenate((np.arange(M), self.owners))
        self.paths = [paths[m % P] for m in self.member]
        self.drifts = [drifts[m % P] for m in self.member]
        # the distinct drifts, in order of first appearance, and the index
        # among them of each lane's drift
        self.kinds = list(dict.fromkeys(self.drifts))
        self.group = np.array([self.kinds.index(drift) for drift in self.drifts])
        self.ext_forcing = extremal_forcing([self.sides[m] for m in self.owners],
                                            [self.drifts[m] for m in self.owners])
        # the containment defect of each row of each member's latest
        # iterate, at its rows of current_rows; row 0 is u0 in every
        # iterate and extremal
        self.excess = np.zeros((M, N + 1))
        self.excess_rows = self.excess.reshape(-1)
        self.N, self.P, self.max_outer = N, P, max_outer
        self.tol, self.dx = tol_fixed, spec.grid.dx
        # the slots of each member's lower and upper extremal
        members = np.arange(M) % P
        self.bounds = np.stack((index[members], index[P + members]), axis=1)
        # the members in lane order: each drift's together, min side first
        self.members = np.argsort(self.group[:M], kind="stable")
        # the per-level arrays below have a column for each level started
        # and the next; they grow as levels start, not with max_outer.
        # The last row each level holds; N + 1 for a level not started or
        # dropped.  Level 0 is the extremals, which all hold the same rows
        self.have = np.full((M, 3), N + 1)
        self.have[:, :2] = 0
        self.start = np.zeros((M, 3), dtype=int)
        # each level's worst sum of squares of new - old, monotonicity and
        # containment defects
        self.defects = np.zeros((3, M, 3))
        self.defects[1, :, 1] = -np.inf
        # residual, monotonicity and containment defects and start of each sweep
        self.histories = [[] for _ in range(M)]
        self._plan()

    def _fit(self) -> None:
        """Before a pass: count the passes whose new extremal rows go over
        no row a sweep will still read (room), falling back first to all
        N + 1 rows when the next one would."""
        L, N = len(self.k), self.N
        if L == len(self.lanes):  # the extremals hold row N: they write no more
            self.room = -1
            return
        s, R = int(self.steps[L]), len(self.ext)  # the extremals' state row
        # the lowest row of ext the started, unfinished levels of the
        # members that step lanes of their own read next: the plan's lanes
        # are at their steps, the levels that wait at their rows of have
        have = self.have.copy()
        have[self.m, self.k] = self.steps[:L]
        held = have[self.source == np.arange(len(self.source)), 1:]
        low = min(int(held[held < N].min(initial=N)), s) + 1
        if s + 1 - R >= low:  # row s + 1 would go over row s + 1 - R
            full = np.zeros((N + 1,) + self.ext.shape[1:])
            rows = np.arange(s + 1 - R, s + 1)  # the rows the ring holds
            full[rows] = self.ext.take(rows, 0, mode="wrap")
            self.ext, R = full, N + 1
            self.ext_rows = full.reshape(-1, full.shape[2])
        self.room = low + R - 1 - s

    def _plan(self) -> None:
        """Build the pass plan from have and defects: lane (m, k) steps
        while have[m, k] <= limit[m, k - 1], and the extremals while they
        hold less than row N."""
        N, members, have = self.N, self.members, self.have
        # the last row level k + 1 may step from: have[m, k] - 1, or -1
        # while level k may be final; the extremals always are
        limit = np.where(np.sqrt(self.defects[0] * self.dx) > self.tol, have - 1, -1)
        limit[:, 0] = have[:, 0] - 1
        own = self.source == np.arange(len(self.source))
        order = members[own[members]]  # no tracking twin
        i, k = np.nonzero(have[order, 1:] <= limit[order, :-1])
        self.m, self.k = m, k = order[i], k + 1
        steps, L = have[m, k], len(m)
        # each sweep lane's rows of ext_rows: its lower and upper extremal
        # at its new row
        self.bound_rows = self.bounds[m].T + (steps + 1) * len(self.owners)
        self.lower, self.upper = self.bound_rows
        # passes until an event comes on schedule: the first lane completes
        lanes, rows, due = m, m, [N - steps.max()] if L else []
        # the members other than its owner whose rows of current take each
        # slot's new rows: the twins that split
        split = np.empty(0, dtype=np.intp)
        if (s := have[0, 0]) < N:  # the extremals step too, in their owners' rows
            lanes = np.concatenate((m, self.extremals))
            rows = np.concatenate((m, self.owners))
            steps = np.concatenate((steps, np.full(len(self.owners), s)))
            due.append(N - s if s else 1)  # they hold row N, or row 1 first
            split = np.flatnonzero(own & (self.owners[self.index] != np.arange(len(own))))
        self.lanes, self.due = lanes, min(due, default=0)
        self.copy_slots = self.index[split]
        # advanced by one each pass: each lane's step and its rows of
        # current_rows holding its state and taking its new state (of
        # excess_rows too for a sweep lane), and the rows of current_rows
        # the copies of the extremals' new rows go to
        state = rows * (N + 1) + steps
        self.pos = np.concatenate((steps, state, state + 1, split * (N + 1) + s + 1))
        (self.steps, self.state_rows, self.new_rows,
         self.copy_rows) = np.split(self.pos, np.cumsum([len(steps)] * 3))
        self._fit()
        # the lanes follow order: one run per drift.  new - old times sign
        # is the monotonicity defect: the min side expects new >= old
        # pointwise, the max side the reverse, and x * -1.0 is -x bit for bit
        self.runs = _runs(self.kinds, self.group[m])
        self.sign = np.where(m < self.P, -1.0, 1.0)[:, None]
        after = have[m, k + 1]  # the row the next level holds, or N + 1
        # the lanes whose next level may still start where a drift value
        # changes, and those whose next level has started and waits
        self.todo = np.flatnonzero((after == N + 1) & (k < self.max_outer))
        self.watch = np.flatnonzero((after <= N) & (after > limit[m, k]))
        # the lanes whose own drift the store evaluates on their new rows:
        # the todo lanes, or every lane while a twin tracks its owner.
        # Then each twin drift with its twins, and each lane's member, an
        # extremal lane's being its slot's owner: a twin splits where its
        # drift and its owner's differ on a lane of its owner
        twins = np.flatnonzero(~own)
        self.check, self.todo_at = self.todo, slice(None)
        if len(twins):
            self.check, self.todo_at = slice(None), self.todo
        self.twin_drifts = [(self.kinds[g], twins[self.group[twins] == g])
                            for g in dict.fromkeys(self.group[twins].tolist())]
        self.lane_member = self.member[lanes]
        self.check_runs = _runs(self.kinds, self.group[lanes[self.check]])
        self.defects_so_far = self.defects[:, m, k]
        self.found = np.empty((3, L))

    def passes(self):
        """The passes of the march: ((lanes, steps), states) of every lane
        of the plan, the extremals last."""
        while len(self.lanes):
            yield (self.lanes, self.steps), self.current_rows.take(self.state_rows, 0,
                                                                   mode="clip")

    def forcing(self, n: tuple, u: np.ndarray) -> np.ndarray:
        """The forcing of a pass: S's on the sweep lanes, the drift of
        each lane at the row it reads, and the extremal forcing on the
        extremal lanes after them.  The rows the sweep lanes read and the
        values it hands out are kept for store; the rows go to the wave's
        own workspace."""
        L = len(self.k)
        self.old = old = self.work.unpadded(L, "old")
        # the row each sweep lane makes: its predecessor's until the store.
        # mode "clip": the rows are in range, and "raise" would gather them
        # into a new buffer first
        self.current_rows.take(self.new_rows[:L], 0, old, mode="clip")
        h = _drift_values(self.runs, old)
        if L < len(u):
            h = np.concatenate((h, self.ext_forcing(n, u[L:])))
        self.h = h
        return h

    def store(self, n: tuple, v: np.ndarray) -> None:
        L, h = len(self.k), self.h
        full, v = v, v[:L]  # every lane's new row, and the sweep lanes'
        self.due -= 1
        started, split = (), []
        if len(self.todo) or self.twin_drifts:
            # bit patterns, not ==: +0.0 against -0.0 changes the forcing
            # too.  Rows differ in few passes, so all rows are compared at
            # once first, as bytes
            new = _drift_values(self.check_runs, full[self.check])
            now, read = new[self.todo_at], h[self.todo]  # h holds the b(old) each lane read
            if now.tobytes() != read.tobytes():
                started = self.todo[_differ(now, read)]
            # a twin splits at the first row of its owner's where their
            # drifts differ; its level-start check reads its drift's values
            for drift, twins in self.twin_drifts:
                theirs = eval_b_values(drift, full)
                if theirs.tobytes() != new.tobytes():
                    owners = self.lane_member[_differ(theirs, new)]
                    split += [(t, theirs) for t in twins[np.isin(self.source[twins], owners)]]
        # the worst sum of squares of new - old, monotonicity and
        # containment defect of each new row
        old, scratch, found = self.old, self.work.unpadded(L, "scratch"), self.found
        diff = np.subtract(v, old, out=old)
        np.multiply(diff, diff, out=scratch).sum(axis=-1, out=found[0])
        np.multiply(diff, self.sign, out=diff).max(axis=-1, out=found[1])
        # worst of lower - new and new - upper on each row
        self.ext_rows.take(self.lower, 0, scratch, mode="wrap")
        below = np.subtract(scratch, v, out=scratch).max(axis=-1)
        self.ext_rows.take(self.upper, 0, scratch, mode="wrap")
        np.maximum(below, np.subtract(v, scratch, out=scratch).max(axis=-1), out=found[2])
        self.excess_rows[self.new_rows[:L]] = found[2]
        defects = np.maximum(self.defects_so_far, found, out=self.defects_so_far)
        self.current_rows[self.new_rows] = full
        if L < len(full):  # the extremals stepped: their row for the bounds
            self.ext[(self.steps[L] + 1) % len(self.ext)] = full[L:]
            if len(self.copy_rows):
                self.current_rows[self.copy_rows] = full[L + self.copy_slots]
        # an event: one on schedule, a level that starts, or a residual so
        # far above tol_fixed that lets a waiting level step
        if (not self.due or len(started) or split or len(self.watch)
                and (np.sqrt(defects[0, self.watch] * self.dx) > self.tol).any()):
            self._event(started, split)
        else:
            self.pos += 1
            self.bound_rows += len(self.owners)
            self.room -= 1
            if not self.room:
                self._fit()

    def _event(self, started, split: list) -> None:
        """Sync have and defects from the plan after a pass, split the
        twins it found (each with its drift's values on the pass's new
        rows), start and complete the levels it found, and rebuild the
        plan."""
        m, k, L = self.m, self.k, len(self.k)
        steps = self.steps[:L]  # the step each sweep lane took
        self.have[m, k] = steps + 1
        self.defects[:, m, k] = self.defects_so_far
        if L < len(self.lanes):  # the extremals stepped too
            self.have[:, 0] = self.steps[L] + 1
        starts = [(m[i], k[i] + 1, steps[i]) for i in started]
        done = np.flatnonzero(steps == self.N - 1)
        completes = [(m[i], k[i]) for i in done]
        for t, theirs in split:
            o = self.source[t]
            self._clone(o, t)
            # the level-start check of the owner's new rows under t's drift
            todo = self.todo[m[self.todo] == o]
            changed = _differ(theirs[todo], self.h[todo])
            starts += [(t, k[i] + 1, steps[i]) for i in todo[changed]]
            completes += [(t, k[i]) for i in done if m[i] == o]
        for args in starts:
            self._start(*args)
        for args in completes:
            self._complete(*args)
        self._plan()

    def _clone(self, o: int, t: int) -> None:
        """Make twin t a member of its own, a copy of its owner o: its
        iterate and containment rows, per-level arrays and histories."""
        self.current[t], self.excess[t] = self.current[o], self.excess[o]
        self.have[t], self.start[t] = self.have[o], self.start[o]
        self.defects[:, t] = self.defects[:, o]
        self.histories[t] = list(self.histories[o])
        self.source[t] = t

    def _start(self, m: int, k: int, R: int) -> None:
        if k + 2 > self.have.shape[1]:  # double the level axis
            for name, fill in (("have", self.N + 1), ("start", 0), ("defects", 0.0)):
                levels = getattr(self, name)
                setattr(self, name, np.concatenate(
                    (levels, np.full(levels.shape, fill, levels.dtype)), axis=-1))
        self.have[m, k] = self.start[m, k] = R
        self.defects[:, m, k] = (0.0, -np.inf, self.excess[m, :R + 1].max())

    def _complete(self, m: int, k: int) -> None:
        sq, mono, containment = self.defects[:, m, k].tolist()
        residual = float(np.sqrt(sq * self.dx))
        # max keeps the first of equal values, so 0.0 goes first: a -0.0
        # defect is recorded as +0.0
        containment = max(0.0, containment)
        history = self.histories[m]
        history.append((residual, max(0.0, mono), containment, int(self.start[m, k])))
        if residual <= self.tol or k == self.max_outer:
            self.have[m, k + 1:] = self.N + 1
        elif self.have[m, k + 1] == self.N + 1:
            # no drift value changed: sweep k + 1 repeats u^k without stepping
            history.append((0.0, 0.0, containment, self.N))


def iterate_bracket(
    spec: ProblemSpec,
    u0: np.ndarray,
    noise_paths: Sequence[NoisePath],
    drifts: Optional[Sequence[DriftSpec]] = None,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
    out: Optional[np.ndarray] = None,
) -> list[BracketResult]:
    """Monotone sweeps u <- S(u) of both sides of P (noise path, drift)
    pairs from the one (n,) datum u0: path m carries drifts[m]
    (spec.drift for all by default).

    Member m < P sweeps the min side of path m from its lower extremal,
    member P + m the max side from its upper one.  The extremal forcing
    reads only the forcing parameter of the drift (forcing_parameter: the
    end of its range on that side, and C_B where that end is infinite), so
    each distinct (noise path, side, forcing parameter) extremal is solved
    once, and members that share one read it; the two jump sides of a
    Heaviside drift share a range, so they share their extremals.  The
    first such member owns it; each other member, a twin, steps no lane
    while its drift gives the owner's bits on every row the owner writes,
    and splits off as a copy of its owner at the first row that differs
    (see _Wave).  So a drift whose iterates never meet the points where it
    differs from the owner's, such as the other jump side of a Heaviside
    drift, costs a few drift evaluations per pass and no step.

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
    first failing pass.

    The study's state is out, the zero C-contiguous float64
    (2P, N + 1, n) array of its members' iterates (a new one by default),
    and a ring of WINDOW rows of each distinct extremal, all N + 1 of them
    only where a sweep that waits keeps older rows in use (see _Wave).
    Returns the 2P results in member order; their finals are read-only
    views into out, and carry no Newton metadata, since many passes
    solved their rows.
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
    grid, tg = spec.grid, spec.time_grid
    if np.shape(u0) != (grid.n_interior,):
        raise ValueError(f"initial datum of shape {np.shape(u0)}, "
                         f"expected ({grid.n_interior},)")
    shape = (2 * P, tg.n_steps + 1, grid.n_interior)
    if out is None:
        out = np.zeros(shape)
    elif (out.shape != shape or out.dtype != np.float64
          or not out.flags.c_contiguous):  # the march writes through its flat rows
        raise ValueError(f"members' array of shape {out.shape} and dtype {out.dtype}, "
                         f"expected a C-contiguous float64 array of shape {shape}")
    wave = _Wave(spec, u0, paths, drifts, max_outer, tol_fixed, out)
    apply_S(spec, u0, wave.paths, newton, wave)
    return [
        BracketResult(
            side=side,
            residual_history=residuals,
            monotonicity_violations=mono,
            containment_violations=containment,
            sweep_starts=sweep_starts,
            converged=residuals[-1] <= tol_fixed,
            final=Trajectory(grid, tg, out[m:m + 1]),
            n_sweeps=len(residuals),
            mono_tol=mono_tol,
        )
        for side, m, (residuals, mono, containment, sweep_starts)
        in zip(wave.sides, wave.source.tolist(),
               (zip(*wave.histories[m]) for m in wave.source))
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
    # the members' iterates first: a study too large to hold fails here,
    # with numpy's message naming the array's size and shape, before any
    # path is listed or sampled
    P = len(path_indices) * len(drifts)
    out = np.zeros((2 * P, spec.time_grid.n_steps + 1, spec.grid.n_interior))
    indices = list(path_indices)
    paths = [sample_noise_path(master_seed, m, spec.noise.K, spec.time_grid)
             for m in indices]
    results = iterate_bracket(spec, u0, paths * len(drifts),
                              [drift for drift in drifts for _ in indices],
                              tol_fixed, max_outer, mono_tol, newton, out)
    return [BracketPair(indices[i % len(indices)], results[i], results[P + i])
            for i in range(P)]
