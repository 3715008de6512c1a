"""Drift-implicit, reaction/noise-explicit Euler-Maruyama solver for the
frozen-drift problem: the monotone spatial operator is treated implicitly
(Newton with tridiagonal linearizations), the known forcing, reaction and
multiplicative noise explicitly at the left endpoint of each step.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
from scipy.linalg.lapack import dpttrf, dpttrs, dptsv

from .core import Grid, ODE, TimeGrid, h_norm_values
from .noise import NoisePath
from .operators import (
    DriftSpec,
    NoiseSpec,
    ReactionSpec,
    SpatialOpSpec,
    apply_A_values,
    eval_f_values,
    interface_gradients,
    jacobian_bands,
    noise_term_values,
    noise_weights,
)

# per-step noise multiplier std above which discrete order preservation
# is no longer negligible-probability safe
_NOISE_STD_GUARD = 0.2


class NewtonDivergenceError(RuntimeError):
    """Newton failed to reach the residual tolerance within max_iter, or a
    step produced a non-finite state."""

    def __init__(self, message: str, step_index: Optional[int] = None):
        super().__init__(message)
        self.step_index = step_index


@dataclass(frozen=True)
class NewtonParams:
    tol: float = 1e-10
    max_iter: int = 50


@dataclass(frozen=True)
class NewtonReport:
    iterations: int
    residual: float


@dataclass(frozen=True)
class ProblemSpec:
    """One equation: grid, time grid, operator, drift, reaction and noise.
    The initial datum is an argument of each solve."""

    grid: Grid
    time_grid: TimeGrid
    spatial: SpatialOpSpec
    drift: DriftSpec
    reaction: ReactionSpec
    noise: NoiseSpec


@dataclass(frozen=True)
class Trajectory:
    """A batch of B paths on one time grid, with per-step Newton metadata.

    newton_iters[n] counts the batched Newton iterations of step n, one
    linear solve each for the whole batch: the most any path needed.  The
    direct solve that starts a linear step is not counted.
    Values are a read-only view of the given array, never a copy.
    """

    grid: Grid
    time_grid: TimeGrid
    values: np.ndarray  # shape (B, n_steps + 1, n_interior)
    newton_iters: tuple = ()
    max_newton_residual: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float).view()
        expected = (self.time_grid.n_steps + 1, self.grid.n_interior)
        if arr.ndim != 3 or arr.shape[1:] != expected:
            raise ValueError(f"trajectory shape {arr.shape}, expected (B, *{expected})")
        # min and max propagate NaN, and take no temporary array
        if arr.size and not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ValueError("trajectory contains non-finite values")
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    @property
    def n_paths(self) -> int:
        return self.values.shape[0]

    def single_path(self) -> np.ndarray:
        """The (n_steps + 1, n_interior) values of a one-path trajectory."""
        if self.n_paths != 1:
            raise ValueError(f"expected one path, the trajectory has {self.n_paths}")
        return self.values[0]

    def times(self) -> np.ndarray:
        return self.time_grid.times()

    def to_csv(self, path) -> None:
        xs = [repr(x) for x in self.grid.x.tolist()]
        with open(path, "w", newline="") as fh:
            fh.write(f"# mode={self.grid.mode} n_interior={self.grid.n_interior} "
                     f"L={self.grid.length!r} dx={self.grid.dx!r}\n")
            fh.write("t,x,value\n")
            # one write per time row; a Python float has the repr of float(value)
            for t, row in zip(self.times().tolist(), self.single_path()):
                t = repr(t)
                fh.write("".join(f"{t},{x},{v!r}\n" for x, v in zip(xs, row.tolist())))


@dataclass(frozen=True)
class NewtonLog:
    """The per-step Newton metadata of a solve whose states went to a store."""

    newton_iters: tuple
    max_newton_residual: float


# A forcing supplies the frozen drift values of a pass: called as
# forcing(n, states) -> array, with n = (members, steps) and one row of
# states per stepped state, state i being member members[i] at step
# steps[i] (slice(None) and an int k in a pass of every member at step k).
# State-dependent forcings are necessarily explicit (left endpoint);
# trajectory-frozen forcings sample the right endpoint, row steps + 1,
# which keeps the nonzero branch of degenerate drifts (e.g. sqrt of the
# positive part from a zero initial state) representable as a discrete
# fixed point.
Forcing = Callable[[tuple, np.ndarray], np.ndarray]


def constant_forcing(value: float) -> Forcing:
    def forcing(n, u):
        return np.full_like(u, float(value))
    return forcing


def solve_banded(off, diag, rhs):
    """Solve the symmetric positive definite tridiagonal systems
    (off, diag) x = rhs of every path (last axis) with one LAPACK ptsv call
    on their block-diagonal stack.  ptsv overwrites diag and rhs in place:
    pass temporaries.

    The coupling between neighbouring paths is exactly zero, so each path's
    solution is bit for bit the one its system alone would give.
    """
    coupling = np.zeros(diag.shape)
    coupling[..., :-1] = off
    *_, x, info = dptsv(diag.reshape(-1), coupling.reshape(-1)[:-1], rhs.reshape(-1, 1),
                        overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NewtonDivergenceError(f"Newton system not positive definite (ptsv info {info})")
    return x.reshape(rhs.shape)


def linear_factor(spec: ProblemSpec) -> Optional[tuple]:
    """The LAPACK pttrf factor (d, e) of I + dt A when the spatial operator is
    linear (p = 2 on a pde_1d grid), else None.

    At p = 2 the flux weight alpha (D^2 + delta)^0 is alpha, so the Jacobian
    bands are those of A itself, whatever the state they are taken at: here
    zero.
    """
    if spec.grid.mode == ODE or spec.spatial.p != 2.0:
        return None
    dt = spec.time_grid.dt
    off, diag = jacobian_bands(spec.spatial, np.zeros(spec.grid.n_interior), spec.grid)
    d, e, info = dpttrf(1.0 + dt * diag, dt * off)
    if info != 0:
        raise NewtonDivergenceError(f"I + dt A is not positive definite (pttrf info {info})")
    return d, e


def _failing(ok: np.ndarray):
    """Index of the paths where ok is False: None when there are none, and
    the whole batch (Ellipsis, no fancy indexing) when it is all of them."""
    n_ok = np.count_nonzero(ok)
    if n_ok == ok.size:
        return None
    return Ellipsis if n_ok == 0 else np.flatnonzero(~ok)


def implicit_step(
    spec: ProblemSpec,
    u_n: np.ndarray,
    h_n: Optional[np.ndarray],
    w_n: np.ndarray,
    newton: NewtonParams = NewtonParams(),
    factor: Optional[tuple] = None,
    D_n: Optional[np.ndarray] = None,
) -> tuple[np.ndarray, NewtonReport, Optional[np.ndarray]]:
    """Solve v + dt A(v) = u_n + dt h_n + dt f(u_n) + w_n shape(u_n) for
    every path of the batch: u_n and h_n are (B, n), and w_n holds the (B,)
    noise weights of the step (see noise_weights).

    Damped Newton runs on the paths that have not converged yet, each with
    its own line-search damping, so every path takes the iterates it would
    take alone.  It starts from u_n, or, given the linear_factor of a linear
    operator, from the direct solution, which usually needs no iteration.
    A path is converged when its residual is at most newton.tol times
    max(1, ||rhs||_H).  The report counts the batched iterations and gives
    the largest final residual.

    The interface gradients of each iterate are taken once, for both its
    residual and its Jacobian.  D_n, when given, is
    interface_gradients(u_n, dx), and the step may write into it; the
    gradients of v are returned with v (None in ODE mode) for the next
    step to pass on.
    """
    dt = spec.time_grid.dt
    dx = spec.grid.dx
    rhs = u_n + dt * eval_f_values(spec.reaction, u_n)
    if h_n is not None:
        rhs = rhs + dt * h_n
    if spec.noise.K > 0:
        rhs = rhs + noise_term_values(spec.noise, u_n, w_n)

    if spec.grid.mode == ODE:
        # spatial operator is identically zero: the step is explicit.  Only
        # this branch can yield a non-finite state: Newton never accepts an
        # iterate whose residual is not finite.
        if not np.all(np.isfinite(rhs)):
            raise NewtonDivergenceError("non-finite state")
        return rhs, NewtonReport(0, 0.0), None

    def residual(v, target, D):
        return v + dt * apply_A_values(spec.spatial, v, spec.grid, D) - target

    if factor is None:
        v = u_n.astype(float, copy=True)
        D = interface_gradients(v, dx) if D_n is None else D_n
    else:
        # the (B, n) C-order rhs is the F-order (n, B) matrix pttrs takes
        v = dpttrs(*factor, rhs.T)[0].T
        D = interface_gradients(v, dx)
    res = residual(v, rhs, D)
    rnorm = h_norm_values(res, dx)
    limit = newton.tol * np.maximum(1.0, h_norm_values(rhs, dx))
    iters = 0
    # a NaN residual compares false with everything: never accept it
    while (sel := _failing(rnorm <= limit)) is not None:
        if iters >= newton.max_iter:
            worst = np.argmax(rnorm[sel])
            raise NewtonDivergenceError(
                f"Newton residual {rnorm[sel][worst]:.3e} > tol {limit[sel][worst]:.3e} "
                f"after {iters} iterations")
        v_a, rhs_a, rnorm_a = v[sel], rhs[sel], rnorm[sel]
        off, diag = jacobian_bands(spec.spatial, v_a, spec.grid, D[sel])
        dv = solve_banded(dt * off, 1.0 + dt * diag, -res[sel])
        # damped update: halve the step of each path whose residual grows
        step = 1.0
        v_try = v_a + dv
        D_try = interface_gradients(v_try, dx)
        res_try = residual(v_try, rhs_a, D_try)
        rnorm_try = h_norm_values(res_try, dx)
        while step > 1.0 / 1024.0 and (g := _failing(rnorm_try < rnorm_a)) is not None:
            step *= 0.5
            v_try[g] = v_a[g] + step * dv[g]
            D_try[g] = interface_gradients(v_try[g], dx)
            res_try[g] = residual(v_try[g], rhs_a[g], D_try[g])
            rnorm_try[g] = h_norm_values(res_try[g], dx)
        if sel is Ellipsis:
            v, res, rnorm, D = v_try, res_try, rnorm_try, D_try
        else:
            v[sel], res[sel], rnorm[sel], D[sel] = v_try, res_try, rnorm_try, D_try
        iters += 1
    return v, NewtonReport(iters, float(np.max(rnorm))), D


def _check_guards(spec: ProblemSpec) -> None:
    # stacklevel 4: past march to the caller of solve_frozen or comparison_study
    dt = spec.time_grid.dt
    if dt * spec.reaction.C_F >= 1.0:
        warnings.warn(
            f"dt*C_F = {dt * spec.reaction.C_F:.3g} >= 1: explicit reaction may break "
            "order preservation", stacklevel=4)
    if spec.noise.K > 0 and spec.noise.C_G * np.sqrt(dt) >= _NOISE_STD_GUARD:
        warnings.warn(
            f"per-step noise multiplier std C_G*sqrt(dt) = "
            f"{spec.noise.C_G * np.sqrt(dt):.3g} >= {_NOISE_STD_GUARD}: order "
            "preservation failure probability is no longer negligible",
            stacklevel=4)


def march(
    spec: ProblemSpec,
    u0: np.ndarray,
    forcing: Optional[Forcing],
    weights: np.ndarray,
    store: Callable[[tuple, np.ndarray], None],
    newton: NewtonParams = NewtonParams(),
    schedule: Optional[Iterable] = None,
) -> NewtonLog:
    """Step the scheme for a batch of B members from their own (B, n)
    states u0, with frozen drift h_n = forcing(n, u_n) (one row per
    state) and the (N, B) noise weights: row n holds each member's weight
    of step n (see noise_weights).

    Each pass steps the states of some members at some steps, named by
    the pass index n = (members, steps) (see Forcing), and then calls
    store(n, u_next) with the new states; u_next is the next pass's input
    and must not be written to.  By default pass k is (slice(None), k),
    every member from its state k, for k = 0, ..., N - 1.  A schedule
    hands march its passes instead, as pairs (n, u_n): the states of pass
    n, or None to step on from the states of the last pass (u0 at first).
    Returns the Newton metadata of each pass.

    Initial states of the wrong shape or with a non-finite value raise
    ValueError before any step.  A pass that fails raises
    NewtonDivergenceError with the index of a step it took.  Each state's
    step does not depend on the other states of its pass.
    """
    u = np.array(u0, dtype=float, order="C")  # the rounding of a row follows its layout
    if u.ndim != 2 or u.shape[1] != spec.grid.n_interior:
        raise ValueError(f"initial states of shape {u.shape}, "
                         f"expected (B, {spec.grid.n_interior})")
    if not np.all(np.isfinite(u)):
        raise ValueError("initial states must be finite")
    if weights.shape != (spec.time_grid.n_steps, u.shape[0]):
        raise ValueError(f"noise weights of shape {weights.shape}, "
                         f"expected ({spec.time_grid.n_steps}, {u.shape[0]})")
    _check_guards(spec)
    factor = linear_factor(spec)
    iters, worst = [], 0.0
    D = None  # the interface gradients of u, once a pass has computed them
    if schedule is None:
        schedule = (((slice(None), k), None) for k in range(spec.time_grid.n_steps))
    for n, u_n in schedule:
        if u_n is not None:
            u, D = u_n, None
        # weights.T[members, steps] holds each state's weight of its step
        w_n = weights.T[n]
        h_n = forcing(n, u) if forcing is not None else None
        try:
            u, report, D = implicit_step(spec, u, h_n, w_n, newton, factor, D)
        except NewtonDivergenceError as err:
            step = int(np.min(n[1]))
            raise NewtonDivergenceError(str(err) + f" (step {step})", step) from None
        store(n, u)
        iters.append(report.iterations)
        worst = max(worst, report.residual)
    return NewtonLog(tuple(iters), worst)


def solve_frozen(
    spec: ProblemSpec,
    u0: np.ndarray,
    forcing: Optional[Forcing],
    noise_paths: Union[NoisePath, Sequence[NoisePath], None] = None,
    newton: NewtonParams = NewtonParams(),
    store: Optional[Callable[[tuple, np.ndarray], None]] = None,
    schedule: Optional[Iterable] = None,
) -> Union[Trajectory, NewtonLog]:
    """March the scheme with frozen drift h_n = forcing(n, u_n) for a batch
    of B paths, one per noise path (one path when noise_paths is None or a
    single NoisePath), from their initial states u0: one (n,) state for
    every path, or one (B, n) row per path.

    Returns every state as a Trajectory.  With store given, no state is
    kept: store(n, u) receives the new states of each pass n = (members,
    steps) (see march), and the result is the NewtonLog of the passes
    taken.  A schedule hands march its passes; a scheduled march needs a
    store, since its passes need not make the states in order.

    Deterministic given (spec, u0, forcing, noise_paths); each path's
    values do not depend on the other paths of the batch.
    """
    tg = spec.time_grid
    if noise_paths is None:
        if spec.noise.K > 0:
            raise ValueError("spec has K > 0 noise modes but no noise path given")
        increments = [np.zeros((0, tg.n_steps))]
    else:
        if isinstance(noise_paths, NoisePath):
            noise_paths = [noise_paths]
        increments = [path.increments for path in noise_paths]
    if any(inc.shape != (spec.noise.K, tg.n_steps) for inc in increments):
        raise ValueError("noise path shape does not match (K, n_steps)")

    weights = np.stack([noise_weights(spec.noise, inc) for inc in increments], axis=1)
    keep = store is None
    if schedule is not None and keep:
        raise ValueError("a scheduled march needs a store")
    shape = (len(increments), spec.grid.n_interior)
    u0 = np.asarray(u0, dtype=float)
    if u0.shape not in (shape, shape[1:]):
        raise ValueError(f"initial datum of shape {u0.shape}, expected {shape} or {shape[1:]}")
    u0 = np.broadcast_to(u0, shape)
    if keep:
        states = np.empty((u0.shape[0], tg.n_steps + 1, u0.shape[1]))
        states[:, 0] = u0

        def store(n, u_next):
            states[n[0], n[1] + 1] = u_next
    log = march(spec, u0, forcing, weights, store, newton, schedule)
    if keep:
        return Trajectory(spec.grid, tg, states, log.newton_iters, log.max_newton_residual)
    return log


def sup_h_norm(values: np.ndarray, dx: float) -> float:
    """sup over paths and time of the discrete L2 norm of stored states."""
    return float(np.sqrt(np.max(np.sum(values * values, axis=-1)) * dx))


def sup_h_distance(a: Trajectory, b: Trajectory) -> float:
    """sup over paths and time of the discrete L2 distance between two
    trajectories."""
    return sup_h_norm(a.values - b.values, a.grid.dx)
