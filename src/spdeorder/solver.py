"""Drift-implicit, reaction/noise-explicit Euler-Maruyama solver for the
frozen-drift problem: the monotone spatial operator is treated implicitly
(Newton with tridiagonal linearizations), the known forcing, reaction and
multiplicative noise explicitly at the left endpoint of each step.
"""
from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import warnings
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np
import scipy

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

# the directory of the package's modules, whose frames a warning skips
_PACKAGE_DIR = os.path.dirname(__file__) + os.sep

# the LAPACK routines the solver calls: factor, solve with a factor, and
# factor and solve in one call, of symmetric positive definite tridiagonal
# systems
_LAPACK_ROUTINES = ("dpttrf", "dpttrs", "dptsv")


def _load_flapack():
    """scipy's compiled LAPACK wrappers, the extension module
    scipy.linalg._flapack, loaded from its file without importing
    scipy.linalg, whose import takes about half of this package's."""
    base = os.path.join(os.path.dirname(scipy.__file__), "linalg", "_flapack")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        if os.path.isfile(base + suffix):
            spec = importlib.util.spec_from_file_location("scipy.linalg._flapack",
                                                          base + suffix)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module
    raise ImportError(f"no extension module {base}.*")


def _load_lapack() -> tuple:
    """_LAPACK_ROUTINES from _load_flapack, or from scipy.linalg.lapack if
    the file or a routine is missing or the load fails: the same compiled
    routines either way, since scipy.linalg.lapack takes them from that
    module."""
    try:
        module = _load_flapack()
        return tuple(getattr(module, name) for name in _LAPACK_ROUTINES)
    except (ImportError, AttributeError):  # scipy's private layout changed
        from scipy.linalg import lapack
        return tuple(getattr(lapack, name) for name in _LAPACK_ROUTINES)


dpttrf, dpttrs, dptsv = _load_lapack()


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
    (off, diag) x = rhs of every row of three ghost-padded stacks (see
    operators) with one LAPACK ptsv call on the flat stack, and return x,
    which is rhs's memory.  off and diag are laid out as jacobian_bands
    gives them: each row's ghost is an unknown of its own, with a
    positive diagonal and zero couplings to both neighbours.  The ghosts'
    right-hand side is set to 0.0 here, so each ghost solves to 0.0 and no
    value crosses from one row into the next: each row's solution is bit
    for bit the one its system alone would give.  ptsv overwrites off,
    diag and rhs in place: the caller owns them, and in implicit_step
    they are views of its march's Workspace.  All three must be
    C-contiguous.
    """
    rhs[..., -1] = 0.0
    *_, x, info = dptsv(diag.reshape(-1), off.reshape(-1)[:-1], rhs.reshape(-1, 1),
                        overwrite_d=1, overwrite_e=1, overwrite_b=1)
    if info != 0:
        raise NewtonDivergenceError(f"Newton system not positive definite (ptsv info {info})")
    return x.reshape(rhs.shape)


def linear_factor(spec: ProblemSpec) -> Optional[tuple]:
    """The LAPACK pttrf factor (d, e) of I + dt A on one ghost-padded row
    when the spatial operator is linear (p = 2 on a pde_1d grid), else
    None: its ghost has d = 1 and no coupling.

    At p = 2 the flux weight alpha (D^2 + delta)^0 is alpha, so the Jacobian
    bands are those of A itself, whatever the state they are taken at: here
    zero.
    """
    if spec.grid.mode == ODE or spec.spatial.p != 2.0:
        return None
    dt = spec.time_grid.dt
    off, diag = jacobian_bands(spec.spatial, np.zeros(spec.grid.n_interior + 1), spec.grid)
    d, e, info = dpttrf(1.0 + dt * diag, dt * off[:-1])
    if info != 0:
        raise NewtonDivergenceError(f"I + dt A is not positive definite (pttrf info {info})")
    return d, e


class Workspace:
    """The reusable arrays of the temporaries of a march's passes: one
    ghost-padded (rows, n + 1) array per role, grown to the most rows a
    pass has asked of that role, and only when a pass asks for more.

    views(rows, roles) gives the leading rows of each named role's array,
    a C-contiguous view; unpadded(rows, role) gives the same memory as a
    C-contiguous (rows, n) array, for a caller's scratch.  Views of one
    role share memory, so roles that are live at once must differ.  No
    array a march returns or stores is ever in a workspace.
    """

    def __init__(self, n: int):
        self.n = n
        self.arrays = {}

    def views(self, rows: int, roles: tuple) -> list:
        views = []
        for name in roles:
            array = self.arrays.get(name)
            if array is None or len(array) < rows:
                # the old array is freed before its successor is made
                array = self.arrays[name] = None
                array = self.arrays[name] = np.empty((rows, self.n + 1))
            views.append(array[:rows])
        return views

    def unpadded(self, rows: int, role: str) -> np.ndarray:
        padded, = self.views(rows, (role,))
        return padded.reshape(-1)[:rows * self.n].reshape(rows, self.n)


# the roles of implicit_step's temporaries: those of a step's whole batch,
# those of the Newton update of the paths not yet converged, and those of
# their subset when it is not the whole batch, which hold u_n first, and
# on a nonlinear step its residual and gradients
_STEP_ROLES = ("v", "rhs", "res", "grad")
_NEWTON_ROLES = ("dv", "v_try")
_SUBSET_ROLES = ("v_sub", "rhs_sub", "res_try", "grad_try")


def _failing(ok: np.ndarray):
    """Index of the paths where ok is False: None when there are none, and
    the whole batch (Ellipsis, no fancy indexing) when it is all of them."""
    n_ok = np.count_nonzero(ok)
    if n_ok == ok.size:
        return None
    return Ellipsis if n_ok == 0 else np.flatnonzero(~ok)


def _rows(a: np.ndarray, index, out: np.ndarray) -> np.ndarray:
    """The rows index of a: a itself for Ellipsis, else gathered into out.
    The indices are in range, and take's mode "raise" would gather them
    into a new buffer before out: "clip" writes out directly."""
    return a if index is Ellipsis else a.take(index, 0, out, mode="clip")


def implicit_step(
    spec: ProblemSpec,
    u_n: np.ndarray,
    h_n: Optional[np.ndarray],
    w_n: np.ndarray,
    newton: NewtonParams = NewtonParams(),
    factor: Optional[tuple] = None,
    work: Optional[Workspace] = None,
) -> tuple[np.ndarray, NewtonReport]:
    """Solve v + dt A(v) = u_n + dt h_n + dt f(u_n) + w_n shape(u_n) for
    every path of the batch: u_n and h_n are (B, n), and w_n holds the (B,)
    noise weights of the step (see noise_weights).

    Damped Newton runs on the paths that have not converged yet, each with
    its own line-search damping, so every path takes the iterates it would
    take alone.  Given the linear_factor of a linear operator it starts
    from the direct solution, which usually needs no iteration; else each
    path starts from u_n or from the predictor u_n - r(u_n), whichever
    has the strictly smaller residual.
    A path is converged when its residual is at most newton.tol times
    max(1, ||rhs||_H); a right-hand side whose norm overflows raises
    NewtonDivergenceError before the first solve.  The report counts the
    batched iterations and gives the largest final residual.

    Every temporary of the step is a ghost-padded stack (see operators)
    in work, its march's Workspace (a new one when not given): the
    iterates, right-hand side, residual, gradients, update and bands
    alike, so every shift of the spatial kernels is contiguous.  They
    are written with in-place operators in the order of the expressions
    they stand for, so the bits do not depend on where they live.  The
    interface gradients of each iterate are taken once, for both its
    residual and its Jacobian.  The returned (B, n) states are a new
    array.
    """
    dt = spec.time_grid.dt
    dx = spec.grid.dx
    work = Workspace(spec.grid.n_interior) if work is None else work
    L = len(u_n)
    v, rhs, res, D = work.views(L, _STEP_ROLES)
    # u_n, ghost-padded, in the subset's iterate: a nonlinear step's
    # predictor takes the step's own
    u, = work.views(L, _SUBSET_ROLES[:1])
    u[:, :-1] = u_n
    u[:, -1] = 0.0
    # rhs = u_n + dt f(u_n) + dt h_n + noise, added in that order (a + b
    # is b + a bit for bit), with u standing for u_n; res is free until the
    # first residual.  A step without forcing takes h_n = -0.0: adding
    # dt * -0.0 changes no bit.  The ghost is set before the scaling, whose
    # stale workspace memory could raise a floating-point warning; f and the
    # noise term need not vanish there: the ghost is reset at the end
    np.multiply(dt, eval_f_values(spec.reaction, u), out=res)
    res += u
    rhs[:, :-1] = -0.0 if h_n is None else h_n
    rhs[:, -1] = 0.0
    rhs *= dt
    rhs += res
    if spec.noise.K > 0:
        rhs += noise_term_values(spec.noise, u, w_n)
    rhs[:, -1] = 0.0
    interior = np.s_[:, :-1]  # each row without its ghost, for the norms

    if spec.grid.mode == ODE:
        # spatial operator is identically zero: the step is explicit.  Only
        # this branch can yield a non-finite state: Newton's limit below is
        # finite or NaN, so it never accepts a residual that is not finite.
        if not np.all(np.isfinite(rhs)):
            raise NewtonDivergenceError("non-finite state")
        return rhs[interior].copy(), NewtonReport(0, 0.0)

    def evaluate(v, target, D, res):
        """The interface gradients of v into D, its residual v + dt A(v) -
        target into res, and the residual's norm."""
        interface_gradients(v, dx, out=D)
        apply_A_values(spec.spatial, v, spec.grid, D, out=res)
        res *= dt
        res += v
        res -= target
        return h_norm_values(res[interior], dx)

    # an infinite limit would pass every residual, inf included: its
    # overflow raises NewtonDivergenceError, not a floating-point warning
    with np.errstate(over="ignore"):
        limit = newton.tol * np.maximum(1.0, h_norm_values(rhs[interior], dx))
    if np.isinf(limit).any():
        raise NewtonDivergenceError("right-hand side norm overflows")
    if factor is not None:
        # the (L, n+1) C-order stack is the F-order (n+1, L) matrix pttrs
        # solves in place, one padded row per column
        v[...] = rhs
        dpttrs(*factor, v.T, overwrite_b=1)
        rnorm = evaluate(v, rhs, D, res)
    else:
        # the predictor u_n - r(u_n) = rhs - dt A(u_n) takes the step's
        # forcing, reaction and noise exactly and lags only A.  A path keeps
        # u_n, whose residual and gradients the subset's arrays hold, unless
        # the predictor's residual is strictly below u_n's (a NaN or an inf
        # one never is), so each start depends on its own path's u_n and
        # rhs alone, and a step whose paths all take the predictor copies
        # nothing.  An explicit step overshoots: a predictor whose flux or
        # norm overflows is dropped, not a floating-point warning
        _, _, res_u, D_u = work.views(L, _SUBSET_ROLES)
        rnorm_u = evaluate(u, rhs, D_u, res_u)
        with np.errstate(over="ignore", invalid="ignore"):
            np.subtract(u, res_u, out=v)
            rnorm = evaluate(v, rhs, D, res)
        kept = ~(rnorm < rnorm_u)
        if kept.any():
            for a, a_u in ((v, u), (res, res_u), (D, D_u)):
                np.copyto(a, a_u, where=kept[:, None])
            rnorm = np.where(kept, rnorm_u, rnorm)
    iters = 0
    # a NaN residual compares false with everything: never accept it
    while (sel := _failing(rnorm <= limit)) is not None:
        if iters >= newton.max_iter:
            worst = np.argmax(rnorm[sel])
            raise NewtonDivergenceError(
                f"Newton residual {rnorm[sel][worst]:.3e} > tol {limit[sel][worst]:.3e} "
                f"after {iters} iterations")
        dv, v_try = work.views(L if sel is Ellipsis else len(sel), _NEWTON_ROLES)
        # the whole batch's trial overwrites its gradients and residual,
        # which nothing reads once the bands and dv are taken; a subset
        # gathers into arrays of its own.  The trial's arrays are free until
        # the solve: its gradients hold the subset's until then, its
        # residual the off-diagonal band and its iterate the diagonal
        v_s, rhs_s, res_try, D_try = ((None, None, res, D) if sel is Ellipsis
                                      else work.views(len(sel), _SUBSET_ROLES))
        v_a, rhs_a, D_a = _rows(v, sel, v_s), _rows(rhs, sel, rhs_s), _rows(D, sel, D_try)
        rnorm_a = rnorm[sel]
        np.negative(_rows(res, sel, dv), out=dv)
        off, diag = res_try, v_try
        jacobian_bands(spec.spatial, v_a, spec.grid, D_a, out=(off, diag))
        off *= dt
        diag *= dt
        diag += 1.0
        solve_banded(off, diag, dv)
        # damped update: halve the step of each path whose residual grows
        step = 1.0
        np.add(v_a, dv, out=v_try)
        rnorm_try = evaluate(v_try, rhs_a, D_try, res_try)
        while step > 1.0 / 1024.0 and _failing(kept := rnorm_try < rnorm_a) is not None:
            step *= 0.5
            # v_a + step * dv on the paths whose residual grew; the others
            # keep their trial, whose evaluation gives the same bits again
            grew = ~kept[:, None]
            np.multiply(step, dv, out=v_try, where=grew)
            np.add(v_try, v_a, out=v_try, where=grew)
            rnorm_try = evaluate(v_try, rhs_a, D_try, res_try)
        if sel is Ellipsis:
            v[...], rnorm = v_try, rnorm_try
        else:
            v[sel], res[sel], rnorm[sel], D[sel] = v_try, res_try, rnorm_try, D_try
        iters += 1
    return v[interior].copy(), NewtonReport(iters, float(np.max(rnorm)))


def _check_guards(spec: ProblemSpec) -> None:
    # the warnings point at the first caller outside the package, whichever
    # entry point it called
    frame, level = sys._getframe(1), 2
    while frame is not None and frame.f_code.co_filename.startswith(_PACKAGE_DIR):
        frame, level = frame.f_back, level + 1
    dt = spec.time_grid.dt
    if dt * spec.reaction.C_F >= 1.0:
        warnings.warn(
            f"dt*C_F = {dt * spec.reaction.C_F:.3g} >= 1: explicit reaction may break "
            "order preservation", stacklevel=level)
    if spec.noise.K > 0 and spec.noise.C_G * np.sqrt(dt) >= _NOISE_STD_GUARD:
        warnings.warn(
            f"per-step noise multiplier std C_G*sqrt(dt) = "
            f"{spec.noise.C_G * np.sqrt(dt):.3g} >= {_NOISE_STD_GUARD}: order "
            "preservation failure probability is no longer negligible",
            stacklevel=level)


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

    The march owns one Workspace for the temporaries of its passes,
    sized to its largest pass so far.  Each pass's new states are a new
    array, which the store may keep.

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
    work = Workspace(spec.grid.n_interior)
    iters, worst = [], 0.0
    if schedule is None:
        schedule = (((slice(None), k), None) for k in range(spec.time_grid.n_steps))
    for n, u_n in schedule:
        if u_n is not None:
            u = u_n
        # weights.T[members, steps] holds each state's weight of its step
        w_n = weights.T[n]
        h_n = forcing(n, u) if forcing is not None else None
        try:
            u, report = implicit_step(spec, u, h_n, w_n, newton, factor, work)
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
