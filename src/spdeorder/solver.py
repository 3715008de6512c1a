"""Drift-implicit, reaction/noise-explicit Euler-Maruyama solver for the
frozen-drift problem: the monotone spatial operator is treated implicitly
(Newton with tridiagonal linearizations), the known forcing, reaction and
multiplicative noise explicitly at the left endpoint of each step.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
from scipy.linalg.lapack import dgtsv

from .core import Field, Grid, ODE, TimeGrid, h_norm_values
from .noise import NoisePath
from .operators import (
    DriftSpec,
    NoiseSpec,
    ReactionSpec,
    SpatialOpSpec,
    apply_A_values,
    eval_f_values,
    jacobian_bands,
    noise_term_values,
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
    """Full description of one Cauchy problem."""

    grid: Grid
    time_grid: TimeGrid
    spatial: SpatialOpSpec
    drift: DriftSpec
    reaction: ReactionSpec
    noise: NoiseSpec
    u0: Field

    def __post_init__(self):
        if self.u0.grid != self.grid:
            raise ValueError("initial datum lives on a different grid")


@dataclass(frozen=True)
class Trajectory:
    """Time-indexed discrete states with per-step Newton metadata."""

    grid: Grid
    time_grid: TimeGrid
    values: np.ndarray  # shape (n_steps + 1, n_interior)
    newton_iters: tuple = ()
    max_newton_residual: float = 0.0

    def __post_init__(self):
        arr = np.asarray(self.values, dtype=float)
        expected = (self.time_grid.n_steps + 1, self.grid.n_interior)
        if arr.shape != expected:
            raise ValueError(f"trajectory shape {arr.shape}, expected {expected}")
        if not np.all(np.isfinite(arr)):
            raise ValueError("trajectory contains non-finite values")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "values", arr)

    def times(self) -> np.ndarray:
        return self.time_grid.times()

    def to_csv(self, path) -> None:
        x = self.grid.x
        times = self.times()
        with open(path, "w", newline="") as fh:
            fh.write(f"# mode={self.grid.mode} n_interior={self.grid.n_interior} "
                     f"L={self.grid.length!r} dx={self.grid.dx!r}\n")
            fh.write("t,x,value\n")
            for n, t in enumerate(times):
                row = self.values[n]
                for i in range(x.size):
                    fh.write(f"{float(t)!r},{float(x[i])!r},{float(row[i])!r}\n")


# A forcing supplies the frozen drift value for step n -> n+1: called as
# forcing(step_index, t_n, state_values) -> array.  State-dependent forcings
# are necessarily explicit (left endpoint); trajectory-frozen forcings sample
# the right endpoint t_{n+1}, which keeps the nonzero branch of degenerate
# drifts (e.g. sqrt of the positive part from a zero initial state)
# representable as a discrete fixed point.
Forcing = Callable[[int, float, np.ndarray], np.ndarray]


def constant_forcing(value: float) -> Forcing:
    def forcing(n, t, u):
        return np.full_like(u, float(value))
    return forcing


def forcing_from_trajectory(traj: Trajectory) -> Forcing:
    def forcing(n, t, u):
        return traj.values[n + 1]
    return forcing


def solve_banded(off, diag, rhs):
    """Solve the symmetric tridiagonal system (off, diag) x = rhs with LAPACK
    gtsv; the default overwrite flags copy off, which gtsv overwrites."""
    *_, x, info = dgtsv(off, diag, off, rhs)
    if info != 0:
        raise NewtonDivergenceError(f"singular Newton system (gtsv info {info})")
    return x


def implicit_step(
    spec: ProblemSpec,
    u_n: np.ndarray,
    h_n: Optional[np.ndarray],
    dW_n: np.ndarray,
    t_n: float,
    newton: NewtonParams = NewtonParams(),
) -> tuple[np.ndarray, NewtonReport]:
    """Solve v + dt A(v) = u_n + dt h_n + dt f(u_n) + sum_k g_k(u_n) dW_k."""
    dt = spec.time_grid.dt
    dx = spec.grid.dx
    rhs = u_n + dt * eval_f_values(spec.reaction, u_n)
    if h_n is not None:
        rhs = rhs + dt * h_n
    if spec.noise.K > 0:
        rhs = rhs + noise_term_values(spec.noise, u_n, dW_n)

    if spec.grid.mode == ODE:
        # spatial operator is identically zero: the step is explicit.  Only
        # this branch can yield a non-finite state: Newton never accepts an
        # iterate whose residual is not finite.
        if not np.all(np.isfinite(rhs)):
            raise NewtonDivergenceError("non-finite state")
        return rhs, NewtonReport(0, 0.0)

    def residual(v):
        return v + dt * apply_A_values(spec.spatial, v, spec.grid) - rhs

    v = u_n.astype(float, copy=True)
    res = residual(v)
    rnorm = h_norm_values(res, dx)
    iters = 0
    # a NaN residual compares false with everything: never accept it
    while not rnorm <= newton.tol:
        if iters >= newton.max_iter:
            raise NewtonDivergenceError(
                f"Newton residual {rnorm:.3e} > tol {newton.tol:.3e} "
                f"after {iters} iterations")
        off, diag = jacobian_bands(spec.spatial, v, spec.grid)
        dv = solve_banded(dt * off, 1.0 + dt * diag, -res)
        # damped update: halve the step while the residual grows
        step = 1.0
        while True:
            v_try = v + step * dv
            res_try = residual(v_try)
            rnorm_try = h_norm_values(res_try, dx)
            if rnorm_try < rnorm or step <= 1.0 / 1024.0:
                break
            step *= 0.5
        v, res, rnorm = v_try, res_try, rnorm_try
        iters += 1
    return v, NewtonReport(iters, rnorm)


def _check_guards(spec: ProblemSpec) -> None:
    dt = spec.time_grid.dt
    if dt * spec.reaction.C_F >= 1.0:
        warnings.warn(
            f"dt*C_F = {dt * spec.reaction.C_F:.3g} >= 1: explicit reaction may break "
            "order preservation", stacklevel=3)
    if spec.noise.K > 0 and spec.noise.C_G * np.sqrt(dt) >= _NOISE_STD_GUARD:
        warnings.warn(
            f"per-step noise multiplier std C_G*sqrt(dt) = "
            f"{spec.noise.C_G * np.sqrt(dt):.3g} >= {_NOISE_STD_GUARD}: order "
            "preservation failure probability is no longer negligible",
            stacklevel=3)


def solve_frozen(
    spec: ProblemSpec,
    forcing: Optional[Forcing],
    noise_path: Optional[NoisePath] = None,
    newton: NewtonParams = NewtonParams(),
) -> Trajectory:
    """Run the scheme over all steps with frozen drift h_n = forcing(t_n).

    Deterministic given (spec, forcing, noise_path).
    """
    tg = spec.time_grid
    if spec.noise.K > 0:
        if noise_path is None:
            raise ValueError("spec has K > 0 noise modes but no noise path given")
        if noise_path.increments.shape != (spec.noise.K, tg.n_steps):
            raise ValueError("noise path shape does not match (K, n_steps)")
    _check_guards(spec)

    empty = np.zeros(0)
    states = np.empty((tg.n_steps + 1, spec.grid.n_interior))
    states[0] = spec.u0.values
    iters = []
    worst = 0.0
    u = spec.u0.values
    for n in range(tg.n_steps):
        t_n = n * tg.dt
        h_n = forcing(n, t_n, u) if forcing is not None else None
        dW_n = noise_path.increments[:, n] if spec.noise.K > 0 else empty
        try:
            u, report = implicit_step(spec, u, h_n, dW_n, t_n, newton)
        except NewtonDivergenceError as err:
            raise NewtonDivergenceError(str(err) + f" (step {n})", n) from None
        states[n + 1] = u
        iters.append(report.iterations)
        worst = max(worst, report.residual)
    return Trajectory(spec.grid, tg, states, tuple(iters), worst)


def sup_h_distance(a: Trajectory, b: Trajectory) -> float:
    """sup over time of the discrete L2 distance between two trajectories."""
    diff = a.values - b.values
    return float(np.sqrt(np.max(np.sum(diff * diff, axis=1)) * a.grid.dx))
