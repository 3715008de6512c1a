"""Pathwise-coupled runs for the comparison principle, with positive-part
energy diagnostics and the smooth-regularizer energy trace.

One equation, started from two initial data with one frozen drift each,
is driven by the same noise path on both sides; ordered data must yield
ordered trajectories, quantified through the energy ||(u_1 - u_2)^+||_H^2.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .noise import NoisePath, sample_noise_path
from .operators import Sigma_functional_values, noise_weights
from .solver import (
    Forcing,
    NewtonParams,
    ProblemSpec,
    Trajectory,
    march,
    solve_frozen,
)


def run_coupled(
    spec: ProblemSpec,
    u0_1: np.ndarray,
    u0_2: np.ndarray,
    noise_paths: Union[NoisePath, Sequence[NoisePath], None],
    forcing_1: Optional[Forcing] = None,
    forcing_2: Optional[Forcing] = None,
    newton: NewtonParams = NewtonParams(),
) -> tuple[Trajectory, Trajectory]:
    """Solve the frozen problem from both data on the same noise paths, one
    batch each."""
    traj_1 = solve_frozen(spec, u0_1, forcing_1, noise_paths, newton)
    traj_2 = solve_frozen(spec, u0_2, forcing_2, noise_paths, newton)
    return traj_1, traj_2


def _energy_series(values_1: np.ndarray, values_2: np.ndarray, dx: float) -> np.ndarray:
    """||(u_1 - u_2)^+||_H^2 of each row: one per time, or one per member."""
    diff = np.maximum(values_1 - values_2, 0.0)
    return np.sum(diff * diff, axis=1) * dx


def energy_series(traj_1: Trajectory, traj_2: Trajectory) -> np.ndarray:
    """Per-time positive-part energy ||(u_1 - u_2)^+||_H^2 of one coupled path."""
    return _energy_series(traj_1.single_path(), traj_2.single_path(), traj_1.grid.dx)


def sigma_energy_trace(traj_1: Trajectory, traj_2: Trajectory, eps: float) -> np.ndarray:
    """Per-time smooth-regularizer functional of the difference of one
    coupled path."""
    if traj_1.values.shape != traj_2.values.shape:
        raise ValueError("trajectories do not match")
    diff = traj_1.single_path() - traj_2.single_path()
    return Sigma_functional_values(diff, eps, traj_1.grid.dx)


@dataclass(frozen=True)
class ComparisonReport:
    times: np.ndarray
    max_energy: np.ndarray  # per time, over paths
    mean_energy: np.ndarray  # per time, ensemble mean
    n_paths: int
    worst_path: int
    worst_step: int
    worst_energy: float
    tol: float
    first_pair: tuple  # path 0's coupled trajectories, with the batch's Newton log

    @property
    def passed(self) -> bool:
        return self.worst_energy <= self.tol

    def to_text(self) -> str:
        lines = [
            f"paths = {self.n_paths}",
            f"tolerance = {self.tol!r}",
            f"worst_energy = {self.worst_energy!r}",
            f"worst_path = {self.worst_path}",
            f"worst_time = {float(self.times[self.worst_step])!r}",
            f"max_over_all = {float(np.max(self.max_energy))!r}",
            f"mean_terminal = {float(self.mean_energy[-1])!r}",
            f"passed = {str(self.passed).lower()}",
        ]
        return "\n".join(lines) + "\n"

    def energies_to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "max_energy", "mean_energy"])
            for t, mx, mn in zip(self.times, self.max_energy, self.mean_energy):
                writer.writerow([repr(float(t)), repr(float(mx)), repr(float(mn))])


def _coupled_forcing(forcing_1: Optional[Forcing], forcing_2: Optional[Forcing],
                     M: int) -> Forcing:
    """The forcing of a batch of M side-1 members, then M side-2 members."""
    def forcing(n, u):
        # a side without forcing gets -0.0: adding dt * -0.0 leaves its
        # right-hand side exactly as a solve without forcing leaves it
        h = np.full_like(u, -0.0)
        for side_forcing, rows in ((forcing_1, slice(None, M)), (forcing_2, slice(M, None))):
            if side_forcing is not None:
                h[rows] = side_forcing(n, u[rows])
        return h

    return forcing


def comparison_study(
    spec: ProblemSpec,
    u0_1: np.ndarray,
    u0_2: np.ndarray,
    M: int,
    master_seed: int,
    forcing_1: Optional[Forcing] = None,
    forcing_2: Optional[Forcing] = None,
    tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> ComparisonReport:
    """Monte Carlo estimate of the comparison defect over M coupled paths,
    side 1 from the (n,) datum u0_1, side 2 from u0_2.

    All paths and both sides march in one batch of 2M members: the M
    side-1 members, then the M side-2 ones, member m and M + m on noise
    path m.  Each step reduces the members' energies into an (M, N+1)
    array and keeps only path 0's pair of states.  The energies are then
    reduced over the paths in path-index order.  Every path's report
    entries are bit for bit those of run_coupled on that path alone.
    """
    if M < 1:
        raise ValueError("need at least one path")
    noise, tg, grid = spec.noise, spec.time_grid, spec.grid
    N = tg.n_steps

    paths = (sample_noise_path(master_seed, m, noise.K, tg) for m in range(M))
    weights = np.stack([noise_weights(noise, path.increments) for path in paths], axis=1)
    weights = np.concatenate([weights, weights], axis=1)

    u0 = np.empty((2 * M, grid.n_interior))
    u0[:M], u0[M:] = u0_1, u0_2
    energies = np.empty((M, N + 1))
    energies[:, 0] = _energy_series(u0[:M], u0[M:], grid.dx)
    pair = np.empty((2, N + 1, grid.n_interior))
    pair[:, 0] = u0[[0, M]]

    def reduce_step(n, u):
        energies[:, n[1] + 1] = _energy_series(u[:M], u[M:], grid.dx)
        pair[:, n[1] + 1] = u[[0, M]]

    log = march(spec, u0, _coupled_forcing(forcing_1, forcing_2, M), weights,
                reduce_step, newton)

    # the first path, then its first step, wins a tie
    worst_path, worst_step = divmod(int(np.argmax(energies)), N + 1)
    first_pair = tuple(Trajectory(grid, tg, pair[side:side + 1], log.newton_iters,
                                  log.max_newton_residual) for side in (0, 1))
    return ComparisonReport(
        times=tg.times(),
        max_energy=energies.max(axis=0),
        mean_energy=energies.sum(axis=0) / M,
        n_paths=M,
        worst_path=worst_path,
        worst_step=worst_step,
        worst_energy=float(energies[worst_path, worst_step]),
        tol=tol,
        first_pair=first_pair,
    )
