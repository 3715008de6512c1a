"""Pathwise-coupled runs for the comparison principle, with positive-part
energy diagnostics and the smooth-regularizer energy trace.

Two problems that share every component except initial datum and frozen
drift are driven by the same noise path; ordered data must yield ordered
trajectories, quantified through the energy ||(u_1 - u_2)^+||_H^2.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoisePath, sample_noise_path
from .operators import sigma_hat
from .solver import Forcing, NewtonParams, ProblemSpec, Trajectory, solve_frozen


class SpecCompatibilityError(ValueError):
    """Coupled specs differ in more than initial datum and frozen drift."""


def _check_coupled_specs(spec_1: ProblemSpec, spec_2: ProblemSpec) -> None:
    for name in ("grid", "time_grid", "spatial", "reaction", "noise"):
        if getattr(spec_1, name) != getattr(spec_2, name):
            raise SpecCompatibilityError(
                f"coupled specs must share {name}; they differ")


def run_coupled(
    spec_1: ProblemSpec,
    spec_2: ProblemSpec,
    noise_path: Optional[NoisePath],
    forcing_1: Optional[Forcing] = None,
    forcing_2: Optional[Forcing] = None,
    newton: NewtonParams = NewtonParams(),
) -> tuple[Trajectory, Trajectory]:
    """Solve both frozen problems on the same noise path."""
    _check_coupled_specs(spec_1, spec_2)
    traj_1 = solve_frozen(spec_1, forcing_1, noise_path, newton)
    traj_2 = solve_frozen(spec_2, forcing_2, noise_path, newton)
    return traj_1, traj_2


def energy_series(traj_1: Trajectory, traj_2: Trajectory) -> np.ndarray:
    """Per-time positive-part energy ||(u_1 - u_2)^+||_H^2."""
    diff = np.maximum(traj_1.values - traj_2.values, 0.0)
    return np.sum(diff * diff, axis=1) * traj_1.grid.dx


def sigma_energy_trace(traj_1: Trajectory, traj_2: Trajectory, eps: float) -> np.ndarray:
    """Per-time smooth-regularizer functional of the difference."""
    if traj_1.values.shape != traj_2.values.shape:
        raise ValueError("trajectories do not match")
    diff = traj_1.values - traj_2.values
    return np.sum(sigma_hat(diff, eps), axis=1) * traj_1.grid.dx


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
    first_pair: tuple  # the coupled trajectories of path 0, for diagnostics

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


def comparison_study(
    spec_1: ProblemSpec,
    spec_2: ProblemSpec,
    M: int,
    master_seed: int,
    forcing_1: Optional[Forcing] = None,
    forcing_2: Optional[Forcing] = None,
    tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> ComparisonReport:
    """Monte Carlo estimate of the comparison defect over M coupled paths,
    reduced in path-index order."""
    if M < 1:
        raise ValueError("need at least one path")
    _check_coupled_specs(spec_1, spec_2)
    K = spec_1.noise.K
    tg = spec_1.time_grid

    def one(path_index: int) -> tuple[Trajectory, Trajectory]:
        path = sample_noise_path(master_seed, path_index, K, tg)
        return run_coupled(spec_1, spec_2, path, forcing_1, forcing_2, newton)

    first_pair = one(0)
    rest = [energy_series(*one(m)) for m in range(1, M)]
    stacked = np.stack([energy_series(*first_pair)] + rest)  # (M, n_steps + 1)
    max_energy = np.max(stacked, axis=0)
    mean_energy = np.sum(stacked, axis=0) / M
    flat = int(np.argmax(stacked))
    worst_path, worst_step = divmod(flat, stacked.shape[1])
    return ComparisonReport(
        times=tg.times(),
        max_energy=max_energy,
        mean_energy=mean_energy,
        n_paths=M,
        worst_path=worst_path,
        worst_step=worst_step,
        worst_energy=float(stacked[worst_path, worst_step]),
        tol=tol,
        first_pair=first_pair,
    )
