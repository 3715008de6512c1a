"""Pathwise-coupled runs for the comparison principle, with positive-part
energy diagnostics and the smooth-regularizer energy trace.

Two problems that share every component except initial datum and frozen
drift are driven by the same noise path; ordered data must yield ordered
trajectories, quantified through the energy ||(u_1 - u_2)^+||_H^2.
"""
from __future__ import annotations

import csv
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from .noise import NoisePath, sample_noise_path
from .operators import Sigma_functional_values
from .solver import Forcing, NewtonParams, ProblemSpec, Trajectory, solve_frozen


# byte budget for the stored states of one coupled batch, both sides.  Peak
# RSS grows by about 1.7 times the budget: at 2 MiB (8 paths of 64 nodes and
# 250 steps) a 100-path heat comparison peaked 5.7% above one path at a time.
CHUNK_BYTES = 1280 * 1024


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
    noise_paths: Union[NoisePath, Sequence[NoisePath], None],
    forcing_1: Optional[Forcing] = None,
    forcing_2: Optional[Forcing] = None,
    newton: NewtonParams = NewtonParams(),
) -> tuple[Trajectory, Trajectory]:
    """Solve both frozen problems on the same noise paths, one batch each."""
    _check_coupled_specs(spec_1, spec_2)
    traj_1 = solve_frozen(spec_1, forcing_1, noise_paths, newton)
    traj_2 = solve_frozen(spec_2, forcing_2, noise_paths, newton)
    return traj_1, traj_2


def _energy_series(values_1: np.ndarray, values_2: np.ndarray, dx: float) -> np.ndarray:
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


def chunk_paths(spec: ProblemSpec) -> int:
    """Paths per coupled batch: the most whose stored states, both sides,
    2·paths·(N+1)·n·8 bytes, fit in CHUNK_BYTES (at least one)."""
    per_path = 2 * (spec.time_grid.n_steps + 1) * spec.grid.n_interior * 8
    return max(1, CHUNK_BYTES // per_path)


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
    """Monte Carlo estimate of the comparison defect over M coupled paths.

    The paths are solved in batches of chunk_paths(spec_1), and their
    energies are reduced one path at a time in path-index order, so the
    report does not depend on the batch size.
    """
    if M < 1:
        raise ValueError("need at least one path")
    _check_coupled_specs(spec_1, spec_2)
    K = spec_1.noise.K
    tg = spec_1.time_grid
    chunk = chunk_paths(spec_1)

    max_energy = np.zeros(tg.n_steps + 1)
    total_energy = np.zeros(tg.n_steps + 1)
    worst_path, worst_step, worst_energy = 0, 0, -np.inf
    for start in range(0, M, chunk):
        paths = [sample_noise_path(master_seed, m, K, tg)
                 for m in range(start, min(start + chunk, M))]
        traj_1, traj_2 = run_coupled(spec_1, spec_2, paths, forcing_1, forcing_2, newton)
        if start == 0:
            first_pair = (traj_1.path(0), traj_2.path(0))
        for m, (values_1, values_2) in enumerate(zip(traj_1.values, traj_2.values),
                                                 start):
            energy = _energy_series(values_1, values_2, spec_1.grid.dx)
            np.maximum(max_energy, energy, out=max_energy)
            total_energy += energy
            step = int(np.argmax(energy))
            if energy[step] > worst_energy:  # the first path wins a tie
                worst_path, worst_step, worst_energy = m, step, energy[step]
        del traj_1, traj_2  # free this batch before the next one is solved
    return ComparisonReport(
        times=tg.times(),
        max_energy=max_energy,
        mean_energy=total_energy / M,
        n_paths=M,
        worst_path=worst_path,
        worst_step=worst_step,
        worst_energy=float(worst_energy),
        tol=tol,
        first_pair=first_pair,
    )
