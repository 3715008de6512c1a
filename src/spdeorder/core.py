"""Grids and norms shared by all modules.

The discrete state space is the set of values on interior nodes of a
uniform 1D grid with homogeneous Dirichlet boundary values (implicit
ghost zeros), or a single scalar in ODE mode.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

PDE_1D = "pde_1d"
ODE = "ode"


@dataclass(frozen=True)
class Grid:
    """Uniform grid on (0, L) with n_interior interior nodes, or a 0D grid."""

    mode: str = PDE_1D
    n_interior: int = 64
    length: float = 1.0

    def __post_init__(self):
        if self.mode not in (PDE_1D, ODE):
            raise ValueError(f"unknown grid mode {self.mode!r}")
        if self.mode == ODE:
            if self.n_interior != 1:
                raise ValueError("ode mode requires n_interior = 1")
        else:
            if self.n_interior < 2:
                raise ValueError("pde_1d mode requires n_interior >= 2")
            if not self.length > 0:
                raise ValueError("domain length must be positive")

    @property
    def dx(self) -> float:
        # Unit weight in ODE mode so that norms reduce to absolute values.
        if self.mode == ODE:
            return 1.0
        return self.length / (self.n_interior + 1)

    @property
    def x(self) -> np.ndarray:
        """Interior node coordinates."""
        if self.mode == ODE:
            return np.zeros(1)
        return self.dx * np.arange(1, self.n_interior + 1)

    @classmethod
    def ode(cls) -> "Grid":
        return cls(mode=ODE, n_interior=1, length=1.0)


def _sine_datum(grid: Grid, amplitude: float) -> np.ndarray:
    if grid.mode == ODE:  # the amplitude itself
        return np.array([amplitude])
    return amplitude * np.sin(np.pi * grid.x / grid.length)


# each initial-datum kind: (grid, amplitude) -> its (n,) datum on grid
U0_KINDS = {
    "zero": lambda grid, amplitude: np.zeros(grid.n_interior),
    "sine": _sine_datum,
    "constant": lambda grid, amplitude: np.full(grid.n_interior, amplitude),
}


@dataclass(frozen=True)
class TimeGrid:
    """Uniform partition of [0, T] into n_steps steps."""

    T: float
    n_steps: int

    def __post_init__(self):
        if not self.T > 0:
            raise ValueError("final time must be positive")
        if self.n_steps < 1:
            raise ValueError("need at least one time step")

    @property
    def dt(self) -> float:
        return self.T / self.n_steps

    def times(self) -> np.ndarray:
        return self.dt * np.arange(self.n_steps + 1)


def h_norm_values(values: np.ndarray, dx: float):
    """dx-weighted Euclidean norm, the discrete L2 norm, along the last axis.

    np.vecdot takes one vector dot product per row (the same as np.dot on
    that row alone), so a row's norm never depends on the rows beside it.
    """
    return np.sqrt(np.vecdot(values, values) * dx)
