"""Reproducible truncated cylindrical-Wiener increments.

Increments are produced by a counter-based construction: the Philox block
cipher keyed on (master_seed, path_index), with the 256-bit counter set to
the flat increment index k * n_steps + n.  Each block yields the Gaussian
increment for one (mode, step) pair via Box-Muller on the first two words,
so any single increment is addressable without generating predecessors and
the whole array is bit-reproducible regardless of evaluation order.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import TimeGrid

_U64 = np.uint64
_INV_2_53 = 2.0**-53


def _normals_from_blocks(words: np.ndarray) -> np.ndarray:
    """Standard normals, one per 4-word Philox block (shape (..., 4))."""
    # (w >> 11) has 53 random bits; +1 keeps u1 in (0, 1] so log is finite
    u1 = ((words[..., 0] >> _U64(11)).astype(np.float64) + 1.0) * _INV_2_53
    u2 = (words[..., 1] >> _U64(11)).astype(np.float64) * _INV_2_53
    return np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)


@dataclass(frozen=True)
class NoisePath:
    """Per-(mode, step) Gaussian increments with variance dt."""

    increments: np.ndarray  # shape (K, n_steps)
    dt: float
    master_seed: int
    path_index: int

    def __post_init__(self):
        arr = np.asarray(self.increments, dtype=float)
        if arr.ndim != 2:
            raise ValueError("increments must be a (K, n_steps) array")
        arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "increments", arr)

    @property
    def K(self) -> int:
        return self.increments.shape[0]


def sample_noise_path(
    master_seed: int, path_index: int, K: int, time_grid: TimeGrid
) -> NoisePath:
    """Deterministic pure function of (master_seed, path_index, K, n_steps, dt)."""
    if K < 0:
        raise ValueError("K must be nonnegative")
    n_steps = time_grid.n_steps
    dt = time_grid.dt
    if K == 0:
        return NoisePath(np.zeros((0, n_steps)), dt, master_seed, path_index)
    bg = np.random.Philox(key=[_U64(master_seed), _U64(path_index)],
                          counter=[0, 0, 0, 0])
    words = bg.random_raw(4 * K * n_steps).reshape(K, n_steps, 4)
    increments = _normals_from_blocks(words) * np.sqrt(dt)
    return NoisePath(increments, dt, master_seed, path_index)


def increment_at(
    master_seed: int, path_index: int, k: int, n: int, time_grid: TimeGrid
) -> float:
    """Single increment, generated directly from its counter block."""
    if not 0 <= n < time_grid.n_steps:
        raise IndexError("step index out of range")
    block = k * time_grid.n_steps + n
    bg = np.random.Philox(key=[_U64(master_seed), _U64(path_index)],
                          counter=[block, 0, 0, 0])
    words = bg.random_raw(4).reshape(4)
    return float(_normals_from_blocks(words) * np.sqrt(time_grid.dt))
