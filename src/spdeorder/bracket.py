"""Extremal sub/supersolution brackets and the monotone fixed-point
iteration.

The bracket trajectories solve the auxiliary problems with the Lipschitz
forcing -C_B(1+u) (lower) and +C_B(1+u) (upper).  The candidate map S
sends a trajectory to the solution of the frozen-drift problem with the
drift evaluated along it; iterating S from a bracket produces a monotone
sequence whose limit approximates the minimal or maximal solution.  The
iteration is pathwise: each sweep is deterministic for a fixed noise path.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .noise import NoisePath, sample_noise_path
from .operators import eval_b_values
from .solver import (
    Forcing,
    NewtonParams,
    ProblemSpec,
    Trajectory,
    solve_frozen,
    sup_h_distance,
)

MIN_SIDE = "min"
MAX_SIDE = "max"


def _side_sign(side: str) -> float:
    if side == MIN_SIDE:
        return -1.0
    if side == MAX_SIDE:
        return 1.0
    raise ValueError(f"side must be '{MIN_SIDE}' or '{MAX_SIDE}'")


def extremal_forcing(side: str, C_B: float) -> Forcing:
    """State-dependent Lipschitz forcing -C_B(1+u) / +C_B(1+u)."""
    sign = _side_sign(side)

    def forcing(n, t, u):
        return sign * C_B * (1.0 + u)

    return forcing


def build_extremal(
    spec: ProblemSpec,
    side: str,
    noise_path: Optional[NoisePath] = None,
    newton: NewtonParams = NewtonParams(),
) -> Trajectory:
    """Solve the auxiliary bracket problem for the requested side."""
    return solve_frozen(spec, extremal_forcing(side, spec.drift.C_B), noise_path, newton)


def apply_S(
    spec: ProblemSpec,
    u_tilde: Trajectory,
    noise_path: Optional[NoisePath] = None,
    newton: NewtonParams = NewtonParams(),
) -> Trajectory:
    """Candidate map: solve the frozen problem with the drift evaluated
    along u_tilde (sampled at the right endpoint of each step, see the
    Forcing contract in the solver module)."""

    def forcing(n, t, u):
        return eval_b_values(spec.drift, u_tilde.values[:, n + 1])

    return solve_frozen(spec, forcing, noise_path, newton)


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


def iterate_bracket(
    spec: ProblemSpec,
    side: str,
    extremals: tuple[Trajectory, Trajectory],
    noise_path: Optional[NoisePath] = None,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> BracketResult:
    """Monotone sweep u <- S(u) from the requested bracket of the
    (lower, upper) extremals.

    Stops when sup_t ||S(u) - u||_H <= tol_fixed or max_outer is reached.
    Min-side iterates are expected nondecreasing in the sweep index (max side
    mirrored); per-sweep violations and bracket-containment defects are
    logged, never silently accepted.
    """
    if not tol_fixed > 0:
        raise ValueError("tol_fixed must be positive")
    if max_outer < 1:
        raise ValueError("max_outer must be at least 1")
    sign = _side_sign(side)
    lower, upper = extremals
    start = lower if side == MIN_SIDE else upper
    current = start
    residuals = []
    mono = []
    containment = []
    converged = False
    sweeps = 0
    for _ in range(max_outer):
        nxt = apply_S(spec, current, noise_path, newton)
        sweeps += 1
        residual = sup_h_distance(nxt, current)
        # min side expects nxt >= current pointwise, max side the reverse
        violation = float(np.max(sign * (nxt.values - current.values)))
        below = float(np.max(lower.values - nxt.values))
        above = float(np.max(nxt.values - upper.values))
        residuals.append(residual)
        mono.append(max(violation, 0.0))
        containment.append(max(below, above, 0.0))
        current = nxt
        if residual <= tol_fixed:
            converged = True
            break
    return BracketResult(
        side=side,
        extremal_start=start,
        residual_history=tuple(residuals),
        monotonicity_violations=tuple(mono),
        containment_violations=tuple(containment),
        converged=converged,
        final=current,
        n_sweeps=sweeps,
        mono_tol=mono_tol,
    )


@dataclass(frozen=True)
class IntervalReport:
    passed: bool
    max_lower_violation: float
    max_upper_violation: float
    witness: tuple  # (step, node) of the worst violation

    def to_text(self) -> str:
        return (
            f"passed = {str(self.passed).lower()}\n"
            f"max_lower_violation = {self.max_lower_violation!r}\n"
            f"max_upper_violation = {self.max_upper_violation!r}\n"
            f"witness_step = {self.witness[0]}\n"
            f"witness_node = {self.witness[1]}\n"
        )


def verify_interval(
    u: Trajectory, lower: Trajectory, upper: Trajectory, tol: float = 1e-8
) -> IntervalReport:
    """Per-time order checks lower <= u <= upper with worst-violation witness
    (step, node)."""
    below = lower.values - u.values
    above = u.values - upper.values
    max_below = float(np.max(below))
    max_above = float(np.max(above))
    if max_below >= max_above:
        flat = int(np.argmax(below))
    else:
        flat = int(np.argmax(above))
    witness = tuple(int(i) for i in np.unravel_index(flat, below.shape)[1:])
    passed = max_below <= tol and max_above <= tol
    return IntervalReport(passed, max_below, max_above, witness)


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


def bracket_pair(
    spec: ProblemSpec,
    master_seed: int,
    path_index: int = 0,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> BracketPair:
    """Both extremals on one noise path, then both one-sided iterations from
    them; each side keeps its extremal as `extremal_start`."""
    path = sample_noise_path(master_seed, path_index, spec.noise.K, spec.time_grid)
    extremals = (build_extremal(spec, MIN_SIDE, path, newton),
                 build_extremal(spec, MAX_SIDE, path, newton))
    kwargs = dict(extremals=extremals, noise_path=path, tol_fixed=tol_fixed,
                  max_outer=max_outer, mono_tol=mono_tol, newton=newton)
    return BracketPair(
        path_index=path_index,
        minimal=iterate_bracket(spec, MIN_SIDE, **kwargs),
        maximal=iterate_bracket(spec, MAX_SIDE, **kwargs),
    )


def bracket_study(
    spec: ProblemSpec,
    M: int,
    master_seed: int,
    tol_fixed: float = 1e-6,
    max_outer: int = 60,
    mono_tol: float = 1e-10,
    newton: NewtonParams = NewtonParams(),
) -> list[BracketPair]:
    """Run both one-sided iterations on M independent noise paths."""
    if M < 1:
        raise ValueError("need at least one path")
    return [bracket_pair(spec, master_seed, m, tol_fixed, max_outer, mono_tol, newton)
            for m in range(M)]
