"""Concrete monotone spatial operator, drift/reaction/noise nonlinearities,
and the smooth positive-part regularizer, with runtime-checkable descriptors.

The spatial operator is the 1D p-Laplacian flux difference with Dirichlet
ghost zeros.  Drift b is nondecreasing (possibly discontinuous), the
reaction f is Lipschitz, and the noise acts mode-wise through scalar
functions g_k.  Each of the three roles has one table of kinds
(DRIFT_KINDS, REACTION_KINDS, NOISE_KINDS) that evaluation, config
validation and the scenario builders all read.  The pointwise hypotheses
are written once: spec construction raises a SpecError when one fails, and
`check_assumptions` reports them (plus the operator inequalities) instead
of raising.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from .core import Grid, ODE

JUMP_SIDES = ("lower", "mid", "upper")  # which value a heaviside drift takes at s0

# dense sample grid on which the pointwise hypotheses are verified
_SAMPLES = np.linspace(-50.0, 50.0, 20001)
_SAMPLES.flags.writeable = False


# ---------------------------------------------------------------------------
# spatial operator


@dataclass(frozen=True)
class SpatialOpSpec:
    """Power-law flux a(D) = alpha |D|^(p-2) D.

    reg_delta smooths |D|^(p-2) only inside Newton's linearization, never in
    the residual, so flat gradients cannot make the Jacobian singular.
    """

    p: float = 2.0
    alpha: float = 1.0
    reg_delta: float = 1e-12

    def __post_init__(self):
        if self.p < 2:
            raise ValueError("growth exponent p must be >= 2")
        if not self.alpha > 0:
            raise ValueError("alpha must be positive")
        if self.reg_delta < 0:
            raise ValueError("reg_delta must be nonnegative")


def _zero_fill(out: np.ndarray) -> np.ndarray:
    out.fill(0.0)
    return out


# The kernels below work on ghost-padded stacks: C-contiguous (..., n + 1)
# arrays whose last column is the Dirichlet ghost u_n = 0.0, so that the
# rows of a stack follow each other in memory as
# u_0 ... u_{n-1} 0.0 u_0 ... u_{n-1} 0.0.  Every shift along the nodes is
# then one contiguous 1-D slice of the flat stack, and the ghost of each
# row is the u_{-1} = 0.0 of the next.  What would cross from one row into
# the next lands in a ghost column, which each kernel sets itself.


def ghost_padded(values: np.ndarray) -> np.ndarray:
    """A new ghost-padded stack of the (..., n) values: their rows, each
    followed by the Dirichlet ghost 0.0."""
    out = np.zeros(values.shape[:-1] + (values.shape[-1] + 1,))
    out[..., :-1] = values
    return out


def interface_gradients(values: np.ndarray, dx: float,
                        out: Optional[np.ndarray] = None) -> np.ndarray:
    """Differences across the n+1 cell interfaces of each row of the
    ghost-padded stack values, with ghost zeros at both ends.  out, when
    given, is a (..., n+1) array that takes them."""
    if out is None:
        out = np.empty(values.shape)
    # u_i - u_{i-1}: across a row's end the ghost 0.0 of the row before (the
    # first difference is u_0 - 0.0, which is u_0 bit for bit, so the very
    # first is copied), and the last difference of a row is 0.0 - u_{n-1}
    u, d = values.reshape(-1), out.reshape(-1)
    d[0] = u[0]
    np.subtract(u[1:], u[:-1], out=d[1:])
    out /= dx
    return out


def apply_A_values(spec: SpatialOpSpec, values: np.ndarray, grid: Grid,
                   D: Optional[np.ndarray] = None,
                   out: Optional[np.ndarray] = None) -> np.ndarray:
    """Discrete -div(a(grad u)) with homogeneous Dirichlet values on each
    row of the ghost-padded stack values (leading axes are paths), as a
    ghost-padded stack: its ghost column is 0.0.  D, when given, is
    interface_gradients(values, grid.dx).  out, when given, takes the
    values, and the interface fluxes before them."""
    if grid.mode == ODE:
        return np.zeros_like(values) if out is None else _zero_fill(out)
    dx = grid.dx
    if D is None:
        D = interface_gradients(values, dx)
    # alpha |D|^(p-2) D, in the order of that product; a power or a factor
    # of exactly 1.0 changes no bit, so it is skipped, and at p = 2 |D|^0
    # is 1.0 for every D, so the flux is D alpha
    if spec.p == 2.0:
        flux = np.multiply(D, spec.alpha, out=out)
    else:
        flux = np.abs(D, out=out)
        if spec.p - 2.0 != 1.0:
            flux **= spec.p - 2.0
        if spec.alpha != 1.0:
            flux *= spec.alpha
        flux *= D
    # (flux_{i+1} - flux_i) / -dx in place: each difference reads its
    # fluxes before it is written.  At a ghost it would take the next row's
    # first flux, so the ghosts are set to 0.0 instead
    F = flux.reshape(-1)
    np.subtract(F[1:], F[:-1], out=F[:-1])
    np.divide(F[:-1], -dx, out=F[:-1])
    flux[..., -1] = 0.0
    return flux


def jacobian_bands(
    spec: SpatialOpSpec, values: np.ndarray, grid: Grid, D: Optional[np.ndarray] = None,
    out: Optional[tuple] = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Bands (off, diag) of the symmetric tridiagonal linearized operator
    on each row of the ghost-padded stack values, both of its shape.  The
    ghost is an unknown of its own that the operator does not couple:
    off[..., i] couples node i to node i+1 for i < n-1, off[..., n-1]
    (node n-1 to the ghost) and off[..., n] (the ghost to the next row's
    node 0) are 0.0, and so is the ghost's diag.  D, when given, is
    interface_gradients(values, grid.dx).  out, when given, is the pair
    (off, diag) of arrays that take the bands, diag the interface weights
    before them.

    Uses the regularized flux derivative (D^2 + reg_delta)^((p-2)/2).
    """
    if grid.mode == ODE:
        if out is not None:
            return tuple(map(_zero_fill, out))
        return np.zeros(values.shape), np.zeros(values.shape)
    dx = grid.dx
    if D is None:
        D = interface_gradients(values, dx)
    off, diag = (np.empty(values.shape), None) if out is None else out
    # alpha (p-1) (D^2 + reg_delta)^((p-2)/2) / dx^2, in the order of that product
    w = np.multiply(D, D, out=diag)
    w += spec.reg_delta
    w **= (spec.p - 2.0) / 2.0
    w *= spec.alpha * (spec.p - 1.0)
    w /= dx * dx
    # -w_{i+1} couples node i to i+1, and node i sits between w_i and
    # w_{i+1}: in place, each sum reads its weights before it is written
    wf, of = w.reshape(-1), off.reshape(-1)
    np.negative(wf[1:], out=of[:-1])
    np.add(wf[:-1], wf[1:], out=wf[:-1])
    off[..., -2:] = 0.0
    w[..., -1] = 0.0
    return off, w


# ---------------------------------------------------------------------------
# pointwise nonlinearities: one table of kinds per role


class SpecError(ValueError):
    """A spec value is invalid; `key` names the field as its config key."""

    def __init__(self, key: str, message: str):
        super().__init__(message)
        self.key = key


class Kind(NamedTuple):
    """One entry of a drift or reaction table.

    fn(spec, r) evaluates the nonlinearity on an array; params are the spec
    fields it reads, which are also its config keys; default(spec) is the
    declared constant (C_B or C_F) that a spec built with None gets.  A
    drift kind's range(spec) is (inf b, sup b) over the real line, each end
    a float, infinite where b is unbounded on that side.
    """

    fn: Callable
    params: tuple
    default: Callable
    range: Optional[Callable] = None


def _zero(spec, r):
    return np.zeros_like(r)


def _scaled_tanh(spec, r):
    return spec.scale * np.tanh(r)


def _abs_or_tiny(x: float) -> float:
    return abs(x) if x else 1e-12


def _heaviside(spec, r):
    jump = {"lower": spec.low, "mid": 0.5 * (spec.low + spec.high), "upper": spec.high}
    # index 2 above s0, 1 below it, 0 at s0 (or NaN): the jump value
    index = np.greater(r, spec.s0).view(np.int8)
    index += index
    index += np.less(r, spec.s0).view(np.int8)
    return np.array((jump[spec.jump_side], spec.low, spec.high)).take(index)


def _piecewise_linear(spec, r):
    # constant extension beyond the end knots keeps the function
    # nondecreasing and bounded
    rs = np.array([k[0] for k in spec.knots])
    vs = np.array([k[1] for k in spec.knots])
    return np.interp(r, rs, vs)


DRIFT_KINDS = {
    "zero": Kind(_zero, (), lambda s: 1.0, lambda s: (0.0, 0.0)),
    "sqrt_plus": Kind(lambda s, r: np.sqrt(np.maximum(r, 0.0)), (), lambda s: 1.0,
                      lambda s: (0.0, np.inf)),
    "heaviside": Kind(_heaviside, ("s0", "low", "high", "jump_side"),
                      lambda s: max(abs(s.low), abs(s.high), 1e-12),
                      lambda s: (float(s.low), float(s.high))),
    "lipschitz_tanh": Kind(_scaled_tanh, ("scale",), lambda s: _abs_or_tiny(s.scale),
                           lambda s: (-abs(float(s.scale)), abs(float(s.scale)))),
    "piecewise_linear": Kind(_piecewise_linear, ("knots",),
                             lambda s: max(abs(v) for _, v in s.knots) + 1.0,
                             lambda s: (s.knots[0][1], s.knots[-1][1])),
}

REACTION_KINDS = {
    "zero": Kind(_zero, (), lambda s: 1e-12),
    "linear": Kind(lambda s, r: s.slope * r + s.offset, ("slope", "offset"),
                   lambda s: _abs_or_tiny(s.slope)),
    "lipschitz_tanh": Kind(_scaled_tanh, ("scale",), lambda s: _abs_or_tiny(s.scale)),
}

# noise kinds are shapes only: the mode coefficients carry the scale and C_G
NOISE_KINDS = {
    "linear": lambda r: r,
    "lipschitz_tanh": np.tanh,
}


@dataclass(frozen=True)
class DriftSpec:
    """Nondecreasing scalar drift b, applied pointwise (Nemytskii)."""

    kind: str
    C_B: Optional[float] = None
    s0: float = 0.0
    low: float = 0.0
    high: float = 1.0
    scale: float = 1.0
    knots: tuple = ()
    jump_side: str = "lower"

    def __post_init__(self):
        if self.kind not in DRIFT_KINDS:
            raise SpecError("drift.kind", f"unknown drift kind {self.kind!r}")
        if self.jump_side not in JUMP_SIDES:
            raise SpecError("drift.jump_side", f"jump_side not in {JUMP_SIDES}")
        if self.kind == "heaviside" and self.low > self.high:
            raise SpecError("drift.high", "heaviside requires low <= high")
        if self.kind == "piecewise_linear":
            knots = tuple((float(r), float(v)) for r, v in self.knots)
            if len(knots) < 2:
                raise SpecError("drift.knots", "piecewise_linear needs >= 2 knots")
            rs = [r for r, _ in knots]
            vs = [v for _, v in knots]
            if any(r2 <= r1 for r1, r2 in zip(rs, rs[1:])):
                raise SpecError("drift.knots", "knot abscissae must increase strictly")
            if any(v2 < v1 for v1, v2 in zip(vs, vs[1:])):
                raise SpecError("drift.knots", "knot values must be nondecreasing")
            object.__setattr__(self, "knots", knots)
        if self.C_B is None:
            object.__setattr__(self, "C_B", DRIFT_KINDS[self.kind].default(self))
        if not self.C_B > 0:
            raise SpecError("drift.C_B", "C_B must be positive")
        nondecreasing, growth, _ = _drift_checks(self)
        _require(nondecreasing, "drift.kind")
        _require(growth, "drift.C_B")


def eval_b_values(spec: DriftSpec, r: np.ndarray) -> np.ndarray:
    return DRIFT_KINDS[spec.kind].fn(spec, np.asarray(r, dtype=float))


@dataclass(frozen=True)
class ReactionSpec:
    """Lipschitz scalar reaction f, applied pointwise."""

    kind: str = "zero"
    slope: float = 0.0
    offset: float = 0.0
    scale: float = 1.0
    C_F: Optional[float] = None

    def __post_init__(self):
        if self.kind not in REACTION_KINDS:
            raise SpecError("reaction.kind", f"unknown reaction kind {self.kind!r}")
        if self.C_F is None:
            object.__setattr__(self, "C_F", REACTION_KINDS[self.kind].default(self))
        if not self.C_F > 0:
            raise SpecError("reaction.C_F", "C_F must be positive")
        _require(_reaction_check(self), "reaction.C_F")


def eval_f_values(spec: ReactionSpec, r: np.ndarray) -> np.ndarray:
    return REACTION_KINDS[spec.kind].fn(spec, np.asarray(r, dtype=float))


@dataclass(frozen=True)
class NoiseSpec:
    """Mode-wise multiplicative noise G(u)e_k = g_k(u), truncated to K modes."""

    K: int = 0
    coeffs: tuple = ()
    pointwise_kind: str = "linear"
    C_G: float = 1e-12

    def __post_init__(self):
        if self.K < 0:
            raise SpecError("noise.K", "mode count K must be nonnegative")
        coeffs = tuple(float(c) for c in self.coeffs)
        if len(coeffs) != self.K:
            raise SpecError("noise.K", "need exactly one coefficient per retained mode")
        object.__setattr__(self, "coeffs", coeffs)
        if self.pointwise_kind not in NOISE_KINDS:
            raise SpecError("noise.kind", f"unknown noise kind {self.pointwise_kind!r}")
        if not self.C_G > 0:
            raise SpecError("noise.C_G", "C_G must be positive")
        _require(_noise_check(self), "noise.C_G")

    @classmethod
    def geometric(cls, K: int, gamma: float = 0.5, pointwise_kind: str = "linear",
                  C_G: Optional[float] = None) -> "NoiseSpec":
        """Default coefficient ladder c_k = gamma * 2^(-k/2)."""
        coeffs = tuple(gamma * 2.0 ** (-0.5 * k) for k in range(K))
        if C_G is None:
            C_G = float(np.sqrt(sum(c * c for c in coeffs))) if K else 1e-12
        return cls(K=K, coeffs=coeffs, pointwise_kind=pointwise_kind, C_G=C_G)

    @property
    def coeff_array(self) -> np.ndarray:
        return np.array(self.coeffs, dtype=float)


def eval_g_values(spec: NoiseSpec, k: int, r: np.ndarray) -> np.ndarray:
    if not 0 <= k < spec.K:
        raise IndexError(f"mode index {k} out of range for K = {spec.K}")
    return spec.coeffs[k] * NOISE_KINDS[spec.pointwise_kind](np.asarray(r, dtype=float))


def noise_weights(spec: NoiseSpec, increments: np.ndarray) -> np.ndarray:
    """The (n_steps,) weights W_n = sum_k c_k dW_k^n of one noise path's
    (K, n_steps) increments: every mode has the same shape, so the noise
    term of step n is W_n times shape(u).  One dot product per step."""
    return np.vecdot(increments.T, spec.coeff_array)


def noise_term_values(spec: NoiseSpec, r: np.ndarray, weight: np.ndarray) -> np.ndarray:
    """sum_k g_k(r) dW_k = weight * shape(r), vectorized over nodes; r is
    (..., n) and weight (...), one noise weight per path."""
    if spec.K == 0:
        return np.zeros_like(r)
    return weight[..., None] * NOISE_KINDS[spec.pointwise_kind](r)


# ---------------------------------------------------------------------------
# smooth positive-part regularizer


def _sigma_dispatch(r, eps, above, inside, below=0.0):
    if not eps > 0:
        raise ValueError("eps must be positive")
    arr = np.asarray(r, dtype=float)
    s = arr / eps
    out = np.where(arr > eps, above(arr, s), np.where(arr > 0.0, inside(arr, s), below))
    if np.ndim(r) == 0:
        return float(out)
    return out


def sigma_eps(r, eps: float):
    """C^2 approximation of the positive part: quintic gluing on (0, eps]."""
    return _sigma_dispatch(
        r, eps,
        above=lambda arr, s: arr,
        inside=lambda arr, s: eps * s**3 * (3.0 * s * s - 8.0 * s + 6.0),
    )


def sigma_eps_prime(r, eps: float):
    return _sigma_dispatch(
        r, eps,
        above=lambda arr, s: np.ones_like(arr),
        inside=lambda arr, s: s * s * (15.0 * s * s - 32.0 * s + 18.0),
    )


def sigma_eps_second(r, eps: float):
    return _sigma_dispatch(
        r, eps,
        above=lambda arr, s: np.zeros_like(arr),
        inside=lambda arr, s: s * (60.0 * s * s - 96.0 * s + 36.0) / eps,
    )


def sigma_hat(r, eps: float):
    """Primitive of sigma_eps with sigma_hat(0) = 0, in closed form."""
    return _sigma_dispatch(
        r, eps,
        above=lambda arr, s: 0.5 * arr * arr - 0.1 * eps * eps,
        inside=lambda arr, s: eps * eps * s**4 * (0.5 * s * s - 1.6 * s + 1.5),
    )


def Sigma_functional_values(values: np.ndarray, eps: float, dx: float):
    """Integral of sigma_hat over the domain (dx-weighted sum) along the
    last axis."""
    return np.sum(sigma_hat(values, eps), axis=-1) * dx


# ---------------------------------------------------------------------------
# assumption checking


@dataclass(frozen=True)
class AssumptionCheck:
    name: str
    passed: bool
    required: bool
    detail: str


@dataclass(frozen=True)
class AssumptionReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks if c.required)

    def to_text(self) -> str:
        lines = ["assumption checks"]
        for c in self.checks:
            status = "pass" if c.passed else "fail"
            tag = "" if c.required else " (informational)"
            lines.append(f"  {c.name}: {status}{tag} -- {c.detail}")
        lines.append(f"overall: {'pass' if self.passed else 'fail'}")
        return "\n".join(lines) + "\n"


def _require(check: AssumptionCheck, key: str) -> None:
    if not check.passed:
        raise SpecError(key, f"{check.name} fails: {check.detail}")


def _drift_checks(drift: DriftSpec) -> tuple:
    """Nondecreasing, linear growth, and the informational Lipschitz entry
    (discontinuous drifts are expected to fail it)."""
    r = _SAMPLES
    dr = r[1] - r[0]
    bv = eval_b_values(drift, r)
    worst_mono = float(np.min(np.diff(bv)))
    growth_gap = float(np.max(np.abs(bv) - drift.C_B * (1.0 + np.abs(r))))
    lip = float(np.max(np.abs(np.diff(bv)) / dr))
    return (
        AssumptionCheck("drift_nondecreasing", worst_mono >= 0.0, True,
                        f"min consecutive increment {worst_mono:.3e}"),
        AssumptionCheck("drift_linear_growth", growth_gap <= 1e-12, True,
                        f"max |b(r)| - C_B(1+|r|) = {growth_gap:.3e}"),
        AssumptionCheck("drift_lipschitz", lip <= drift.C_B / dr * 1e-3, False,
                        f"max difference quotient {lip:.3e} on spacing {dr:.3e}"),
    )


def _reaction_check(reaction: ReactionSpec) -> AssumptionCheck:
    r = _SAMPLES
    dr = r[1] - r[0]
    f_lip = float(np.max(np.abs(np.diff(eval_f_values(reaction, r))) / dr))
    return AssumptionCheck(
        "reaction_lipschitz", f_lip <= reaction.C_F * (1.0 + 1e-9) + 1e-12, True,
        f"max difference quotient {f_lip:.3e} vs C_F = {reaction.C_F:.3e}")


def _noise_check(noise: NoiseSpec) -> AssumptionCheck:
    csum = float(np.sum(noise.coeff_array**2))
    return AssumptionCheck(
        "noise_mode_summability", csum <= noise.C_G**2 * (1.0 + 1e-12), True,
        f"sum c_k^2 = {csum:.6e} vs C_G^2 = {noise.C_G**2:.6e}")


# the values of each random function check_assumptions draws at a time
_PAIR_CHUNK_VALUES = 2**16


def check_assumptions(
    spatial: SpatialOpSpec,
    drift: DriftSpec,
    reaction: ReactionSpec,
    noise: NoiseSpec,
    grid: Optional[Grid] = None,
    n_pairs: int = 200,
    seed: int = 0,
) -> AssumptionReport:
    """Numerically verify the structural assumptions on random samples.

    Failures are reported, never raised; the drift Lipschitz entry is
    informational only (discontinuous drifts are expected to fail it).
    """
    if grid is None:
        grid = Grid(n_interior=64)
    rng = np.random.default_rng(seed)
    checks = [*_drift_checks(drift), _reaction_check(reaction), _noise_check(noise)]
    if grid.mode == ODE:
        checks.append(AssumptionCheck(
            "operator_nulled_in_ode_mode", True, True,
            "spatial operator is identically zero"))
    else:
        dx = grid.dx
        sigmas = {
            "identity": lambda w: w,
            "positive_part": lambda w: np.maximum(w, 0.0),
            "sigma_eps": lambda w: sigma_eps(w, 1e-3),
        }
        # pair i is (phi[i], psi[i]), drawn in that order, a chunk of about
        # 2**16 values of each at a time, so the memory does not grow with
        # n_pairs.  Each pair's defects are its own, and each chunk's worst
        # starts from the worst so far; np.max and np.min propagate NaN, so
        # a non-finite defect fails its check
        worst_coerc, worst_tmono = 0.0, dict.fromkeys(sigmas, 0.0)
        chunk = max(1, _PAIR_CHUNK_VALUES // grid.n_interior)
        for first in range(0, n_pairs, chunk):
            pairs = min(chunk, n_pairs - first)
            phi, psi = np.moveaxis(rng.standard_normal((pairs, 2, grid.n_interior)), 1, 0)
            phi_padded = ghost_padded(phi)
            Aphi = apply_A_values(spatial, phi_padded, grid)[:, :-1]
            lhs = np.vecdot(Aphi, phi) * dx
            rhs = spatial.alpha * np.sum(
                np.abs(interface_gradients(phi_padded, dx)) ** spatial.p, axis=-1) * dx
            coerc = np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)
            worst_coerc = float(np.max(coerc, initial=worst_coerc))
            dA = Aphi - apply_A_values(spatial, ghost_padded(psi), grid)[:, :-1]
            for name, sig in sigmas.items():
                sv = sig(phi - psi)
                scale = np.sum(np.abs(dA * sv), axis=-1) * dx + 1.0
                worst_tmono[name] = float(np.min(np.vecdot(dA, sv) * dx / scale,
                                                 initial=worst_tmono[name]))
        checks.append(AssumptionCheck(
            "operator_coercivity_identity", worst_coerc <= 1e-12, True,
            f"max relative defect of <A(u),u> = alpha*sum|D|^p*dx: {worst_coerc:.3e}"))
        for name, worst in worst_tmono.items():
            checks.append(AssumptionCheck(
                f"operator_T_monotonicity_{name}", worst >= -1e-14, True,
                f"min normalized pairing {worst:.3e} over {n_pairs} random pairs"))

    return AssumptionReport(tuple(checks))
