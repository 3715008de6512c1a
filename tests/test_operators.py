import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdeorder import (
    DriftSpec,
    Grid,
    NoiseSpec,
    ReactionSpec,
    Sigma_functional_values,
    SpatialOpSpec,
    TimeGrid,
    apply_A_values,
    check_assumptions,
    comparison_study,
    eval_b_values,
    eval_f_values,
    eval_g_values,
    sigma_eps,
    sigma_eps_prime,
    sigma_eps_second,
    sigma_hat,
    sample_noise_path,
)
from spdeorder import operators
from spdeorder.config import parse_config_text, resolve_config
from spdeorder.operators import (
    SpecError,
    ghost_padded,
    interface_gradients,
    jacobian_bands,
    noise_term_values,
    noise_weights,
)
from spdeorder.scenarios import build_problem_spec


# ---------------------------------------------------------------------------
# spatial operator


def test_apply_A_zero_field():
    spec = SpatialOpSpec(p=3.0, alpha=2.0)
    g = Grid(n_interior=10)
    assert np.all(apply_A_values(spec, ghost_padded(np.zeros(10)), g) == 0.0)


def test_apply_A_hat_function():
    # p = 2, alpha = 1, n = 3 on (0,1): second difference of (0,1,0)
    spec = SpatialOpSpec(p=2.0, alpha=1.0)
    g = Grid(n_interior=3, length=1.0)
    out = apply_A_values(spec, ghost_padded(np.array([0.0, 1.0, 0.0])), g)
    assert np.allclose(out[:-1], [-16.0, 32.0, -16.0])
    assert np.array_equal(out[-1:], [0.0])  # the ghost


@pytest.mark.parametrize("alpha", [1.0, 0.7])
def test_the_p2_flux_is_D_times_alpha_bit_for_bit(alpha):
    # |D|^0 is 1.0 for every D, -0.0 and the infinities too, so at p = 2
    # the flux alpha |D|^0 D skips abs and the power
    spec, g = SpatialOpSpec(p=2.0, alpha=alpha), Grid(n_interior=4)
    D = np.array([[-0.0, 0.0, np.inf, -np.inf, 1.5], [2.0, -np.inf, -0.0, -3.0, np.inf]])
    flux = np.abs(D)
    flux **= 0.0
    flux *= alpha
    flux *= D
    expected = np.zeros_like(D)
    expected[:, :-1] = (flux[:, 1:] - flux[:, :-1]) / -g.dx
    out = apply_A_values(spec, np.zeros_like(D), g, D)
    assert np.array_equal(out.view(np.int64), expected.view(np.int64))
    assert np.signbit(out[0, 0]) and out[0, 2] == np.inf


def test_apply_A_ode_mode_nulled():
    spec = SpatialOpSpec(p=4.0, alpha=3.0)
    out = apply_A_values(spec, ghost_padded(np.array([7.0])), Grid.ode())
    assert np.array_equal(out, [0.0, 0.0])


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_apply_A_summation_by_parts(p):
    # <A(u), u>_dx equals alpha * sum |D|^p dx (discrete coercivity identity)
    rng = np.random.default_rng(7)
    spec = SpatialOpSpec(p=p, alpha=1.7)
    g = Grid(n_interior=64)
    u = rng.standard_normal(64)
    lhs = np.dot(apply_A_values(spec, ghost_padded(u), g)[:-1], u) * g.dx
    D = interface_gradients(ghost_padded(u), g.dx)
    rhs = spec.alpha * np.sum(np.abs(D) ** p) * g.dx
    assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
def test_jacobian_bands_match_central_differences(p):
    # reg_delta = 0 and no zero interface gradient: the bands are the exact
    # derivative of apply_A_values
    spec = SpatialOpSpec(p=p, alpha=1.3, reg_delta=0.0)
    g = Grid(n_interior=8)
    u = 1.0 + g.x + 0.5 * g.x**2
    assert np.all(interface_gradients(ghost_padded(u), g.dx) != 0.0)
    h = 1e-6
    fd = np.empty((u.size, u.size))
    for j in range(u.size):
        e = np.zeros(u.size)
        e[j] = h
        fd[:, j] = (apply_A_values(spec, ghost_padded(u + e), g)
                    - apply_A_values(spec, ghost_padded(u - e), g))[:-1] / (2 * h)
    off, diag = jacobian_bands(spec, ghost_padded(u), g)
    assert off.shape == diag.shape == (u.size + 1,)
    # the ghost is not coupled: to node n-1, to the next row, nor to itself
    assert np.array_equal(off[-2:], [0.0, 0.0]) and diag[-1] == 0.0
    off, diag = off[:-2], diag[:-1]
    jac = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
    np.testing.assert_allclose(fd, jac, rtol=1e-6)
    np.testing.assert_allclose(fd, fd.T, rtol=1e-6)


def test_jacobian_bands_ode_mode_zero():
    off, diag = jacobian_bands(SpatialOpSpec(p=3.0), ghost_padded(np.array([7.0])), Grid.ode())
    assert np.array_equal(off, [0.0, 0.0]) and np.array_equal(diag, [0.0, 0.0])


@pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
def test_given_gradients_give_the_gradient_free_values(p):
    # the solver takes an iterate's gradients once and hands them to both
    spec = SpatialOpSpec(p=p, alpha=0.7)
    g = Grid(n_interior=12)
    u = np.random.default_rng(8).standard_normal((3, 12))
    u[1] = 0.0  # flat rows: zero gradients
    D = interface_gradients(ghost_padded(u), g.dx)
    u = ghost_padded(u)
    assert np.array_equal(apply_A_values(spec, u, g, D), apply_A_values(spec, u, g))
    for given_band, free_band in zip(jacobian_bands(spec, u, g, D), jacobian_bands(spec, u, g)):
        assert np.array_equal(given_band, free_band)
    # ODE mode has no gradients: the argument is ignored
    ode = Grid.ode()
    u = ghost_padded(u[:, :1])
    assert np.array_equal(apply_A_values(spec, u, ode, D), np.zeros((3, 2)))
    off, diag = jacobian_bands(spec, u, ode, D)
    assert np.array_equal(off, np.zeros((3, 2))) and np.array_equal(diag, np.zeros((3, 2)))


@pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
def test_kernels_on_a_stack_equal_them_on_each_row_alone(p):
    # the ghost of each row of a padded stack is the only thing between it
    # and the next: every kernel gives each row of the stack, at either end
    # too, bit for bit what it gives that row alone, signed zeros included,
    # and sets every ghost itself
    spec = SpatialOpSpec(p=p, alpha=0.7)
    g = Grid(n_interior=9)
    rng = np.random.default_rng(9)
    u = rng.standard_normal((6, 9))
    u[1] = -np.abs(u[1])
    u[2] = -0.0
    u[3] = np.where(np.arange(9) % 2, 0.0, -0.0)
    u[4] = -3.0
    stack = ghost_padded(u)
    bits = [interface_gradients(stack, g.dx), apply_A_values(spec, stack, g),
            *jacobian_bands(spec, stack, g)]
    for b in range(len(u)):
        row = stack[b:b + 1]
        alone = [interface_gradients(row, g.dx), apply_A_values(spec, row, g),
                 *jacobian_bands(spec, row, g)]
        for of_stack, of_row in zip(bits, alone):
            assert np.array_equal(of_stack[b:b + 1].view(np.int64), of_row.view(np.int64))
    A, off, diag = bits[1:]
    assert not A[:, -1].view(np.int64).any() and not diag[:, -1].view(np.int64).any()
    assert not off[:, -2:].view(np.int64).any()


def test_spatial_spec_validation():
    with pytest.raises(ValueError):
        SpatialOpSpec(p=1.5)
    with pytest.raises(ValueError):
        SpatialOpSpec(alpha=0.0)


def _heat_study(M):
    spec = build_problem_spec(resolve_config({"scenario": "heat_comparison", "time.T": 0.01}))
    u0 = np.zeros(spec.grid.n_interior)
    return comparison_study(spec, u0, u0, M, 1)


# (build, SpecError key or None for a plain ValueError, message) of each
# validator that no scenario reaches with a valid config
VALIDATORS = {
    "drift.kind": (lambda: DriftSpec("cubic"), "drift.kind", "unknown drift kind 'cubic'"),
    "drift.jump_side": (lambda: DriftSpec("heaviside", jump_side="left"), "drift.jump_side",
                        "jump_side not in"),
    "knot_count": (lambda: DriftSpec("piecewise_linear", knots=((0.0, 0.0),)), "drift.knots",
                   "needs >= 2 knots"),
    "knot_abscissae": (lambda: DriftSpec("piecewise_linear", knots=((0.0, 0.0), (0.0, 1.0))),
                       "drift.knots", "abscissae must increase strictly"),
    "drift.C_B": (lambda: DriftSpec("zero", C_B=0.0), "drift.C_B", "C_B must be positive"),
    "reaction.kind": (lambda: ReactionSpec("cubic"), "reaction.kind",
                      "unknown reaction kind 'cubic'"),
    "reaction.C_F": (lambda: ReactionSpec(C_F=-1.0), "reaction.C_F", "C_F must be positive"),
    "noise.K": (lambda: NoiseSpec(K=-1), "noise.K", "K must be nonnegative"),
    "noise.coeffs": (lambda: NoiseSpec(K=2, coeffs=(0.5,)), "noise.K",
                     "one coefficient per retained mode"),
    "noise.kind": (lambda: NoiseSpec(pointwise_kind="cubic"), "noise.kind",
                   "unknown noise kind 'cubic'"),
    "noise.C_G": (lambda: NoiseSpec(C_G=0.0), "noise.C_G", "C_G must be positive"),
    "reg_delta": (lambda: SpatialOpSpec(reg_delta=-1e-12), None,
                  "reg_delta must be nonnegative"),
    "grid_mode": (lambda: Grid(mode="pde_2d"), None, "unknown grid mode 'pde_2d'"),
    "time_steps": (lambda: TimeGrid(T=1.0, n_steps=0), None, "at least one time step"),
    "noise_path_K": (lambda: sample_noise_path(1, 0, -1, TimeGrid(T=1.0, n_steps=4)), None,
                     "K must be nonnegative"),
    "sigma_eps": (lambda: sigma_eps(0.5, 0.0), None, "eps must be positive"),
    "comparison_M": (lambda: _heat_study(0), None, "need at least one path"),
}


@pytest.mark.parametrize("case", sorted(VALIDATORS))
def test_each_validator_raises_its_own_error(case):
    build, key, message = VALIDATORS[case]
    with pytest.raises(ValueError, match=re.escape(message)) as err:
        build()
    if key is None:
        assert not isinstance(err.value, SpecError)
    else:
        assert isinstance(err.value, SpecError) and err.value.key == key


# ---------------------------------------------------------------------------
# drift / reaction / noise


def test_sqrt_plus_drift():
    out = eval_b_values(DriftSpec("sqrt_plus"), np.array([4.0, -1.0, 0.0]))
    assert np.allclose(out, [2.0, 0.0, 0.0])


@pytest.mark.parametrize("jump_side,expected", [
    ("lower", 0.0), ("mid", 0.5), ("upper", 1.0)])
def test_heaviside_jump_selection(jump_side, expected):
    spec = DriftSpec("heaviside", s0=0.5, low=0.0, high=1.0, jump_side=jump_side)
    out = eval_b_values(spec, np.array([0.5]))
    assert out[0] == expected


@pytest.mark.parametrize("jump_side", ["lower", "mid", "upper"])
@pytest.mark.parametrize("s0,low,high", [(0.5, 0.0, 1.0), (0.0, -0.0, 0.0),
                                         (-1.5, -2.0, 3.0)])
def test_heaviside_bit_patterns_at_edge_inputs(jump_side, s0, low, high):
    # signed zeros, infinities, NaN and the neighbours of s0 map bit for bit
    # to low below s0, high above it and the jump value elsewhere (s0, NaN),
    # as the jump value filled in and two masked assignments gave them
    spec = DriftSpec("heaviside", s0=s0, low=low, high=high, jump_side=jump_side, C_B=4.0)
    r = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, s0,
                  np.nextafter(s0, -np.inf), np.nextafter(s0, np.inf)]).reshape(2, 4)
    jump = {"lower": low, "mid": 0.5 * (low + high), "upper": high}[jump_side]
    masked = np.full_like(r, jump)
    masked[r < s0] = low
    masked[r > s0] = high
    out = eval_b_values(spec, r)
    assert out.shape == r.shape and out.dtype == np.float64
    for expected in (np.where(r < s0, low, np.where(r > s0, high, jump)), masked):
        assert np.array_equal(out.view(np.int64), expected.view(np.int64))


def test_piecewise_linear_interpolation():
    spec = DriftSpec("piecewise_linear", knots=[(-1.0, -1.0), (1.0, 1.0)])
    out = eval_b_values(spec, np.array([0.25]))
    assert out[0] == pytest.approx(0.25)


def test_drift_rejects_decreasing():
    with pytest.raises(ValueError):
        DriftSpec("piecewise_linear", knots=[(-1.0, 1.0), (1.0, -1.0)], C_B=2.0)
    with pytest.raises(ValueError):
        DriftSpec("heaviside", s0=0.0, low=1.0, high=0.0)


def test_drift_rejects_growth_violation():
    with pytest.raises(ValueError):
        DriftSpec("lipschitz_tanh", scale=5.0, C_B=1.0)  # |b| up to 5 > C_B(1+0)


def test_reaction_examples():
    u = np.array([1.0, -2.0, 0.0, 3.0])
    assert np.all(eval_f_values(ReactionSpec(), u) == 0.0)
    lin = eval_f_values(ReactionSpec("linear", slope=2.0, offset=1.0), u)
    assert np.allclose(lin, 2.0 * u + 1.0)


def test_reaction_lipschitz_validation():
    with pytest.raises(ValueError):
        ReactionSpec("linear", slope=3.0, C_F=1.0)


def test_noise_mode_evaluation():
    spec = NoiseSpec(K=2, coeffs=(0.5, 0.25), pointwise_kind="linear", C_G=1.0)
    assert eval_g_values(spec, 0, np.array([2.0]))[0] == pytest.approx(1.0)
    spec_t = NoiseSpec(K=2, coeffs=(0.5, 0.25), pointwise_kind="lipschitz_tanh",
                       C_G=1.0)
    assert eval_g_values(spec_t, 1, np.array([0.0]))[0] == 0.0
    with pytest.raises(IndexError):
        eval_g_values(spec, 2, np.array([1.0]))


@pytest.mark.parametrize("K", [0, 3, 8])
def test_noise_weights_are_the_per_step_dot_products(K):
    # bit for bit the dot products of each step's (B, K) increments, taken
    # from their (N, B, K) stack: a path's rounding does not depend on the
    # layout the increments are held in
    spec = NoiseSpec.geometric(K, pointwise_kind="lipschitz_tanh")
    tg = TimeGrid(T=0.25, n_steps=250)
    paths = [sample_noise_path(12345, m, K, tg) for m in range(5)]
    stacked = np.stack([path.increments.T for path in paths], axis=1)
    expected = np.stack([np.vecdot(dW_n, spec.coeff_array) for dW_n in stacked])
    weights = np.stack([noise_weights(spec, path.increments) for path in paths], axis=1)
    assert weights.shape == (250, 5)
    assert np.array_equal(weights, expected)
    # the noise term of a step is the sum over modes of g_k(u) dW_k
    u = np.random.default_rng(0).standard_normal((5, 7))
    modes = sum(eval_g_values(spec, k, u) * stacked[3, :, k:k + 1] for k in range(K))
    np.testing.assert_allclose(noise_term_values(spec, u, weights[3]), modes,
                               rtol=1e-13, atol=1e-15)


def test_noise_summability_enforced():
    with pytest.raises(ValueError):
        NoiseSpec(K=2, coeffs=(1.0, 1.0), C_G=1.0)
    geo = NoiseSpec.geometric(8, gamma=0.5)
    assert np.allclose(geo.coeff_array, 0.5 * 2.0 ** (-0.5 * np.arange(8)))
    assert sum(c * c for c in geo.coeffs) <= geo.C_G**2 * (1 + 1e-12)


@settings(max_examples=150, deadline=None)
@given(
    u=arrays(np.float64, 8, elements=st.floats(-50, 50)),
    v=arrays(np.float64, 8, elements=st.floats(-50, 50)),
    kind=st.sampled_from(["sqrt_plus", "heaviside", "lipschitz_tanh"]),
    jump_side=st.sampled_from(["lower", "mid", "upper"]),
)
def test_drift_preserves_pointwise_order(u, v, kind, jump_side):
    lo = np.minimum(u, v)
    hi = np.maximum(u, v)
    if kind == "sqrt_plus":
        spec = DriftSpec("sqrt_plus")
    elif kind == "heaviside":
        spec = DriftSpec("heaviside", s0=0.5, low=0.0, high=1.0, jump_side=jump_side)
    else:
        spec = DriftSpec("lipschitz_tanh", scale=1.0)
    b_lo = eval_b_values(spec, lo)
    b_hi = eval_b_values(spec, hi)
    assert np.all(b_lo <= b_hi)
    assert np.max(np.abs(b_hi)) <= spec.C_B * (1.0 + np.max(np.abs(hi))) + 1e-12


# ---------------------------------------------------------------------------
# smooth positive-part regularizer


def test_sigma_branch_values():
    for eps in (1.0, 1e-3):
        assert sigma_eps(2 * eps, eps) == 2 * eps
        assert sigma_eps(-1.0, eps) == 0.0
        assert sigma_eps(0.5 * eps, eps) == pytest.approx(0.34375 * eps)


def test_sigma_c2_gluing():
    # polynomial evaluation at the upper gluing point: 3-8+6, 15-32+18, 60-96+36
    for eps in (1.0, 1e-2, 1e-8):
        assert sigma_eps(eps, eps) == pytest.approx(eps, rel=1e-12)
        assert sigma_eps_prime(eps, eps) == pytest.approx(1.0, rel=1e-12)
        assert sigma_eps_second(eps, eps) == 0.0
        # lower gluing point: all three vanish
        assert sigma_eps(0.0, eps) == 0.0
        assert sigma_eps_prime(0.0, eps) == 0.0
        assert sigma_eps_second(0.0, eps) == 0.0


def test_sigma_prime_sup_at_interior_stationary_point():
    # d(sigma')/ds = 12 s (5s-3)(s-1) vanishes at s = 3/5; value 1.512 there
    for eps in (1.0, 1e-4):
        assert sigma_eps_prime(0.6 * eps, eps) == pytest.approx(1.512, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(r=st.floats(-10, 10), eps=st.sampled_from([1.0, 1e-2, 1e-5]))
def test_sigma_bounds_and_monotone_limit(r, eps):
    val = sigma_eps(r, eps)
    assert 0.0 <= val <= max(r, 0.0) + 1e-15
    # sigma increases pointwise as eps decreases
    assert sigma_eps(r, eps / 2) >= val - 1e-15


def test_sigma_hat_is_primitive_quadrature_oracle():
    # midpoint quadrature of sigma_eps reproduces the closed-form primitive
    eps = 0.37
    for r in (0.2, eps, 1.5, -1.0):
        grid = np.linspace(0.0, r, 20001)
        mid = 0.5 * (grid[:-1] + grid[1:])
        quad = float(np.sum(sigma_eps(mid, eps)) * (grid[1] - grid[0]))
        assert sigma_hat(r, eps) == pytest.approx(quad, abs=1e-8)


def test_sigma_functional_examples():
    g = Grid.ode()
    assert Sigma_functional_values(np.array([-2.0]), 0.1, g.dx) == 0.0
    # far above eps the primitive is r^2/2 with an O(eps^2) deficit
    r, eps = 3.0, 1e-2
    assert Sigma_functional_values(np.array([r]), eps, g.dx) == pytest.approx(
        r * r / 2 - 0.1 * eps * eps, rel=1e-12)


def test_sigma_functional_monotone_in_eps():
    rng = np.random.default_rng(3)
    g = Grid(n_interior=32)
    u = rng.standard_normal(32)
    values = [Sigma_functional_values(u, eps, g.dx) for eps in (1.0, 0.3, 0.1, 1e-3)]
    assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# assumption checking


def test_check_assumptions_plaplacian_passes():
    report = check_assumptions(
        SpatialOpSpec(p=4.0, alpha=2.0),
        DriftSpec("sqrt_plus"),
        ReactionSpec(),
        NoiseSpec.geometric(4),
        n_pairs=50,
    )
    assert report.passed
    names = {c.name for c in report.checks}
    assert "operator_coercivity_identity" in names
    assert "operator_T_monotonicity_positive_part" in names


def test_check_assumptions_fails_non_finite_defects():
    # |D|^p overflows at p = 200: the defects are NaN, which must not pass
    cfg = resolve_config(parse_config_text("scenario = plap_bracket\nspatial.p = 200\n"))
    spec = build_problem_spec(cfg)
    with np.errstate(all="ignore"):
        report = check_assumptions(spec.spatial, spec.drift, spec.reaction, spec.noise,
                                   grid=spec.grid, seed=cfg["run.master_seed"])
    by_name = {c.name: c for c in report.checks}
    for name in ("operator_coercivity_identity", "operator_T_monotonicity_identity",
                 "operator_T_monotonicity_positive_part",
                 "operator_T_monotonicity_sigma_eps"):
        assert not by_name[name].passed
    assert not report.passed and "pairing nan" in report.to_text()


def test_check_assumptions_heaviside_lipschitz_fails_informationally():
    report = check_assumptions(
        SpatialOpSpec(),
        DriftSpec("heaviside", s0=0.5, low=0.0, high=1.0),
        ReactionSpec(),
        NoiseSpec(),
        n_pairs=10,
    )
    by_name = {c.name: c for c in report.checks}
    assert by_name["drift_nondecreasing"].passed
    assert not by_name["drift_lipschitz"].passed
    assert not by_name["drift_lipschitz"].required
    assert report.passed  # informational failure does not gate
    assert "informational" in report.to_text()


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_check_assumptions_draws_its_pairs_in_chunks_of_the_same_stream(monkeypatch, p):
    # at n = 1000 the 200 pairs are drawn 65 at a time: the report is the
    # one of drawing them all at once, from the same stream in the same
    # order.  Every n <= 327 takes one chunk
    args = (SpatialOpSpec(p=p), DriftSpec("sqrt_plus"), ReactionSpec(), NoiseSpec.geometric(2),
            Grid(n_interior=1000))
    chunked = check_assumptions(*args, seed=7)
    monkeypatch.setattr(operators, "_PAIR_CHUNK_VALUES", 200 * 1000)
    assert check_assumptions(*args, seed=7) == chunked
    assert 2**16 // 327 >= 200 > 2**16 // 328


def test_check_assumptions_memory_does_not_grow_with_the_pairs():
    # 20 pairs at n = 200,000 drawn at once were 64 MB of normals alone
    # (the default 200, 640 MB); one pair at a time stays under 32 MB
    grid = Grid(n_interior=200_000)
    tracemalloc.start()
    try:
        report = check_assumptions(SpatialOpSpec(p=3.0), DriftSpec("heaviside"),
                                   ReactionSpec(), NoiseSpec(), grid=grid, n_pairs=20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < 32 * 2**20, peak / 2**20
