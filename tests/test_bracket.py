import numpy as np
import pytest
from scipy.integrate import quad

from spdeorder import (
    DriftSpec,
    Field,
    Grid,
    NoiseSpec,
    ProblemSpec,
    ReactionSpec,
    SpatialOpSpec,
    TimeGrid,
    Trajectory,
    apply_S,
    bracket_pair,
    bracket_study,
    build_extremal,
    verify_interval,
)
from spdeorder.bracket import MAX_SIDE, MIN_SIDE, extremal_forcing
from spdeorder.core import zeros


def ode_sqrt_spec(n_steps=1000, T=1.0):
    g = Grid.ode()
    return ProblemSpec(
        grid=g,
        time_grid=TimeGrid(T=T, n_steps=n_steps),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("sqrt_plus"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
        u0=Field([0.0], g),
    )


def test_extremal_forcing_values():
    f_lo = extremal_forcing(MIN_SIDE, 2.0)
    f_hi = extremal_forcing(MAX_SIDE, 2.0)
    u = np.array([0.0, 1.0, -0.5])
    assert np.allclose(f_lo(0, 0.0, u), [-2.0, -4.0, -1.0])
    assert np.allclose(f_hi(0, 0.0, u), [2.0, 4.0, 1.0])
    with pytest.raises(ValueError):
        extremal_forcing("sideways", 1.0)


def test_extremal_odes_match_exponential_solutions():
    # u' = -(1+u) from 0 gives e^{-t} - 1; u' = +(1+u) gives e^t - 1
    spec = ode_sqrt_spec(n_steps=10_000)
    lower = build_extremal(spec, MIN_SIDE)
    upper = build_extremal(spec, MAX_SIDE)
    times = lower.times()
    assert np.allclose(lower.values[0, :, 0], np.exp(-times) - 1.0, atol=2e-4)
    assert np.allclose(upper.values[0, :, 0], np.exp(times) - 1.0, atol=5e-4)


def test_apply_S_zero_is_fixed_point():
    # sqrt of the positive part vanishes along the zero trajectory
    spec = ode_sqrt_spec(n_steps=200)
    zero = Trajectory(spec.grid, spec.time_grid, np.zeros((1, 201, 1)))
    image = apply_S(spec, zero)
    assert np.all(image.values == 0.0)


def test_apply_S_on_upper_extremal_quadrature_oracle():
    # S applied to e^t - 1 integrates sqrt(e^s - 1); compare with quadrature
    spec = ode_sqrt_spec(n_steps=20_000)
    upper = build_extremal(spec, MAX_SIDE)
    image = apply_S(spec, upper)
    expected, _ = quad(lambda s: np.sqrt(np.expm1(s)), 0.0, 1.0)
    assert image.values[0, -1, 0] == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(0.78345, abs=1e-4)


def test_min_side_iteration_locks_onto_zero():
    spec = ode_sqrt_spec(n_steps=500)
    res = bracket_pair(spec, master_seed=0, tol_fixed=1e-10, max_outer=10).minimal
    assert res.converged
    assert res.monotone_ok
    assert np.all(res.final.values == 0.0)
    assert max(res.containment_violations) == 0.0


def test_max_side_iteration_monotone_decreasing_residual():
    spec = ode_sqrt_spec(n_steps=2000)
    res = bracket_pair(spec, master_seed=0, tol_fixed=1e-6, max_outer=60).maximal
    assert res.converged
    assert res.monotone_ok
    # after the first correction the residuals must not increase
    tail = res.residual_history[1:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    # the distinct maximal solution t^2/4 is approached from above
    assert res.final.values[0, -1, 0] == pytest.approx(0.25, abs=5e-3)
    assert max(res.containment_violations) == 0.0


def test_zero_drift_converges_in_two_sweeps():
    g = Grid(n_interior=8)
    spec = ProblemSpec(
        grid=g,
        time_grid=TimeGrid(T=0.1, n_steps=20),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
        u0=zeros(g),
    )
    # S is constant in its argument, so the second sweep reproduces the first
    res = bracket_pair(spec, master_seed=0, tol_fixed=1e-12, max_outer=5).minimal
    assert res.converged
    assert res.n_sweeps <= 2


def test_iterate_bracket_parameter_validation():
    spec = ode_sqrt_spec(n_steps=10)
    with pytest.raises(ValueError):
        bracket_pair(spec, master_seed=0, tol_fixed=0.0)
    with pytest.raises(ValueError):
        bracket_pair(spec, master_seed=0, max_outer=0)


def test_verify_interval():
    spec = ode_sqrt_spec(n_steps=100)
    lower = build_extremal(spec, MIN_SIDE)
    upper = build_extremal(spec, MAX_SIDE)
    mid = Trajectory(spec.grid, spec.time_grid,
                     0.5 * (lower.values + upper.values))
    ok = verify_interval(mid, lower, upper)
    assert ok.passed
    bad_vals = upper.values + 0.5
    report = verify_interval(
        Trajectory(spec.grid, spec.time_grid, bad_vals), lower, upper)
    assert not report.passed
    assert report.max_upper_violation == pytest.approx(0.5)
    assert "passed = false" in report.to_text()
    step, node = report.witness
    assert 0 <= step <= spec.time_grid.n_steps and node == 0


def test_bracket_study_pairs():
    g = Grid(n_interior=8)
    spec = ProblemSpec(
        grid=g,
        time_grid=TimeGrid(T=0.1, n_steps=50),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("lipschitz_tanh", scale=0.5),
        reaction=ReactionSpec(),
        noise=NoiseSpec.geometric(2),
        u0=zeros(g),
    )
    pairs = bracket_study(spec, M=2, master_seed=5, tol_fixed=1e-8,
                          max_outer=50)
    assert [p.path_index for p in pairs] == [0, 1]
    for pair in pairs:
        assert pair.minimal.converged and pair.maximal.converged
        # Lipschitz drift: brackets collapse to the unique solution
        assert pair.gap <= 1e-6
        assert pair.cross_order_violation <= 1e-6
