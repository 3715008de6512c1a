import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from spdeorder import Grid, TimeGrid, Trajectory, energy_series, h_norm_values


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid(n_interior=1)  # pde_1d needs >= 2 nodes
    with pytest.raises(ValueError):
        Grid(mode="ode", n_interior=3)
    with pytest.raises(ValueError):
        Grid(n_interior=4, length=-1.0)
    g = Grid(n_interior=3, length=1.0)
    assert g.dx == pytest.approx(0.25)
    assert np.allclose(g.x, [0.25, 0.5, 0.75])
    assert Grid.ode().dx == 1.0


def test_time_grid():
    tg = TimeGrid(T=1.0, n_steps=4)
    assert tg.dt == 0.25
    assert np.allclose(tg.times(), [0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ValueError):
        TimeGrid(T=-1.0, n_steps=4)


def test_h_norm_zero_field():
    assert h_norm_values(np.zeros(17), Grid(n_interior=17).dx) == 0.0


def test_h_norm_sine_riemann_oracle():
    # integral of sin^2(pi x) over (0,1) is 1/2; the dx-weighted sum is its
    # Riemann approximation
    g = Grid(n_interior=511, length=1.0)
    u = np.sin(np.pi * g.x)
    riemann = np.sqrt(np.sum(np.sin(np.pi * g.x) ** 2) * g.dx)
    assert h_norm_values(u, g.dx) == pytest.approx(riemann)
    assert h_norm_values(u, g.dx) == pytest.approx(np.sqrt(0.5), abs=1e-4)


def test_h_norm_ode_mode_abs():
    assert h_norm_values(np.array([-3.0]), Grid.ode().dx) == 3.0


_field_values = arrays(
    np.float64, 16,
    elements=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False))


@settings(max_examples=200, deadline=None)
@given(u=_field_values, v=_field_values)
def test_h_norm_triangle_inequality(u, v):
    dx = Grid(n_interior=16).dx
    lhs = h_norm_values(u + v, dx)
    rhs = h_norm_values(u, dx) + h_norm_values(v, dx)
    assert lhs <= rhs * (1 + 1e-12) + 1e-12


@settings(max_examples=200, deadline=None)
@given(u=_field_values, c=st.floats(min_value=-100, max_value=100,
                                    allow_nan=False))
def test_h_norm_absolute_homogeneity(u, c):
    dx = Grid(n_interior=16).dx
    assert h_norm_values(c * u, dx) == pytest.approx(abs(c) * h_norm_values(u, dx),
                                                     rel=1e-12, abs=1e-9)


@settings(max_examples=200, deadline=None)
@given(u=_field_values, v=_field_values)
def test_positive_part_energy_consistency(u, v):
    # the energy the comparison gate reads, of (u - v)^+ on row 0 and of
    # (v - u)^+ on row 1, is zero exactly where the pointwise order holds
    g = Grid(n_interior=16)
    tg = TimeGrid(T=1.0, n_steps=1)
    rows = np.stack([u, v])
    energies = energy_series(Trajectory(g, tg, rows[None]), Trajectory(g, tg, rows[::-1][None]))
    for energy, a, b in zip(energies, (u, v), (v, u)):
        if np.all(a <= b):
            assert energy == 0.0
        else:
            # squaring a tiny violation can underflow to zero, so only claim
            # positivity when the square is representable
            assert energy > 0.0 or np.max(a - b) ** 2 * g.dx == 0.0
        assert energy <= h_norm_values(a - b, g.dx) ** 2 * (1 + 1e-12)
