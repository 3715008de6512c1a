import numpy as np
import pytest

from spdeorder import (
    DriftSpec,
    Field,
    Grid,
    NewtonDivergenceError,
    NewtonParams,
    NoiseSpec,
    ProblemSpec,
    ReactionSpec,
    SpatialOpSpec,
    TimeGrid,
    Trajectory,
    constant_forcing,
    forcing_from_trajectory,
    implicit_step,
    solve_frozen,
    sup_h_distance,
)
from spdeorder.core import constant, zeros
from spdeorder.noise import sample_noise_path
from spdeorder.operators import apply_A_values


def heat_spec(n=32, T=0.1, n_steps=100, u0=None, p=2.0, alpha=1.0):
    grid = Grid(n_interior=n)
    if u0 is None:
        u0 = zeros(grid)
    return ProblemSpec(
        grid=grid,
        time_grid=TimeGrid(T=T, n_steps=n_steps),
        spatial=SpatialOpSpec(p=p, alpha=alpha),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
        u0=u0,
    )


def test_zero_data_stays_zero():
    spec = heat_spec(p=3.0)
    traj = solve_frozen(spec, None, None)
    assert np.all(traj.values == 0.0)
    assert traj.max_newton_residual <= 1e-10


def test_implicit_step_matches_dense_linear_solve():
    # p = 2: the step is linear, so (I + dt A) v = rhs has a dense oracle
    spec = heat_spec(n=16)
    rng = np.random.default_rng(5)
    u_n = rng.standard_normal(16)
    dt = spec.time_grid.dt
    A = np.empty((16, 16))
    for j in range(16):
        e = np.zeros(16)
        e[j] = 1.0
        A[:, j] = apply_A_values(spec.spatial, e, spec.grid)
    expected = np.linalg.solve(np.eye(16) + dt * A, u_n)
    v, report = implicit_step(spec, u_n, None, np.zeros(0), 0.0)
    assert np.allclose(v, expected, atol=1e-12)
    assert report.iterations == 1  # linear problem: one Newton iteration


def test_implicit_step_sine_eigenvector():
    # sin(pi x) is an eigenvector of the discrete Laplacian with eigenvalue
    # (2/dx^2)(1 - cos(pi dx)); implicit Euler divides by (1 + dt lam)
    n = 64
    spec = heat_spec(n=n, T=0.1, n_steps=10)
    g = spec.grid
    dt = spec.time_grid.dt
    lam = 2.0 / g.dx**2 * (1.0 - np.cos(np.pi * g.dx))
    u_n = np.sin(np.pi * g.x)
    v, _ = implicit_step(spec, u_n, None, np.zeros(0), 0.0)
    assert np.allclose(v, u_n / (1.0 + dt * lam), atol=1e-12)


def test_heat_equation_semidiscrete_decay():
    # over many steps the eigenvector decays by (1 + dt lam)^{-n_steps}
    n, n_steps = 64, 200
    g = Grid(n_interior=n)
    spec = heat_spec(n=n, T=0.1, n_steps=n_steps, u0=Field(np.sin(np.pi * g.x), g))
    traj = solve_frozen(spec, None, None)
    dt = spec.time_grid.dt
    lam = 2.0 / g.dx**2 * (1.0 - np.cos(np.pi * g.dx))
    expected = np.sin(np.pi * g.x) * (1.0 + dt * lam) ** (-n_steps)
    assert np.allclose(traj.values[-1], expected, atol=1e-12)


def test_first_order_in_time():
    # halving dt roughly halves the terminal error against the exact
    # semigroup of the discrete Laplacian
    n = 32
    g = Grid(n_interior=n)
    u0 = np.sin(np.pi * g.x)
    lam = 2.0 / g.dx**2 * (1.0 - np.cos(np.pi * g.dx))
    T = 0.05
    exact = u0 * np.exp(-lam * T)

    def terminal_err(n_steps):
        spec = heat_spec(n=n, T=T, n_steps=n_steps, u0=Field(u0, g))
        traj = solve_frozen(spec, None, None)
        return np.max(np.abs(traj.values[-1] - exact))

    e1, e2 = terminal_err(200), terminal_err(400)
    assert 1.5 <= e1 / e2 <= 2.5


def test_constant_forcing_ode_exact():
    # ODE mode with h = c and no operator: u_n = u_0 + c t_n exactly
    spec = ProblemSpec(
        grid=Grid.ode(),
        time_grid=TimeGrid(T=1.0, n_steps=10),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
        u0=Field([2.0], Grid.ode()),
    )
    traj = solve_frozen(spec, constant_forcing(3.0), None)
    assert np.allclose(traj.values[:, 0], 2.0 + 3.0 * traj.times())


def test_forcing_from_trajectory_right_endpoint():
    spec = heat_spec(n=4, T=1.0, n_steps=2)
    ref = Trajectory(spec.grid, spec.time_grid,
                     np.arange(12, dtype=float).reshape(3, 4))
    forcing = forcing_from_trajectory(ref)
    assert np.array_equal(forcing(0, 0.0, np.zeros(4)), ref.values[1])
    assert np.array_equal(forcing(1, 0.5, np.zeros(4)), ref.values[2])


def test_plaplacian_residual_at_tolerance():
    # p = 4 needs several Newton iterations; every step must end below tol
    n = 32
    g = Grid(n_interior=n)
    spec = heat_spec(n=n, T=0.05, n_steps=50, u0=Field(np.sin(np.pi * g.x), g),
                     p=4.0)
    traj = solve_frozen(spec, None, None, NewtonParams(tol=1e-12))
    assert traj.max_newton_residual <= 1e-12
    assert max(traj.newton_iters) >= 2


def test_newton_divergence_carries_step_index():
    g = Grid(n_interior=8)
    spec = heat_spec(n=8, T=0.1, n_steps=5, u0=Field(np.sin(np.pi * g.x), g),
                     p=3.0)
    with pytest.raises(NewtonDivergenceError) as exc:
        solve_frozen(spec, None, None, NewtonParams(tol=1e-10, max_iter=0))
    assert exc.value.step_index == 0


def test_implicit_step_rejects_nan_residual():
    # a NaN forcing makes the residual NaN; it must never count as converged
    spec = heat_spec(n=8, p=3.0)
    g = spec.grid
    with pytest.raises(NewtonDivergenceError):
        implicit_step(spec, np.sin(np.pi * g.x), np.full(8, np.nan), np.zeros(0),
                      0.0, NewtonParams(max_iter=3))


def test_non_finite_state_carries_step_index():
    # explicit ODE step with dt*f' = 1e3: the state overflows after ~100 steps
    g = Grid.ode()
    spec = ProblemSpec(
        grid=g,
        time_grid=TimeGrid(T=1.0, n_steps=1000),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec("linear", slope=1e6, C_F=1e6),
        noise=NoiseSpec(),
        u0=Field([1.0], g),
    )
    with pytest.warns(UserWarning, match="dt\\*C_F"), np.errstate(over="ignore"):
        with pytest.raises(NewtonDivergenceError, match="non-finite") as exc:
            solve_frozen(spec, None, None)
    assert 90 <= exc.value.step_index <= 110


def test_noisy_run_is_deterministic():
    g = Grid(n_interior=16)
    spec = ProblemSpec(
        grid=g,
        time_grid=TimeGrid(T=0.1, n_steps=50),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec("linear", slope=0.5),
        noise=NoiseSpec.geometric(4),
        u0=Field(np.sin(np.pi * g.x), g),
    )
    path = sample_noise_path(42, 0, 4, spec.time_grid)
    a = solve_frozen(spec, None, path)
    b = solve_frozen(spec, None, path)
    assert np.array_equal(a.values, b.values)


def test_noise_path_required_and_shape_checked():
    spec = heat_spec()
    noisy = ProblemSpec(**{**spec.__dict__, "noise": NoiseSpec.geometric(2)})
    with pytest.raises(ValueError):
        solve_frozen(noisy, None, None)
    wrong = sample_noise_path(0, 0, 2, TimeGrid(T=1.0, n_steps=3))
    with pytest.raises(ValueError):
        solve_frozen(noisy, None, wrong)


def test_discrete_order_preservation_deterministic():
    # ordered initial data stay ordered under the implicit monotone step
    rng = np.random.default_rng(11)
    g = Grid(n_interior=24)
    lo = rng.standard_normal(24)
    hi = lo + rng.uniform(0.0, 1.0, 24)
    for p in (2.0, 3.0):
        s_lo = heat_spec(n=24, T=0.2, n_steps=100, u0=Field(lo, g), p=p)
        s_hi = heat_spec(n=24, T=0.2, n_steps=100, u0=Field(hi, g), p=p)
        t_lo = solve_frozen(s_lo, None, None)
        t_hi = solve_frozen(s_hi, None, None)
        assert np.all(t_lo.values <= t_hi.values + 1e-10)


def test_guard_warnings():
    g = Grid(n_interior=4)
    spec = ProblemSpec(
        grid=g,
        time_grid=TimeGrid(T=10.0, n_steps=5),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec("linear", slope=1.0),
        noise=NoiseSpec(),
        u0=zeros(g),
    )
    with pytest.warns(UserWarning, match="dt\\*C_F"):
        solve_frozen(spec, None, None)


def test_trajectory_csv_layout(tmp_path):
    spec = heat_spec(n=3, T=1.0, n_steps=2, u0=constant(Grid(n_interior=3), 1.0))
    traj = solve_frozen(spec, None, None)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# mode=pde_1d n_interior=3")
    assert lines[1] == "t,x,value"
    assert len(lines) == 2 + 3 * 3  # (n_steps + 1) * n_interior rows


def test_sup_h_distance_examples():
    spec = heat_spec(n=4, T=1.0, n_steps=1)
    a = Trajectory(spec.grid, spec.time_grid, np.zeros((2, 4)))
    b = Trajectory(spec.grid, spec.time_grid, np.ones((2, 4)))
    assert sup_h_distance(a, a) == 0.0
    assert sup_h_distance(a, b) == pytest.approx(np.sqrt(4 * spec.grid.dx))
