import collections
import dataclasses
import importlib.machinery
import os
import subprocess
import sys
import tracemalloc
import types

import numpy as np
import pytest

from spdeorder import (
    DriftSpec,
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
    implicit_step,
    march,
    solve_frozen,
    sup_h_distance,
)
from spdeorder import comparison, solver
from spdeorder.bracket import apply_S, bracket_study, build_extremal, extremal_forcing
from spdeorder.cli import main
from spdeorder.core import h_norm_values
from spdeorder.noise import NoisePath, sample_noise_path
from spdeorder.operators import apply_A_values, ghost_padded, noise_weights
from spdeorder.solver import linear_factor, solve_banded


def heat_spec(n=32, T=0.1, n_steps=100, p=2.0, alpha=1.0):
    return ProblemSpec(
        grid=Grid(n_interior=n),
        time_grid=TimeGrid(T=T, n_steps=n_steps),
        spatial=SpatialOpSpec(p=p, alpha=alpha),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
    )


def test_zero_data_stays_zero():
    spec = heat_spec(p=3.0)
    traj = solve_frozen(spec, np.zeros(32), None, None)
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
        A[:, j] = apply_A_values(spec.spatial, ghost_padded(e), spec.grid)[:-1]
    expected = np.linalg.solve(np.eye(16) + dt * A, u_n)
    v, report = implicit_step(spec, u_n[None], None, np.zeros(1))
    assert np.allclose(v[0], expected, atol=1e-12)
    assert report.iterations == 1  # linear problem: one Newton iteration


def test_linear_step_is_the_direct_solve():
    # with the factor of I + dt A, the first iterate is the solution itself
    spec = heat_spec(n=16, alpha=0.7)
    rng = np.random.default_rng(5)
    u_n = rng.standard_normal((3, 16))
    dt = spec.time_grid.dt
    A = np.column_stack([apply_A_values(spec.spatial, ghost_padded(e), spec.grid)[:-1]
                         for e in np.eye(16)])
    expected = np.linalg.solve(np.eye(16) + dt * A, u_n.T).T
    v, report = implicit_step(spec, u_n, None, np.zeros(3), factor=linear_factor(spec))
    np.testing.assert_allclose(v, expected, rtol=0.0, atol=1e-13)
    assert report.iterations == 0
    # only p = 2 on a pde_1d grid is linear
    assert linear_factor(heat_spec(p=3.0)) is None
    assert linear_factor(ProblemSpec(**{**spec.__dict__, "grid": Grid.ode()})) is None


def test_implicit_step_sine_eigenvector():
    # sin(pi x) is an eigenvector of the discrete Laplacian with eigenvalue
    # (2/dx^2)(1 - cos(pi dx)); implicit Euler divides by (1 + dt lam)
    n = 64
    spec = heat_spec(n=n, T=0.1, n_steps=10)
    g = spec.grid
    dt = spec.time_grid.dt
    lam = 2.0 / g.dx**2 * (1.0 - np.cos(np.pi * g.dx))
    u_n = np.sin(np.pi * g.x)
    v, _ = implicit_step(spec, u_n[None], None, np.zeros(1))
    assert np.allclose(v[0], u_n / (1.0 + dt * lam), atol=1e-12)


def test_heat_equation_semidiscrete_decay():
    # over many steps the eigenvector decays by (1 + dt lam)^{-n_steps}
    n, n_steps = 64, 200
    g = Grid(n_interior=n)
    spec = heat_spec(n=n, T=0.1, n_steps=n_steps)
    traj = solve_frozen(spec, np.sin(np.pi * g.x), None, None)
    dt = spec.time_grid.dt
    lam = 2.0 / g.dx**2 * (1.0 - np.cos(np.pi * g.dx))
    expected = np.sin(np.pi * g.x) * (1.0 + dt * lam) ** (-n_steps)
    assert np.allclose(traj.values[0, -1], expected, atol=1e-12)


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
        spec = heat_spec(n=n, T=T, n_steps=n_steps)
        traj = solve_frozen(spec, u0, None, None)
        return np.max(np.abs(traj.values[0, -1] - exact))

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
    )
    traj = solve_frozen(spec, [2.0], constant_forcing(3.0), None)
    assert np.allclose(traj.values[0, :, 0], 2.0 + 3.0 * traj.times())


def test_plaplacian_residual_at_tolerance():
    # p = 4 needs several Newton iterations; every step must end below tol
    n = 32
    g = Grid(n_interior=n)
    spec = heat_spec(n=n, T=0.05, n_steps=50, p=4.0)
    traj = solve_frozen(spec, np.sin(np.pi * g.x), None, None, NewtonParams(tol=1e-12))
    assert traj.max_newton_residual <= 1e-12
    assert max(traj.newton_iters) >= 2


def test_newton_divergence_carries_step_index():
    g = Grid(n_interior=8)
    spec = heat_spec(n=8, T=0.1, n_steps=5, p=3.0)
    with pytest.raises(NewtonDivergenceError) as exc:
        solve_frozen(spec, np.sin(np.pi * g.x), None, None,
                     NewtonParams(tol=1e-10, max_iter=0))
    assert exc.value.step_index == 0


def test_implicit_step_rejects_nan_residual():
    # a NaN forcing makes the residual NaN; it must never count as converged
    spec = heat_spec(n=8, p=3.0)
    g = spec.grid
    with pytest.raises(NewtonDivergenceError):
        implicit_step(spec, np.sin(np.pi * g.x)[None], np.full((1, 8), np.nan), np.zeros(1),
                      NewtonParams(max_iter=3))


def test_non_finite_state_carries_step_index():
    # explicit ODE step with dt*f' = 1e3: the state overflows after ~100 steps
    spec = ProblemSpec(
        grid=Grid.ode(),
        time_grid=TimeGrid(T=1.0, n_steps=1000),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec("linear", slope=1e6, C_F=1e6),
        noise=NoiseSpec(),
    )
    with pytest.warns(UserWarning, match="dt\\*C_F"), np.errstate(over="ignore"):
        with pytest.raises(NewtonDivergenceError, match="non-finite") as exc:
            solve_frozen(spec, [1.0], None, None)
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
    )
    path = sample_noise_path(42, 0, 4, spec.time_grid)
    a = solve_frozen(spec, np.sin(np.pi * g.x), None, path)
    b = solve_frozen(spec, np.sin(np.pi * g.x), None, path)
    assert np.array_equal(a.values, b.values)


def test_noise_path_required_and_shape_checked():
    spec = heat_spec()
    noisy = ProblemSpec(**{**spec.__dict__, "noise": NoiseSpec.geometric(2)})
    with pytest.raises(ValueError):
        solve_frozen(noisy, np.zeros(32), None, None)
    wrong = sample_noise_path(0, 0, 2, TimeGrid(T=1.0, n_steps=3))
    with pytest.raises(ValueError):
        solve_frozen(noisy, np.zeros(32), None, wrong)


def test_discrete_order_preservation_deterministic():
    # ordered initial data stay ordered under the implicit monotone step
    rng = np.random.default_rng(11)
    lo = rng.standard_normal(24)
    hi = lo + rng.uniform(0.0, 1.0, 24)
    for p in (2.0, 3.0):
        spec = heat_spec(n=24, T=0.2, n_steps=100, p=p)
        t_lo = solve_frozen(spec, lo, None, None)
        t_hi = solve_frozen(spec, hi, None, None)
        assert np.all(t_lo.values <= t_hi.values + 1e-10)


def test_guard_warnings():
    # dt = 2: dt*C_F = 2 and C_G*sqrt(dt) = 0.5*sqrt(2) both trip a guard
    spec = ProblemSpec(
        grid=Grid(n_interior=4),
        time_grid=TimeGrid(T=10.0, n_steps=5),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec("linear", slope=1.0),
        noise=NoiseSpec.geometric(1),
    )
    path = sample_noise_path(3, 0, 1, spec.time_grid)
    u0 = np.zeros(4)
    u_tilde = Trajectory(spec.grid, spec.time_grid, np.zeros((1, 6, 4)))
    # each entry point and the marches it makes
    calls = [
        (lambda: solve_frozen(spec, u0, None, path), 1),
        (lambda: comparison.comparison_study(spec, u0, u0, 2, 3), 1),
        (lambda: bracket_study(spec, u0, 3), 1),
        (lambda: build_extremal(spec, u0, "min", path), 1),
        (lambda: apply_S(spec, u_tilde, path), 1),
        (lambda: comparison.run_coupled(spec, u0, u0, path), 2),
    ]
    for call, marches in calls:
        with pytest.warns(UserWarning) as record:
            call()
        assert [str(w.message).split(" =")[0] for w in record] == [
            "dt*C_F", "per-step noise multiplier std C_G*sqrt(dt)"] * marches
        # each warning points at the caller, the line of the call: one frame
        # deeper would be this loop's
        assert {(w.filename, w.lineno) for w in record} == {
            (__file__, call.__code__.co_firstlineno)}


def test_trajectory_csv_layout(tmp_path):
    spec = heat_spec(n=3, T=1.0, n_steps=2)
    traj = solve_frozen(spec, np.ones(3), None, None)
    out = tmp_path / "traj.csv"
    traj.to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("# mode=pde_1d n_interior=3")
    assert lines[1] == "t,x,value"
    assert len(lines) == 2 + 3 * 3  # (n_steps + 1) * n_interior rows

    # the bytes of the per-value formatter, on values whose repr is delicate
    grid = Grid(n_interior=3, length=0.7)
    tg = TimeGrid(T=0.3, n_steps=2)
    values = np.array([[[-0.0, 5e-324, 1e300],
                        [0.1 + 0.2, -1e-300, 1.0 / 3.0],
                        [-2.5, 0.0, 123456789.123456789]]])
    traj = Trajectory(grid, tg, values)
    traj.to_csv(out)
    x, times = grid.x, tg.times()
    expected = (f"# mode={grid.mode} n_interior=3 L={grid.length!r} dx={grid.dx!r}\n"
                "t,x,value\n"
                + "".join(f"{float(t)!r},{float(x[i])!r},{float(v)!r}\n"
                          for t, row in zip(times, values[0]) for i, v in enumerate(row)))
    assert out.read_bytes() == expected.encode()
    assert b"-0.0" in out.read_bytes() and b"5e-324" in out.read_bytes()


def test_sup_h_distance_examples():
    spec = heat_spec(n=4, T=1.0, n_steps=1)
    a = Trajectory(spec.grid, spec.time_grid, np.zeros((1, 2, 4)))
    b = Trajectory(spec.grid, spec.time_grid, np.ones((1, 2, 4)))
    assert sup_h_distance(a, a) == 0.0
    assert sup_h_distance(a, b) == pytest.approx(np.sqrt(4 * spec.grid.dx))


def test_trajectory_takes_over_an_array_without_copying():
    # the values are a read-only view of the caller's array, which stays
    # writable: a write shows through the view
    spec = heat_spec(n=64, T=0.5, n_steps=500)
    values = np.zeros((4, 501, 64))
    tracemalloc.start()
    try:
        traj = Trajectory(spec.grid, spec.time_grid, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.size // 64
    assert np.shares_memory(traj.values, values)
    assert not traj.values.flags.writeable
    with pytest.raises(ValueError):
        traj.values[0, 0, 0] = 1.0
    assert values.flags.writeable
    values[0, 1, 2] = 5.0
    assert traj.values[0, 1, 2] == 5.0


def test_trajectory_rejects_a_non_finite_value_without_a_temporary():
    # the check reduces the values (min and max propagate NaN) rather than
    # allocate a mask of them
    spec = heat_spec(n=64, T=0.5, n_steps=500)
    values = np.zeros((4, 501, 64))
    for bad in (np.nan, np.inf, -np.inf):
        values[2, 250, 31] = bad
        with pytest.raises(ValueError, match="non-finite"):
            Trajectory(spec.grid, spec.time_grid, values)
    values[2, 250, 31] = np.finfo(float).max
    tracemalloc.start()
    try:
        Trajectory(spec.grid, spec.time_grid, values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < values.size // 64


def test_solve_frozen_stores_its_states_once():
    # a copy of the states would double the peak memory of the solve
    spec = heat_spec(n=64, T=0.5, n_steps=500, p=3.0)
    paths = [sample_noise_path(0, m, 0, spec.time_grid) for m in range(4)]
    states_bytes = 4 * 501 * 64 * 8
    tracemalloc.start()
    try:
        traj = solve_frozen(spec, np.zeros(64), constant_forcing(1.0), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert traj.values.nbytes == states_bytes
    assert peak < 1.5 * states_bytes


def _noisy_spec(p, K, n=16):
    return ProblemSpec(
        grid=Grid(n_interior=n),
        time_grid=TimeGrid(T=0.05, n_steps=25),
        spatial=SpatialOpSpec(p=p),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec("linear", slope=0.5),
        noise=NoiseSpec.geometric(K, gamma=2.0) if K else NoiseSpec(),
    )


def _noisy_u0(spec):
    return 3.0 * np.sin(np.pi * spec.grid.x)


@pytest.mark.parametrize("B", [1, 3, 7])
@pytest.mark.parametrize("K", [0, 3])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_batch_members_equal_single_path_solves(p, K, B):
    spec = _noisy_spec(p, K)
    u0 = _noisy_u0(spec)
    paths = [sample_noise_path(5, m, K, spec.time_grid) for m in range(B)]
    batch = solve_frozen(spec, u0, constant_forcing(0.5), paths)
    singles = [solve_frozen(spec, u0, constant_forcing(0.5), path) for path in paths]
    assert batch.values.shape == (B, 26, 16)
    for b, single in enumerate(singles):
        assert np.array_equal(batch.values[b], single.values[0])
    per_member = np.array([single.newton_iters for single in singles])
    assert batch.newton_iters == tuple(int(i) for i in per_member.max(axis=0))
    if p == 2.0:
        # the direct solve of the linear step needs no Newton iteration
        assert set(batch.newton_iters) == {0}
    if p == 3.0 and K > 0 and B > 1:
        # members converge after different numbers of Newton iterations
        assert np.any(per_member.min(axis=0) != per_member.max(axis=0))


@pytest.mark.parametrize("K", [0, 3, 8])
@pytest.mark.parametrize("p", [2.0, 3.0])
def test_march_members_equal_their_own_solves(p, K):
    # four members with their own initial data, forcings and noise paths:
    # the constant 0.0 of sqrt_plus's min side, the growth bound 2(1+|u|)
    # of its own state on the unbounded max side
    spec = _noisy_spec(p, K)
    drift = DriftSpec("sqrt_plus", C_B=2.0)
    g, tg = spec.grid, spec.time_grid
    data = [_noisy_u0(spec), np.zeros(16), -2.0 * np.sin(2.0 * np.pi * g.x),
            0.5 * np.cos(np.pi * g.x)]
    sides = ["min", "max", "max", "min"]
    paths = [sample_noise_path(5, m, K, tg) for m in range(4)]
    weights = np.stack([noise_weights(spec.noise, path.increments) for path in paths], axis=1)
    steps = []
    log = march(spec, np.stack(data), extremal_forcing(sides, drift), weights,
                lambda n, u: steps.append((n, u.copy())))
    assert [n for n, _ in steps] == [(slice(None), k) for k in range(tg.n_steps)]
    batch = np.stack([np.stack(data)] + [u for _, u in steps], axis=1)
    singles = [
        solve_frozen(spec, u0, extremal_forcing(side, drift), path)
        for u0, side, path in zip(data, sides, paths)]
    for b, single in enumerate(singles):
        assert np.array_equal(batch[b], single.values[0])
    per_member = np.array([single.newton_iters for single in singles])
    assert list(log.newton_iters) == list(per_member.max(axis=0))
    if p == 3.0:
        assert per_member.sum() > 0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_the_states_a_step_returns_are_never_in_the_workspace(p):
    # a store that keeps every u_next without copying it, and a step's
    # result kept across the next steps on the same Workspace: no later
    # pass may write over either.  At p = 3 the members converge after
    # different numbers of Newton iterations, so the subset gathers run
    spec = _noisy_spec(p, 3)
    g = spec.grid
    u0 = np.stack([_noisy_u0(spec), np.zeros(16), -2.0 * np.sin(2.0 * np.pi * g.x),
                   0.5 * np.cos(np.pi * g.x)])
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(4)]
    weights = np.stack([noise_weights(spec.noise, path.increments) for path in paths], axis=1)
    kept = []
    march(spec, u0, constant_forcing(0.5), weights, lambda n, u: kept.append(u))
    full = solve_frozen(spec, u0, constant_forcing(0.5), paths)
    assert np.array_equal(np.stack([u0] + kept, axis=1), full.values)
    if p == 3.0:
        singles = [solve_frozen(spec, u0[b], constant_forcing(0.5), paths[b]).newton_iters
                   for b in range(4)]
        assert np.any(np.min(singles, axis=0) != np.max(singles, axis=0))
    work = solver.Workspace(g.n_interior)
    first, _ = implicit_step(spec, u0, np.full_like(u0, 0.5), weights[0],
                             factor=linear_factor(spec), work=work)
    saved = first.copy()
    # a smaller pass reuses the workspace's arrays, a larger one grows them
    for rows in (u0[1:3], np.concatenate([u0, 3.0 * u0])):
        implicit_step(spec, rows, np.full_like(rows, 0.5), np.full(len(rows), weights[1, 0]),
                      factor=linear_factor(spec), work=work)
        assert np.array_equal(first, saved)
    assert not any(np.shares_memory(first, array) for array in work.arrays.values())


def test_a_warmed_pass_allocates_only_the_states_it_returns(monkeypatch):
    # every temporary of a step is a ghost-padded stack in its march's
    # Workspace, and every shift of the spatial kernels is contiguous, so
    # numpy copies no operand: once a pass as large has sized the
    # workspace, a step of many Newton iterations, with subset and halving
    # rounds, peaks at the (L, n) states it returns
    L, n = 121, 256
    spec = heat_spec(n=n, T=0.05, n_steps=50, p=3.0)
    rng = np.random.default_rng(4)
    u_n = np.sin(np.pi * spec.grid.x) * rng.uniform(-30.0, 30.0, (L, 1))
    u_n += rng.standard_normal((L, n))
    h_n, w_n = np.full((L, n), 0.5), np.zeros(L)
    work = solver.Workspace(n)
    # the warm step takes the measured step's rounds: count its residual
    # norms, three per step (rhs, and the residuals at u_n and at the
    # predictor) and one per Newton iteration and halving round, as the
    # traced identities do
    norms = collections.Counter()

    def counted(values, dx):
        norms["h_norm_values"] += 1
        return h_norm_values(values, dx)

    with monkeypatch.context() as patched:
        patched.setattr(solver, "h_norm_values", counted)
        warm, warm_report = implicit_step(spec, u_n, h_n, w_n, work=work)
    assert norms["h_norm_values"] - 3 - warm_report.iterations >= 10  # halving rounds
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        v, report = implicit_step(spec, u_n, h_n, w_n, work=work)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert report.iterations >= 10
    assert np.array_equal(v, warm)
    assert peak <= 1.1 * v.nbytes, peak / v.nbytes


def _from_step(start, states, N):
    """The schedule of a march from step start: the states there, then on."""
    yield (slice(None), start), states
    yield from (((slice(None), k), None) for k in range(start + 1, N))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_march_from_a_later_step_repeats_the_full_march(p):
    # started at step s from the full march's states there, solve_frozen
    # stores states s + 1, ..., N of the full march, bit for bit
    spec = _noisy_spec(p, 3)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(3)]
    full = solve_frozen(spec, _noisy_u0(spec), constant_forcing(0.5), paths)
    N = spec.time_grid.n_steps
    for start in (1, 11, N - 1):
        stored = {}

        def store(n, u):
            assert n[0] == slice(None)
            stored[n[1]] = u

        log = solve_frozen(spec, full.values[:, 0], constant_forcing(0.5), paths,
                           store=store, schedule=_from_step(start, full.values[:, start], N))
        assert sorted(stored) == list(range(start, N))
        for n, u in stored.items():
            assert np.array_equal(u, full.values[:, n + 1])
        assert log.newton_iters == full.newton_iters[start:]
    with pytest.raises(ValueError, match="needs a store"):
        solve_frozen(spec, full.values[:, 0], constant_forcing(0.5), paths,
                     schedule=_from_step(3, full.values[:, 3], N))


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_scheduled_march_steps_each_state_as_the_full_march(p):
    # a wave: member 2 runs ahead, members 1 and 0 follow one and two
    # steps behind, each pass one batch of (member, step) pairs read from
    # and written to one states array; every state is the full march's
    spec = _noisy_spec(p, 3)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(3)]
    u0 = np.stack([_noisy_u0(spec), np.zeros(16), -_noisy_u0(spec)])
    full = solve_frozen(spec, u0, constant_forcing(0.5), paths)
    weights = np.stack([noise_weights(spec.noise, path.increments) for path in paths], axis=1)
    N = spec.time_grid.n_steps
    states = np.full(full.values.shape, np.nan)
    states[:, 0] = u0
    lag = np.array([2, 1, 0])

    def wave():
        for n in range(N + 2):
            members = np.flatnonzero((n - lag >= 0) & (n - lag < N))
            steps = n - lag[members]
            yield (members, steps), states[members, steps]

    def store(n, u):
        members, steps = n
        states[members, steps + 1] = u

    log = march(spec, u0, constant_forcing(0.5), weights, store, schedule=wave())
    assert np.array_equal(states, full.values)
    assert len(log.newton_iters) == N + 2
    if p == 3.0:
        assert sum(log.newton_iters) > 0


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_pass_index_names_the_same_rows_in_a_default_and_a_wave_march(p):
    # a forcing that reads ref[n[0], n[1] + 1], the right endpoint of each
    # state's step, and a store that writes states[n[0], n[1] + 1] make the
    # same states bit for bit in a pass per step and in a wave of
    # (member, step) pairs, and as solve_frozen's own store
    spec = _noisy_spec(p, 3)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(3)]
    weights = np.stack([noise_weights(spec.noise, path.increments) for path in paths], axis=1)
    N = spec.time_grid.n_steps
    ref = np.random.default_rng(7).standard_normal((3, N + 1, 16))
    u0 = np.stack([_noisy_u0(spec), np.zeros(16), -_noisy_u0(spec)])

    def forcing(n, u):
        return ref[n[0], n[1] + 1]

    def states_and_store():
        states = np.full(ref.shape, np.nan)
        states[:, 0] = u0

        def store(n, u):
            states[n[0], n[1] + 1] = u
        return states, store

    default, store = states_and_store()
    march(spec, u0, forcing, weights, store)
    wave, store = states_and_store()
    lag = np.array([2, 1, 0])

    def passes():
        for k in range(N + 2):
            members = np.flatnonzero((k - lag >= 0) & (k - lag < N))
            steps = k - lag[members]
            yield (members, steps), wave[members, steps]

    march(spec, u0, forcing, weights, store, schedule=passes())
    assert not np.isnan(default).any()
    assert np.array_equal(wave, default)
    assert np.array_equal(solve_frozen(spec, u0, forcing, paths).values, default)


@pytest.mark.parametrize("start", [0, 1])
def test_traced_identities_of_a_batched_march(monkeypatch, start):
    # the identities a traced benchmark run checks: one Jacobian and one
    # linear solve per Newton iteration, and one residual evaluation per
    # Newton iteration and line-search halving, and two per step, at u_n and
    # at the predictor of p != 2.  Every residual and Jacobian reuses
    # gradients the solver took once per iterate.
    counts = collections.Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            if name in ("apply_A_values", "jacobian_bands"):
                assert args[3] is not None  # gradients the solver took
            return fn(*args, **kwargs)
        return wrapper

    # spdeorder.solver calls the other five only inside implicit_step (p = 3
    # has no linear_factor)
    for name in ("implicit_step", "apply_A_values", "jacobian_bands", "solve_banded",
                 "interface_gradients", "h_norm_values"):
        monkeypatch.setattr(solver, name, counted(name, getattr(solver, name)))
    spec = _noisy_spec(3.0, 3)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(3)]
    u0 = 30.0 * np.random.default_rng(3).standard_normal((3, 16))  # rough: line search halves
    N = spec.time_grid.n_steps
    if start:
        first = solve_frozen(spec, u0, constant_forcing(0.5), paths)
        counts.clear()
        log = solve_frozen(spec, u0, constant_forcing(0.5), paths, store=lambda n, u: None,
                           schedule=_from_step(start, first.values[:, start], N))
    else:
        log = solve_frozen(spec, u0, constant_forcing(0.5), paths)
    iters = sum(log.newton_iters)
    steps = counts["implicit_step"]
    assert steps == N - start and iters > 0
    assert counts["solve_banded"] == counts["jacobian_bands"] == iters
    # h_norm_values runs three times per step (rhs and the residuals at u_n
    # and at the predictor), and once per Newton iteration and halving
    halvings = counts["h_norm_values"] - 3 * steps - iters
    assert halvings > 0
    assert counts["apply_A_values"] == 2 * steps + iters + halvings
    # gradients: two per step, at u_n and at the predictor, then one per
    # tried iterate
    assert counts["interface_gradients"] == 2 * steps + iters + halvings


def _bits(a: np.ndarray) -> np.ndarray:
    """The bit patterns of a float array: -0.0 and +0.0 differ."""
    return np.ascontiguousarray(a).view(np.int64)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_a_step_without_forcing_is_a_step_with_a_negative_zero_forcing(p):
    # adding dt * -0.0 changes no bit, so h_n = None and h_n = -0.0 give
    # the same states, signs of zero included, as comparison_study relies
    # on for a side without forcing: under a nonzero reaction and noise, by
    # the direct solve of linear_factor at p = 2 and by Newton at p = 3.
    # tanh keeps the sign of zero, so the -0.0 lane, which has no noise,
    # stays -0.0 only if its forcing adds nothing
    spec = dataclasses.replace(
        _noisy_spec(p, 3), reaction=ReactionSpec("lipschitz_tanh", scale=0.5),
        noise=NoiseSpec.geometric(3, gamma=2.0, pointwise_kind="lipschitz_tanh"))
    g, tg = spec.grid, spec.time_grid
    u0 = np.stack([_noisy_u0(spec), np.full(16, -0.0), -2.0 * np.sin(2.0 * np.pi * g.x)])
    paths = [sample_noise_path(5, m, 3, tg) for m in range(3)]
    paths[1] = NoisePath(np.zeros((3, tg.n_steps)), tg.dt, 5, 1)
    weights = np.stack([noise_weights(spec.noise, path.increments) for path in paths], axis=1)
    factor = linear_factor(spec)
    assert (factor is not None) == (p == 2.0)
    free, free_report = implicit_step(spec, u0, None, weights[0], factor=factor)
    forced, forced_report = implicit_step(spec, u0, np.full_like(u0, -0.0), weights[0],
                                          factor=factor)
    assert np.array_equal(_bits(free), _bits(forced))
    assert free_report == forced_report
    free = solve_frozen(spec, u0, None, paths)
    forced = solve_frozen(spec, u0, constant_forcing(-0.0), paths)
    assert np.array_equal(_bits(free.values), _bits(forced.values))
    assert free.newton_iters == forced.newton_iters
    assert free.max_newton_residual == forced.max_newton_residual
    assert np.signbit(free.values[1]).all()
    assert sum(free.newton_iters) > 0 if p == 3.0 else not any(free.newton_iters)


def test_solve_banded_solves_each_block_as_alone():
    # I + dt J on ghost-padded rows, laid out as jacobian_bands gives them:
    # the identity plus a weighted graph Laplacian, symmetric positive
    # definite, and each row's ghost an uncoupled unknown with diagonal 1.
    # Each block of the stack, at either end of it too, is solved bit for
    # bit as if alone, signed zeros included: a lane of -0.0 and one of
    # mixed zeros stand beside negative lanes, and the ghosts come in as
    # -0.0, the sign np.negative gives a residual's ghost
    rng = np.random.default_rng(11)
    B, n = 7, 9
    w = rng.uniform(0.0, 2.0, (B, n + 1))  # interface weights
    off = np.zeros((B, n + 1))
    off[:, :n - 1] = -w[:, 1:n]
    diag = np.ones((B, n + 1))
    diag[:, :n] += rng.uniform(0.0, 1.0, (B, n)) + w[:, :n] + w[:, 1:]
    rhs = rng.standard_normal((B, n + 1))
    rhs[[1, 2, 5]] = -np.abs(rhs[[1, 2, 5]])
    rhs[3] = -0.0
    rhs[4] = np.where(np.arange(n + 1) % 2, 0.0, -0.0)
    rhs[:, -1] = -0.0
    work = rhs.copy()
    x = solve_banded(off.copy(), diag.copy(), work)
    assert np.shares_memory(x, work)  # the solution overwrites rhs: no copy
    assert not _bits(x[:, -1]).any()  # every ghost solves to +0.0
    for b in range(B):
        alone = solve_banded(off[b:b + 1].copy(), diag[b:b + 1].copy(), rhs[b:b + 1].copy())
        assert np.array_equal(_bits(x[b]), _bits(alone[0]))
        dense = np.diag(diag[b, :n]) + np.diag(off[b, :n - 1], 1) + np.diag(off[b, :n - 1], -1)
        exact = np.linalg.solve(dense, rhs[b, :n])
        assert np.max(np.abs(x[b, :n] - exact)) <= 1e-12 * max(np.max(np.abs(exact)), 1e-300)
    assert np.all(x[3, :n] == 0.0) and np.signbit(x[3, :n]).all()  # the -0.0 lane stays -0.0
    diag[2, 3] = 0.0
    with pytest.raises(NewtonDivergenceError, match="ptsv"):
        solve_banded(off, diag, rhs)


def _lapack_solutions(routines):
    # a random SPD tridiagonal system of 40 unknowns with a batch of 5
    # right-hand sides, solved by ptsv and by pttrf then pttrs
    dpttrf, dpttrs, dptsv = routines
    rng = np.random.default_rng(5)
    off = rng.uniform(-1.0, 1.0, 39)
    diag = 2.0 + rng.uniform(0.0, 1.0, 40)  # diagonally dominant
    rhs = rng.standard_normal((40, 5))
    d, e, info = dpttrf(diag, off)
    assert info == 0
    factored, info = dpttrs(d, e, rhs)
    assert info == 0
    *_, solved, info = dptsv(diag, off, rhs)
    assert info == 0
    return _bits(np.stack([solved, factored]))


@pytest.mark.parametrize("layout", ["missing file", "not an extension", "missing routine"])
def test_the_lapack_loader_falls_back_to_scipy_linalg(tmp_path, monkeypatch, layout):
    # the solver's routines come from scipy's _flapack file itself; where
    # that file is missing, does not load or lacks a routine, the loader
    # takes scipy.linalg.lapack's, which solve bit for bit the same
    direct = (solver.dpttrf, solver.dpttrs, solver.dptsv)
    assert all(getattr(solver._load_flapack(), name) is routine
               for name, routine in zip(solver._LAPACK_ROUTINES, direct))
    if layout == "missing routine":
        module = types.SimpleNamespace(dpttrf=object(), dpttrs=object())
        monkeypatch.setattr(solver, "_load_flapack", lambda: module)
    else:
        monkeypatch.setattr(solver, "scipy", types.SimpleNamespace(
            __file__=str(tmp_path / "__init__.py")))
        if layout == "not an extension":
            (tmp_path / "linalg").mkdir()
            suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
            (tmp_path / "linalg" / f"_flapack{suffix}").write_bytes(b"not a library")
        with pytest.raises(ImportError):
            solver._load_flapack()
    from scipy.linalg import lapack
    fallback = solver._load_lapack()
    assert fallback == tuple(getattr(lapack, name) for name in solver._LAPACK_ROUTINES)
    assert np.array_equal(_lapack_solutions(fallback), _lapack_solutions(direct))


def test_importing_the_command_line_leaves_scipy_linalg_unimported(tmp_path):
    # in a fresh interpreter: neither the import nor a run imports
    # scipy.linalg, and a later import of it gives the routines that solve
    # bit for bit as the solver's
    cfg = tmp_path / "plap.cfg"
    cfg.write_text("scenario = plap_bracket\nspatial.p = 3\ntime.T = 0.01\n")
    code = (
        "import sys\n"
        "import numpy as np\n"
        "import spdeorder.cli\n"
        "from spdeorder import solver\n"
        "print('scipy.linalg' in sys.modules)\n"
        f"assert spdeorder.cli.main(['run', {str(cfg)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0\n"
        "print('scipy.linalg' in sys.modules)\n"
        "import scipy.linalg\n"
        "rng = np.random.default_rng(3)\n"
        "off, diag, rhs = -rng.uniform(0, 1, (3, 8)), 3 + rng.uniform(0, 1, (3, 8)), "
        "rng.standard_normal((3, 8))\n"
        "off[:, -1] = 0.0\n"
        "mine = solver.solve_banded(off.copy(), diag.copy(), rhs.copy())\n"
        "rhs[:, -1] = 0.0\n"
        "*_, theirs, info = scipy.linalg.lapack.dptsv(diag.reshape(-1), off.reshape(-1)[:-1], "
        "rhs.reshape(-1))\n"
        "print(info == 0 and mine.reshape(-1).tobytes() == theirs.tobytes())\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(solver.__file__)), os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "True"]


def test_march_rejects_mismatched_inputs():
    spec = _noisy_spec(2.0, 3)
    weights = np.zeros((spec.time_grid.n_steps, 2))
    stored = {}
    with pytest.raises(ValueError, match="initial states of shape"):
        march(spec, np.zeros((2, 15)), None, weights, stored.__setitem__)
    for bad in (np.nan, np.inf):
        u0 = np.zeros((2, 16))
        u0[1, 7] = bad
        with pytest.raises(ValueError, match="initial states must be finite"):
            march(spec, u0, None, weights, stored.__setitem__)
    # solve_frozen takes one datum for every path or one row per path
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(2)]
    for shape in ((15,), (3, 16), (2, 1, 16)):
        with pytest.raises(ValueError, match="initial datum of shape"):
            solve_frozen(spec, np.zeros(shape), None, paths, store=stored.__setitem__)
    # weights one step short: an error, not a shorter march; one member
    # short: an error, not a broadcast weight
    for short in (weights[:-1], weights[:, :1]):
        with pytest.raises(ValueError, match="noise weights of shape"):
            march(spec, np.zeros((2, 16)), None, short, stored.__setitem__)
    assert not stored  # no step is taken before the inputs are checked


def test_implicit_step_batch_members_converge_independently():
    # 0, 6, 12, 23 (with line-search halvings) and 2 Newton iterations alone,
    # so the batch runs whole, subset and halving rounds; a lane of -0.0 and
    # a negative lane sit beside them.  In either order of the stack, the
    # lanes at its ends included, each lane is bit for bit its solve alone
    g = Grid(n_interior=16)
    spec = heat_spec(n=16, T=0.5, n_steps=5, p=4.0)
    rng = np.random.default_rng(3)
    u_n = np.stack([np.zeros(16), np.sin(np.pi * g.x), 30.0 * np.sin(np.pi * g.x),
                    20.0 * rng.standard_normal(16), 0.01 * np.sin(2.0 * np.pi * g.x),
                    np.full(16, -0.0), -3.0 * np.abs(np.sin(3.0 * np.pi * g.x))])
    alone = [implicit_step(spec, row[None], None, np.zeros(1)) for row in u_n]
    iterations = [report_b.iterations for _, report_b in alone]
    assert iterations[:5] == [0, 6, 12, 23, 2]
    for order in (np.arange(7), np.arange(7)[::-1]):
        v, report = implicit_step(spec, u_n[order], None, np.zeros(7))
        for i, b in enumerate(order):
            assert np.array_equal(_bits(v[i]), _bits(alone[b][0][0]))
        assert report.iterations == max(iterations)
        assert report.residual == max(report_b.residual for _, report_b in alone)
    assert np.signbit(alone[5][0]).all()  # the -0.0 lane stays -0.0


def test_a_nonlinear_step_starts_no_path_above_its_residual_at_u_n(monkeypatch):
    # a path starts Newton from the predictor u_n - r(u_n) only where its
    # residual is strictly below the residual r(u_n) at u_n: the small
    # lane 0 takes it; the rough lanes 1 and 3, where it overshoots, keep
    # u_n, and so does lane 2, lane 0's twin, whose predictor residual is
    # made NaN here.  The lane of 0.0 has residual 0.0 and is converged
    g = Grid(n_interior=16)
    spec = heat_spec(n=16, T=0.5, n_steps=5, p=4.0)
    dt = spec.time_grid.dt
    small = 0.01 * np.sin(2.0 * np.pi * g.x)
    u_n = np.stack([small, np.sin(np.pi * g.x), small,
                    20.0 * np.random.default_rng(3).standard_normal(16), np.zeros(16)])

    def residual(v):  # in implicit_step's order of operations, with rhs = u_n
        return dt * apply_A_values(spec.spatial, ghost_padded(v), g)[:, :-1] + v - u_n

    r_n = residual(u_n)
    predictor = u_n - r_n
    evaluations, starts = [], []

    def nan_predictor(*args, **kwargs):
        out = apply_A_values(*args, **kwargs)
        evaluations.append(len(out))
        if len(evaluations) == 2:  # the predictor's residual
            out[2] = np.nan
        return out

    def jacobian(spatial, v, *args, **kwargs):
        starts.append(v[:, :-1].copy())
        return jacobian_bands(spatial, v, *args, **kwargs)

    jacobian_bands = solver.jacobian_bands
    monkeypatch.setattr(solver, "apply_A_values", nan_predictor)
    monkeypatch.setattr(solver, "jacobian_bands", jacobian)
    v, report = implicit_step(spec, u_n, None, np.zeros(5))
    assert evaluations[:2] == [5, 5] and report.iterations > 0
    start = starts[0]  # the lanes not converged at their start, in order
    assert len(start) == 4
    norm_n = h_norm_values(r_n, g.dx)
    norm_start = h_norm_values(residual(np.vstack([start, u_n[4:]])), g.dx)
    assert np.all(norm_start <= norm_n)
    assert np.array_equal(start[0], predictor[0]) and norm_start[0] < norm_n[0]
    assert h_norm_values(residual(predictor), g.dx)[2] < norm_n[2]  # had it been finite
    for b in (1, 2, 3):
        assert np.array_equal(start[b], u_n[b])
    assert norm_n[4] == 0.0 and np.array_equal(_bits(v[4]), _bits(u_n[4]))


def test_batch_divergence_raises_with_step_index():
    # every member converges within max_iter until member 2 is kicked at
    # step 5; then the whole batch fails there and returns nothing
    g = Grid(n_interior=16)
    spec = _noisy_spec(3.0, 3)
    u0 = 0.5 * np.sin(np.pi * g.x)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(4)]
    newton = NewtonParams(max_iter=3)

    def kick(n, u):
        h = np.zeros_like(u)
        if n[1] == 5:
            h[2] = 1e3
        return h

    assert solve_frozen(spec, u0, None, paths, newton).n_paths == 4
    with pytest.raises(NewtonDivergenceError, match="after 3 iterations") as exc:
        solve_frozen(spec, u0, kick, paths, newton)
    assert exc.value.step_index == 5
    assert "(step 5)" in str(exc.value)


def test_batch_never_accepts_a_nan_member():
    # a NaN forcing on one member at step 3 fails the whole batch there
    spec = _noisy_spec(2.0, 3)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(4)]

    def forcing(n, u):
        h = np.zeros_like(u)
        if n[1] == 3:
            h[2] = np.nan
        return h

    with pytest.raises(NewtonDivergenceError, match="nan") as exc:
        solve_frozen(spec, _noisy_u0(spec), forcing, paths, NewtonParams(max_iter=5))
    assert exc.value.step_index == 3


def _nan_at(path: NoisePath, k: int, n: int) -> NoisePath:
    increments = path.increments.copy()
    increments[k, n] = np.nan
    return NoisePath(increments, path.dt, path.master_seed, path.path_index)


def test_linear_step_rejects_a_nan_noise_increment():
    # the direct solve of a NaN right-hand side is NaN: never accepted
    spec = _noisy_spec(2.0, 3)
    paths = [sample_noise_path(5, m, 3, spec.time_grid) for m in range(4)]
    paths[2] = _nan_at(paths[2], 1, 4)
    with pytest.raises(NewtonDivergenceError, match="nan") as exc:
        solve_frozen(spec, _noisy_u0(spec), constant_forcing(0.5), paths,
                     NewtonParams(max_iter=5))
    assert exc.value.step_index == 4


@pytest.mark.parametrize("p", [2.0, 2.5])
def test_a_right_hand_side_whose_norm_overflows_is_never_accepted(p):
    # the H norm of a state of 1e200 overflows to inf, and the limit
    # tol * max(1, inf) would pass every residual, inf included: the step
    # raises before its first solve, at p = 2 by the direct solve too,
    # even where only one path of the batch overflows
    spec = heat_spec(n=8, T=0.01, n_steps=5, p=p)
    u0 = np.stack((np.full(8, 1e200), np.ones(8)))
    with pytest.raises(NewtonDivergenceError, match="right-hand side norm overflows") as exc:
        march(spec, u0, None, np.zeros((5, 2)), lambda n, u: None)
    assert exc.value.step_index == 0


def test_cli_nan_noise_increment_at_p2_exits_3(tmp_path, monkeypatch, capsys):
    def nan_path(master_seed, m, K, tg):
        path = sample_noise_path(master_seed, m, K, tg)
        return _nan_at(path, 0, 4) if m == 1 else path

    monkeypatch.setattr(comparison, "sample_noise_path", nan_path)
    doc = tmp_path / "heat.cfg"
    doc.write_text("scenario = heat_comparison\nrun.M = 3\ntime.T = 0.02\n")
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 3
    assert "(step 4)" in capsys.readouterr().err


def test_cli_large_amplitude_linear_run_is_accepted(tmp_path, capsys):
    # solved to rounding at |u| ~ 1e6: the residual tolerance scales with
    # the right-hand side, so the absolute 1e-10 does not fail the run
    doc = tmp_path / "big.cfg"
    doc.write_text("scenario = custom\ngrid.n = 64\nu0.kind = sine\nu0.amplitude = 1e6\n"
                   "time.T = 0.02\nnoise.K = 2\nrun.M = 2\n")
    out = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""
    assert "all_gates = pass" in (out / "summary.txt").read_text().splitlines()
