import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from scipy.integrate import quad

from spdeorder import bracket, solver
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
    apply_S,
    bracket_study,
    build_extremal,
    iterate_bracket,
    sample_noise_path,
    sup_h_distance,
)
from spdeorder.bracket import MAX_SIDE, MIN_SIDE, extremal_forcing
from spdeorder.cli import main
from spdeorder.config import resolve_config
from spdeorder.operators import eval_b_values
from spdeorder.scenarios import build_problem_spec, build_u0


def ode_sqrt_spec(n_steps=1000, T=1.0):
    """The ODE u' = sqrt(u^+), whose solutions from the datum ZERO are 0 and
    t^2/4, among others."""
    return ProblemSpec(
        grid=Grid.ode(),
        time_grid=TimeGrid(T=T, n_steps=n_steps),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("sqrt_plus"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
    )


ZERO = np.zeros(1)  # the ODE datum


def test_extremal_forcing_values():
    f_lo = extremal_forcing(MIN_SIDE, 2.0)
    f_hi = extremal_forcing(MAX_SIDE, 2.0)
    u = np.array([0.0, 1.0, -0.5])
    assert np.allclose(f_lo(0, u), [-2.0, -4.0, -1.0])
    assert np.allclose(f_hi(0, u), [2.0, 4.0, 1.0])
    with pytest.raises(ValueError):
        extremal_forcing("sideways", 1.0)


def test_extremal_forcing_per_path_sides():
    # one side and one C_B per member give each row the forcing of its
    # side and its C_B, bit for bit
    u = np.array([[0.0, 1.0, -0.5], [0.25, 3.0, -1.5], [0.1, 0.2, 0.3]])
    sides = (MIN_SIDE, MAX_SIDE, MIN_SIDE)
    batch = extremal_forcing(sides, 1.7)(0, u)
    mixed = extremal_forcing(sides, [1.7, 0.3, 2.9])(0, u)
    for row, side, C_B in zip(range(3), sides, (1.7, 0.3, 2.9)):
        assert np.array_equal(batch[row], extremal_forcing(side, 1.7)(0, u[row]))
        assert np.array_equal(mixed[row], extremal_forcing(side, C_B)(0, u[row]))


def test_extremal_odes_match_exponential_solutions():
    # u' = -(1+u) from 0 gives e^{-t} - 1; u' = +(1+u) gives e^t - 1
    spec = ode_sqrt_spec(n_steps=10_000)
    lower = build_extremal(spec, ZERO, MIN_SIDE)
    upper = build_extremal(spec, ZERO, MAX_SIDE)
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
    upper = build_extremal(spec, ZERO, MAX_SIDE)
    image = apply_S(spec, upper)
    expected, _ = quad(lambda s: np.sqrt(np.expm1(s)), 0.0, 1.0)
    assert image.values[0, -1, 0] == pytest.approx(expected, abs=1e-3)
    assert expected == pytest.approx(0.78345, abs=1e-4)


def test_min_side_iteration_locks_onto_zero():
    spec = ode_sqrt_spec(n_steps=500)
    (pair,) = bracket_study(spec, ZERO, master_seed=0, tol_fixed=1e-10, max_outer=10)
    res = pair.minimal
    assert res.converged
    assert res.monotone_ok
    assert np.all(res.final.values == 0.0)
    assert max(res.containment_violations) == 0.0


def test_max_side_iteration_monotone_decreasing_residual():
    spec = ode_sqrt_spec(n_steps=2000)
    (pair,) = bracket_study(spec, ZERO, master_seed=0, tol_fixed=1e-6, max_outer=60)
    res = pair.maximal
    assert res.converged
    assert res.monotone_ok
    # after the first correction the residuals must not increase
    tail = res.residual_history[1:]
    assert all(a >= b - 1e-12 for a, b in zip(tail, tail[1:]))
    # the distinct maximal solution t^2/4 is approached from above
    assert res.final.values[0, -1, 0] == pytest.approx(0.25, abs=5e-3)
    assert max(res.containment_violations) == 0.0


def test_zero_drift_converges_in_two_sweeps():
    spec = ProblemSpec(
        grid=Grid(n_interior=8),
        time_grid=TimeGrid(T=0.1, n_steps=20),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec(),
        noise=NoiseSpec(),
    )
    # S is constant in its argument, so the second sweep reproduces the first
    (pair,) = bracket_study(spec, np.zeros(8), master_seed=0, tol_fixed=1e-12, max_outer=5)
    res = pair.minimal
    assert res.converged
    assert res.n_sweeps <= 2


def test_iterate_bracket_parameter_validation():
    spec = ode_sqrt_spec(n_steps=10)
    with pytest.raises(ValueError):
        bracket_study(spec, ZERO, master_seed=0, tol_fixed=0.0)
    with pytest.raises(ValueError):
        bracket_study(spec, ZERO, master_seed=0, max_outer=0)
    with pytest.raises(ValueError):
        bracket_study(spec, ZERO, master_seed=0, path_indices=[])
    with pytest.raises(ValueError):
        bracket_study(spec, ZERO, master_seed=0, drifts=[])
    path = sample_noise_path(0, 0, 0, spec.time_grid)
    with pytest.raises(ValueError):  # one drift per path
        iterate_bracket(spec, ZERO, [path, path], [spec.drift])
    # a datum of any shape but (n,) is an error, not a broadcast constant
    grid8 = dataclasses.replace(spec, grid=Grid(n_interior=8))
    for bad_spec, u0 in ((spec, 0.0), (spec, np.zeros(2)), (spec, np.zeros((1, 1))),
                         (grid8, np.zeros(1)), (grid8, np.zeros(7)), (grid8, np.zeros((2, 8)))):
        with pytest.raises(ValueError, match="initial datum of shape"):
            bracket_study(bad_spec, u0, master_seed=0)


def test_a_large_max_outer_allocates_nothing():
    # the per-sweep counters grow with the sweeps that start, not with
    # max_outer, and the limit changes no result it does not reach
    spec = stochastic_jump_spec()
    pairs = bracket_study(spec, sine(spec), 12345, range(2), tol_fixed=1e-6, max_outer=100)
    tracemalloc.start()
    try:
        large = bracket_study(spec, sine(spec), 12345, range(2), tol_fixed=1e-6,
                              max_outer=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    for ours, theirs in zip(large, pairs):
        for a, b in ((ours.minimal, theirs.minimal), (ours.maximal, theirs.maximal)):
            assert a.to_text() == b.to_text() and a.sweep_starts == b.sweep_starts
            assert np.array_equal(a.final.values, b.final.values)


def test_bracket_study_pairs():
    spec = ProblemSpec(
        grid=Grid(n_interior=8),
        time_grid=TimeGrid(T=0.1, n_steps=50),
        spatial=SpatialOpSpec(),
        drift=DriftSpec("lipschitz_tanh", scale=0.5),
        reaction=ReactionSpec(),
        noise=NoiseSpec.geometric(2),
    )
    pairs = bracket_study(spec, np.zeros(8), master_seed=5, path_indices=range(2),
                          tol_fixed=1e-8, max_outer=50)
    assert [p.path_index for p in pairs] == [0, 1]
    for pair in pairs:
        assert pair.minimal.converged and pair.maximal.converged
        # Lipschitz drift: brackets collapse to the unique solution
        assert pair.gap <= 1e-6
        assert pair.cross_order_violation <= 1e-6


def test_min_side_defects_are_never_negative_zero():
    # the min side's zero iterates differ by -(+0.0) = -0.0 between sweeps
    spec = ode_sqrt_spec(n_steps=500)
    (pair,) = bracket_study(spec, ZERO, master_seed=0, tol_fixed=1e-10, max_outer=10)
    for res in (pair.minimal, pair.maximal):
        defects = res.monotonicity_violations + res.containment_violations
        assert all(math.copysign(1.0, v) == 1.0 for v in defects)
        assert "-0.0" not in res.to_text()


def stochastic_jump_spec():
    """A small stochastic bracket like the n256 benchmark: p=3, heaviside
    jump, four noise modes; from the sine datum its members need 3 or 4
    sweeps."""
    return ProblemSpec(
        grid=Grid(n_interior=16),
        time_grid=TimeGrid(T=0.1, n_steps=50),
        spatial=SpatialOpSpec(p=3.0),
        drift=DriftSpec("heaviside", s0=0.5, low=0.0, high=1.0),
        reaction=ReactionSpec(),
        noise=NoiseSpec.geometric(4),
    )


def sine(spec):
    """The datum sin(pi x) on spec's grid."""
    return np.sin(np.pi * spec.grid.x)


def sweep_alone(spec, u0, path, side, tol_fixed, max_outer):
    """One side of one path swept at B = 1 under spec.drift, the way the
    iteration is defined: every sweep a whole apply_S call from step 0.
    Returns the extremal, the final and, per sweep, the residual,
    monotonicity and containment defects and the start step the drift
    values give (sweep 1 at 0, then the row before the first changed
    drift value, N when none changed)."""
    lower, upper = (bracket.build_extremal(spec, u0, s, path) for s in (MIN_SIDE, MAX_SIDE))
    start = current = lower if side == MIN_SIDE else upper
    sign = -1.0 if side == MIN_SIDE else 1.0
    history, old_bits = [], None
    for _ in range(max_outer):
        bits = eval_b_values(spec.drift, current.values[0]).view(np.int64)
        if old_bits is None:
            first = 0
        else:
            changed = np.flatnonzero(np.any(bits != old_bits, axis=-1))
            first = int(changed[0]) - 1 if len(changed) else spec.time_grid.n_steps
        nxt = apply_S(spec, current, path)
        excess = max(np.max(lower.values - nxt.values), np.max(nxt.values - upper.values))
        history.append((sup_h_distance(nxt, current),
                        max(0.0, float(np.max(sign * (nxt.values - current.values)))),
                        max(0.0, float(excess)), first))
        current, old_bits = nxt, bits
        if history[-1][0] <= tol_fixed:
            break
    return start, current, tuple(zip(*history))


def test_bracket_study_independent_of_batch():
    spec = stochastic_jump_spec()
    u0 = sine(spec)
    M, kwargs = 5, dict(tol_fixed=1e-6, max_outer=100)
    batch = bracket_study(spec, u0, 12345, range(M), **kwargs)
    alone = [bracket_study(spec, u0, 12345, [m], **kwargs)[0] for m in range(M)]
    smaller = bracket_study(spec, u0, 12345, range(2), **kwargs)
    assert [p.path_index for p in batch] == list(range(M))
    whole = [r for p in batch for r in (p.minimal, p.maximal)]
    assert len({r.n_sweeps for r in whole}) >= 2  # members stop at different sweeps
    for others in ([r for p in alone for r in (p.minimal, p.maximal)],
                   [r for p in smaller for r in (p.minimal, p.maximal)]):
        for ours, theirs in zip(others, whole):
            assert ours.side == theirs.side
            assert np.array_equal(ours.final.values, theirs.final.values)
            assert np.array_equal(ours.extremal_start.values, theirs.extremal_start.values)
            assert (ours.residual_history, ours.monotonicity_violations,
                    ours.containment_violations, ours.n_sweeps, ours.converged) == (
                theirs.residual_history, theirs.monotonicity_violations,
                theirs.containment_violations, theirs.n_sweeps, theirs.converged)
    # and each member is bit for bit its side swept alone
    for pair in batch:
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        for res in (pair.minimal, pair.maximal):
            start, final, (residuals, *_) = sweep_alone(spec, u0, path, res.side, **kwargs)
            assert np.array_equal(res.extremal_start.values, start.values)
            assert np.array_equal(res.final.values, final.values)
            assert res.residual_history == residuals


def test_mixed_drift_batch_members_equal_their_sweeps_alone():
    # from u0 = 0 at the jump s0 = 0 the jump value selects the solution, so
    # the two heaviside members differ; the tanh member has its own C_B
    spec = dataclasses.replace(stochastic_jump_spec(), spatial=SpatialOpSpec(),
                               noise=NoiseSpec.geometric(2))
    u0 = np.zeros(16)
    drifts = [DriftSpec("heaviside", s0=0.0, jump_side="lower"),
              DriftSpec("heaviside", s0=0.0, jump_side="upper"),
              DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5),
              DriftSpec("heaviside", s0=0.0, jump_side="lower")]
    shared = [sample_noise_path(3, m, 2, spec.time_grid) for m in (0, 1)]
    paths = [shared[m] for m in (0, 0, 1, 1)]
    kwargs = dict(tol_fixed=1e-6, max_outer=100)
    results = iterate_bracket(spec, u0, paths, drifts, **kwargs)
    P = len(paths)
    # one extremal per distinct (noise path, side, C_B): the two heaviside
    # drifts on path 0 share theirs, the tanh and heaviside ones on path 1
    # differ in C_B.  The study's one array holds the 2P iterates, then them
    assert results[0].extremal_start.values.base.shape[0] == 2 * P + 6
    assert [r.side for r in results] == [MIN_SIDE] * P + [MAX_SIDE] * P
    assert not np.array_equal(results[0].final.values, results[1].final.values)
    assert len({r.n_sweeps for r in results}) >= 2
    for m, res in enumerate(results):
        alone = dataclasses.replace(spec, drift=drifts[m % P])
        start, final, (residuals, *_) = sweep_alone(alone, u0, paths[m % P], res.side,
                                                    **kwargs)
        assert np.array_equal(res.extremal_start.values, start.values)
        assert np.array_equal(res.final.values, final.values)
        assert res.residual_history == residuals
        assert res.n_sweeps == len(residuals)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_the_extremals_of_a_study_equal_build_extremal(p):
    # the extremal lanes of the study's march are bit for bit build_extremal,
    # batched or alone; at p = 2 each step starts from the direct linear
    # solve.  Members that share a (noise path, side, C_B) view one row
    spec = dataclasses.replace(stochastic_jump_spec(), spatial=SpatialOpSpec(p=p),
                               noise=NoiseSpec.geometric(2))
    assert (solver.linear_factor(spec) is not None) == (p == 2.0)
    u0 = sine(spec)
    drifts = [DriftSpec("heaviside", s0=0.5, jump_side="lower"),
              DriftSpec("heaviside", s0=0.5, jump_side="upper"),
              DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5),
              DriftSpec("heaviside", s0=0.5, jump_side="lower")]
    shared = [sample_noise_path(3, m, 2, spec.time_grid) for m in (0, 1)]
    paths = [shared[m] for m in (0, 0, 1, 1)]
    results = iterate_bracket(spec, u0, paths, drifts, tol_fixed=1e-6, max_outer=100)
    P = len(paths)
    sides = [r.side for r in results]
    batch = build_extremal(spec, u0, sides, paths * 2, NewtonParams(), drifts * 2)
    for m, res in enumerate(results):
        alone = build_extremal(spec, u0, res.side, paths[m % P], drifts=[drifts[m % P]])
        assert np.array_equal(res.extremal_start.values, alone.values)
        assert np.array_equal(res.extremal_start.values[0], batch.values[m])
        assert res.extremal_start.newton_iters == ()
    for a, b in ((0, 1), (P, P + 1)):  # the two heaviside drifts on path 0
        assert np.shares_memory(results[a].extremal_start.values,
                                results[b].extremal_start.values)
    assert not np.shares_memory(results[2].extremal_start.values,
                                results[3].extremal_start.values)
    # apply_S steps a path with a side as that extremal, next to a path S
    # maps, whatever u_tilde holds past row 0 on it
    u_tilde = np.full((2, spec.time_grid.n_steps + 1, spec.grid.n_interior), 7.0)
    u_tilde[:, 0] = u0
    image = apply_S(spec, Trajectory(spec.grid, spec.time_grid, u_tilde), paths[2:],
                    drifts=drifts[2:], sides=[None, MAX_SIDE])
    assert np.array_equal(image.values[1], results[P + 3].extremal_start.values[0])
    alone = apply_S(spec, Trajectory(spec.grid, spec.time_grid, u_tilde[:1]), paths[2],
                    drifts=drifts[2:3])
    assert np.array_equal(image.values[0], alone.values[0])
    with pytest.raises(ValueError):
        apply_S(spec, Trajectory(spec.grid, spec.time_grid, u_tilde), paths[2:],
                drifts=drifts[2:], sides=[MAX_SIDE])


def test_a_study_steps_its_extremals_alongside_its_sweeps(monkeypatch):
    # the extremals are level 0 of the wave: a study takes one pass more
    # than its sweeps step in (the first pass steps only the extremals),
    # not N more
    schedule = bracket._Wave.passes
    counts = Counter()

    def passes(wave):
        for n, u in schedule(wave):
            counts["passes"] += 1
            counts["sweep passes"] += len(wave.k) > 0
            yield n, u

    monkeypatch.setattr(bracket._Wave, "passes", passes)
    spec, u0, drifts, M = plap_p3_dual_jump()
    N = spec.time_grid.n_steps
    pairs = bracket_study(spec, u0, 12345, range(M), drifts, tol_fixed=1e-6, max_outer=100)
    assert max(r.n_sweeps for p in pairs for r in (p.minimal, p.maximal)) >= 3
    assert counts["passes"] == counts["sweep passes"] + 1 < N + counts["sweep passes"]


def test_dual_jump_plap_bracket_builds_its_extremals_once(tmp_path, monkeypatch):
    calls, extremal_lanes = [], []
    solve, schedule = bracket.apply_S, bracket._Wave.passes

    def counted(spec, u_tilde, noise_paths, newton, store, drifts, passes, sides):
        calls.append([(side, drift.jump_side) for side, drift in zip(sides, drifts)
                      if side is not None])
        assert len(noise_paths) == len(sides)
        return solve(spec, u_tilde, noise_paths, newton, store, drifts, passes, sides)

    def passes(wave):
        for n, u in schedule(wave):
            extremal_lanes.append(np.count_nonzero(n[0] >= len(wave.current)))
            yield n, u

    def unused(*args, **kwargs):
        raise AssertionError("a study solves its extremals in its one march")

    monkeypatch.setattr(bracket, "apply_S", counted)
    monkeypatch.setattr(bracket._Wave, "passes", passes)
    monkeypatch.setattr(bracket, "build_extremal", unused)
    cfg = tmp_path / "dual.cfg"
    cfg.write_text("scenario = plap_bracket\ngrid.n = 16\ntime.T = 0.05\n"
                   "run.dual_jump_side = true\n")
    assert main(["run", str(cfg), "--out", str(tmp_path / "out")]) == 0
    # one march, and one extremal lane per side: the jump sides share path 0
    # and C_B, the only part of the drift the extremal forcing reads
    assert calls == [[(MIN_SIDE, "lower"), (MAX_SIDE, "lower")]]
    N = build_problem_spec(resolve_config({"scenario": "plap_bracket", "grid.n": 16,
                                           "time.T": 0.05})).time_grid.n_steps
    # both step in each of the first N passes, and in no other
    assert extremal_lanes[:N] == [2] * N and not any(extremal_lanes[N:])


def test_sweeps_write_their_iterates_in_place():
    # the whole call holds one (2M + E, N+1, n) array: the iterates of the
    # 2M members, then the E = 2M extremals (each path has its own); the
    # sweeps need no next-iterate array, so the transient memory stays far
    # below the 2M rows of one more
    g = Grid(n_interior=64)
    spec = dataclasses.replace(stochastic_jump_spec(), grid=g,
                               time_grid=TimeGrid(T=0.2, n_steps=400),
                               noise=NoiseSpec.geometric(2))
    u0 = sine(spec)
    M = 3
    paths = [sample_noise_path(7, m, spec.noise.K, spec.time_grid) for m in range(M)]
    one_array = 2 * M * (spec.time_grid.n_steps + 1) * g.n_interior * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = iterate_bracket(spec, u0, paths, tol_fixed=1e-6, max_outer=100)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(r.n_sweeps for r in results) >= 3
    buf = results[0].extremal_start.values.base
    assert buf.nbytes == 2 * one_array
    assert all(r.final.values.base is buf for r in results)
    retained = after - before  # the iterates and extremals, which the results view
    assert retained >= 2 * one_array
    assert peak - before - retained < 0.25 * one_array


def test_bracket_results_are_read_only_views():
    spec = stochastic_jump_spec()
    pairs = bracket_study(spec, sine(spec), 1, range(3), tol_fixed=1e-6, max_outer=100)
    for pair in pairs:
        for res in (pair.minimal, pair.maximal):
            for traj in (res.final, res.extremal_start):
                assert traj.n_paths == 1
                assert traj.values.base is not None  # a view, not a copy
                assert not traj.values.flags.writeable
    # every path of the batch shares its extremal and its final arrays
    assert pairs[0].minimal.final.values.base is pairs[2].maximal.final.values.base
    assert (pairs[0].minimal.extremal_start.values.base
            is pairs[2].maximal.extremal_start.values.base)


def test_one_solve_per_extremal_build_and_sweep(monkeypatch):
    spec = stochastic_jump_spec()
    counts, lanes = Counter(), []
    solve = bracket.solve_frozen

    def counting_solve(*args, **kwargs):
        counts["solve_frozen"] += 1
        return solve(*args, **kwargs)

    def counted(fn, name):
        def call(*args, **kwargs):
            before = counts["solve_frozen"]
            result = fn(*args, **kwargs)
            assert counts["solve_frozen"] == before + 1  # exactly one solve per call
            counts[name] += 1
            counts["newton_iters"] += sum(result.newton_iters)
            return result
        return call

    def counted_step(fn):
        def step(spec, u_n, *args):
            lanes.append(len(u_n))
            return fn(spec, u_n, *args)
        return step

    def counted_linsolve(*args):
        counts["solve_banded"] += 1
        return linsolve(*args)

    linsolve = solver.solve_banded
    monkeypatch.setattr(solver, "solve_banded", counted_linsolve)
    monkeypatch.setattr(solver, "implicit_step", counted_step(solver.implicit_step))
    monkeypatch.setattr(bracket, "solve_frozen", counting_solve)
    monkeypatch.setattr(bracket, "build_extremal", counted(bracket.build_extremal,
                                                           "build_extremal"))
    monkeypatch.setattr(bracket, "apply_S", counted(bracket.apply_S, "apply_S"))
    pairs = bracket_study(spec, sine(spec), 12345, range(5), tol_fixed=1e-6, max_outer=100)

    results = [r for p in pairs for r in (p.minimal, p.maximal)]
    N = spec.time_grid.n_steps
    # one march for the extremals and every sweep of every member
    assert (counts["build_extremal"], counts["apply_S"], counts["solve_frozen"]) == (0, 1, 1)
    assert counts["newton_iters"] == counts["solve_banded"] > 0
    # each of the 2 * 5 extremals (one per path and side) solves its N rows
    # once; each stepping sweep solves the rows after its start once, and
    # no other rows; a member whose drift values did not change takes its
    # sweep without stepping
    E = 2 * len(pairs)
    assert sum(lanes) == E * N + sum(N - start for r in results for start in r.sweep_starts)
    assert sum(r.sweep_starts.count(N) for r in results) > 0
    # the sweeps overlap in time: fewer passes than lock-step sweeps, each
    # from the smallest start among its members, would take after the
    # extremals
    lock_step = sum(N - min(r.sweep_starts[k] for r in results if r.n_sweeps > k)
                    for k in range(max(r.n_sweeps for r in results)))
    assert len(lanes) < lock_step
    assert max(lanes) > E + 2 * len(pairs)  # passes with several sweeps of one member


def _fail_in_pass(monkeypatch, failing):
    """Make the implicit step of pass `failing` (from 1) of a study's march
    fail; returns the rows of the study's array and the steps of every pass
    handed out so far."""
    passes = []
    schedule = bracket._Wave.passes
    step = solver.implicit_step

    def recorded(wave):
        for n, u in schedule(wave):
            passes.append((n[0].tolist(), n[1].tolist()))
            yield n, u

    def failing_step(*args):
        if len(passes) == failing:
            raise NewtonDivergenceError("injected failure")
        return step(*args)

    monkeypatch.setattr(bracket._Wave, "passes", recorded)
    monkeypatch.setattr(solver, "implicit_step", failing_step)
    return passes


def test_a_newton_failure_in_the_sweeps_names_a_step_of_its_pass(monkeypatch):
    passes = _fail_in_pass(monkeypatch, 40)
    spec = stochastic_jump_spec()
    with pytest.raises(NewtonDivergenceError, match="injected failure") as exc:
        bracket_study(spec, sine(spec), 12345, range(3), tol_fixed=1e-6, max_outer=100)
    assert len(passes) == 40
    steps = passes[-1][1]
    assert len(set(steps)) > 1  # lanes at different steps
    assert exc.value.step_index in steps
    assert f"(step {exc.value.step_index})" in str(exc.value)


def test_a_newton_failure_in_the_extremals_names_their_step(monkeypatch):
    # the first pass steps only the extremals, rows 2M.. of the study's
    # array, from step 0: no sweep lane has stepped when it fails
    passes = _fail_in_pass(monkeypatch, 1)
    spec = stochastic_jump_spec()
    with pytest.raises(NewtonDivergenceError, match=r"injected failure \(step 0\)") as exc:
        bracket_study(spec, sine(spec), 12345, range(3), tol_fixed=1e-6, max_outer=100)
    assert passes == [(list(range(6, 12)), [0] * 6)]
    assert exc.value.step_index == 0


def test_cli_newton_failure_in_the_sweeps_exits_3(tmp_path, monkeypatch, capsys):
    _fail_in_pass(monkeypatch, 40)
    cfg = tmp_path / "plap.cfg"
    cfg.write_text("scenario = plap_bracket\ngrid.n = 16\ntime.T = 0.05\nspatial.p = 3\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "solver failure: injected failure (step" in capsys.readouterr().err
    assert not list(out.glob("bracket_*.txt"))


def test_cli_newton_failure_in_the_extremals_exits_3(tmp_path, monkeypatch, capsys):
    passes = _fail_in_pass(monkeypatch, 1)
    cfg = tmp_path / "plap.cfg"
    cfg.write_text("scenario = plap_bracket\ngrid.n = 16\ntime.T = 0.05\nspatial.p = 3\n")
    out = tmp_path / "out"
    assert main(["run", str(cfg), "--out", str(out)]) == 3
    assert "solver failure: injected failure (step 0)" in capsys.readouterr().err
    assert passes == [([2, 3], [0, 0])]  # the two extremals of one path
    assert not list(out.glob("bracket_*.txt"))


def plap_p3_dual_jump():
    cfg = resolve_config({"scenario": "plap_bracket", "spatial.p": 3.0, "grid.n": 16,
                          "time.T": 0.05})
    spec = build_problem_spec(cfg)
    return (spec, build_u0(cfg, spec.grid),
            (spec.drift, dataclasses.replace(spec.drift, jump_side="upper")), 1)


def with_sine(spec, M):
    return spec, sine(spec), None, M


def sqrt_plus_pde_from_zero():
    # the max side takes 16 sweeps, each from step 0, and the last one's
    # residual stays below tol_fixed: the sweep after it waits, then is dropped
    cfg = resolve_config({"scenario": "custom", "drift.kind": "sqrt_plus",
                          "u0.kind": "zero", "noise.K": 0, "spatial.p": 3.0, "grid.n": 16,
                          "time.T": 0.2})
    spec = build_problem_spec(cfg)
    return spec, build_u0(cfg, spec.grid), None, 1


# (spec, u0, drifts, paths) of each case, the start steps its sweeps take:
# step 0, a later step, or none (N, a sweep without stepping), and its
# iteration arguments other than tol_fixed = 1e-6 and max_outer = 100
ALL_STARTS = {"0", "later", "none"}
REFERENCE_CASES = {
    "heaviside_batch": (lambda: with_sine(stochastic_jump_spec(), 3), ALL_STARTS, {}),
    "plap_p3_dual_jump": (plap_p3_dual_jump, ALL_STARTS, {}),
    # the tanh drift changes on row 1 in every sweep
    "lipschitz_tanh": (lambda: with_sine(dataclasses.replace(
        stochastic_jump_spec(), drift=DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5)),
        2), {"0"}, {}),
    "sqrt_plus_ode": (lambda: (ode_sqrt_spec(n_steps=200), ZERO, None, 1), {"0", "none"}, {}),
    "sqrt_plus_pde_from_zero": (sqrt_plus_pde_from_zero, {"0", "none"}, {}),
    "max_outer_1": (lambda: with_sine(stochastic_jump_spec(), 3), {"0"}, {"max_outer": 1}),
    "max_outer_2": (lambda: with_sine(stochastic_jump_spec(), 3), {"0", "later"},
                    {"max_outer": 2}),
    # between the second and third sweeps' residuals of some members: they
    # stop after a sweep that steps, and the sweep found to follow is dropped
    "tol_between_sweeps": (lambda: with_sine(stochastic_jump_spec(), 3), ALL_STARTS,
                           {"tol_fixed": 2e-3}),
    "one_step": (lambda: with_sine(dataclasses.replace(
        stochastic_jump_spec(), time_grid=TimeGrid(T=0.002, n_steps=1)), 3),
        {"0", "none"}, {}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_sweeps_from_their_start_steps_equal_full_sweeps(case):
    build, kinds, arguments = REFERENCE_CASES[case]
    spec, u0, drifts, M = build()
    kwargs = dict(tol_fixed=1e-6, max_outer=100) | arguments
    pairs = bracket_study(spec, u0, 12345, range(M), drifts, **kwargs)
    drifts = drifts or (spec.drift,)
    N = spec.time_grid.n_steps
    all_starts = []
    for i, pair in enumerate(pairs):
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        for res in (pair.minimal, pair.maximal):
            alone = dataclasses.replace(spec, drift=drifts[i // M])
            start, final, (*defects, starts) = sweep_alone(alone, u0, path, res.side,
                                                           **kwargs)
            assert np.array_equal(res.extremal_start.values, start.values)
            assert np.array_equal(res.final.values, final.values)
            for ours, theirs in zip((res.residual_history, res.monotonicity_violations,
                                     res.containment_violations), defects):
                assert np.array_equal(ours, theirs)
            assert res.sweep_starts == starts
            # only a last sweep, which repeats its iterate, takes no step
            assert all(start < N for start in res.sweep_starts[:-1])
            if res.sweep_starts[-1] == N:
                assert res.residual_history[-1] == res.monotonicity_violations[-1] == 0.0
                assert res.containment_violations[-1] == res.containment_violations[-2]
            all_starts += res.sweep_starts
    assert {"0" if s == 0 else "none" if s == N else "later" for s in all_starts} == kinds


@pytest.mark.parametrize("case", ["heaviside_batch", "sqrt_plus_pde_from_zero",
                                  "tol_between_sweeps"])
def test_each_sweep_steps_from_its_own_row_and_reads_the_one_before(monkeypatch, case):
    # every level of a member shares one iterate row of the study's array:
    # a lane's state is the row its level wrote last (or its start row),
    # never one a later sweep wrote, and its forcing reads a row of an
    # earlier sweep, made by the extremals for sweep 1.  The extremal lanes
    # come last in a pass; each steps from the row it wrote last
    schedule, store = bracket._Wave.passes, bracket._Wave.store
    checked = Counter()

    def passes(wave):
        writer = np.zeros(wave.current.shape[:2], dtype=int)  # 0: the extremal
        wave.writer, wave.made = writer, 0  # the rows the extremals made
        for n, u in schedule(wave):
            L = len(wave.k)
            m, steps = n[0][:L], n[1][:L]
            assert np.all(n[0][L:] >= len(wave.current)) and np.all(n[1][L:] == wave.made)
            state = writer[m, steps]
            own = steps > wave.start[m, wave.k]  # past the start row
            assert np.all(np.where(own, state == wave.k, state < wave.k))
            assert np.all(writer[m, steps + 1] < wave.k)
            assert np.all(steps + 1 <= wave.made)
            checked["lanes"] += L
            checked["extremal lanes"] += len(n[0]) - L
            yield n, u

    def stores(wave, n, v, h):
        L = len(wave.k)
        m, steps = n[0][:L], n[1][:L]
        wave.made += len(n[0]) > L
        wave.writer[m, steps + 1] = wave.k
        store(wave, n, v, h)

    monkeypatch.setattr(bracket._Wave, "passes", passes)
    monkeypatch.setattr(bracket._Wave, "store", stores)
    build, _, arguments = REFERENCE_CASES[case]
    spec, u0, drifts, M = build()
    bracket_study(spec, u0, 12345, range(M), drifts,
                  **(dict(tol_fixed=1e-6, max_outer=100) | arguments))
    assert checked["lanes"] > spec.time_grid.n_steps
    assert checked["extremal lanes"] == 2 * M * spec.time_grid.n_steps


def test_rows_a_sweep_keeps_count_in_its_containment_defects(monkeypatch):
    # lower extremals raised on rows 1 and 2 leave every min-side iterate
    # below them there; the sweeps keep those rows (they start later) or
    # take no step, and still record the defect of every row.  The study's
    # min-side extremal lanes store rows 1 and 2 raised but step on from the
    # rows they solved, as a raised copy of build_extremal's does
    build, schedule, store = bracket.build_extremal, bracket._Wave.passes, bracket._Wave.store
    solved = {}

    def raised(spec, u0, sides, noise_paths=None, newton=NewtonParams(), drifts=None):
        ext = build(spec, u0, sides, noise_paths, newton, drifts)
        values = ext.values.copy()
        values[np.asarray(sides).reshape(-1) == MIN_SIDE, 1:3] += 0.01
        return Trajectory(ext.grid, ext.time_grid, values)

    def lower_lanes(wave, m, steps, at):
        # the lanes of min-side extremals stepping from a step in `at`
        e = m - len(wave.current)
        return np.flatnonzero(np.isin(e, wave.index[:wave.P]) & np.isin(steps, at))

    def passes(wave):
        for (m, steps), u in schedule(wave):
            for i in lower_lanes(wave, m, steps, (1, 2)).tolist():
                u[i] = solved[m[i], steps[i]]
            yield (m, steps), u

    def stores(wave, n, v, h):
        v = v.copy()
        for i in lower_lanes(wave, *n, (0, 1)).tolist():
            solved[n[0][i], n[1][i] + 1] = v[i].copy()
            v[i] += 0.01
        store(wave, n, v, h)

    monkeypatch.setattr(bracket, "build_extremal", raised)
    monkeypatch.setattr(bracket._Wave, "passes", passes)
    monkeypatch.setattr(bracket._Wave, "store", stores)
    spec = stochastic_jump_spec()
    u0 = sine(spec)
    kwargs = dict(tol_fixed=1e-6, max_outer=100)
    pairs = bracket_study(spec, u0, 12345, range(2), **kwargs)
    assert len(solved) == 2 * 2  # rows 1 and 2 of both paths' lower extremals
    for pair in pairs:
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        for res in (pair.minimal, pair.maximal):
            start, final, (*_, containment, starts) = sweep_alone(spec, u0, path, res.side,
                                                                  **kwargs)
            assert np.array_equal(res.extremal_start.values, start.values)
            assert np.array_equal(res.final.values, final.values)
            assert np.array_equal(res.containment_violations, containment)
            assert res.sweep_starts == starts
        assert min(pair.minimal.containment_violations) > 0.0
        assert min(pair.minimal.sweep_starts[1:]) > 2


def test_a_drift_value_changed_only_in_the_sign_of_zero_is_a_change():
    # the drift is -0.0 below s0 and +0.0 above: the lower extremal
    # e^{-2t} - 1 crosses s0 = -0.5, the first iterate stays at +0.0.  The
    # values are == equal but the forcing differs, so sweep 2 must step
    # from the row before the crossing, not be taken without stepping
    drift = DriftSpec("heaviside", s0=-0.5, low=-0.0, high=0.0, C_B=2.0)
    spec = dataclasses.replace(ode_sqrt_spec(n_steps=100), drift=drift)
    (pair,) = bracket_study(spec, ZERO, 0)
    res = pair.minimal
    ext_values = eval_b_values(drift, res.extremal_start.values)
    final_values = eval_b_values(drift, res.final.values)
    assert np.array_equal(ext_values, final_values)
    crossing = int(np.flatnonzero(np.signbit(ext_values[0, :, 0]))[0])
    assert 0 < crossing < spec.time_grid.n_steps
    assert res.sweep_starts == (0, crossing - 1)
    assert res.residual_history[-1] == 0.0
