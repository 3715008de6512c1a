import tracemalloc

import numpy as np
import pytest

from spdeorder import (
    ComparisonReport,
    DriftSpec,
    Grid,
    NoiseSpec,
    ProblemSpec,
    ReactionSpec,
    SpatialOpSpec,
    TimeGrid,
    Trajectory,
    comparison_study,
    constant_forcing,
    energy_series,
    run_coupled,
    sigma_energy_trace,
)
from spdeorder.noise import sample_noise_path


def make_spec(grid=None, n_steps=50, T=0.1, K=0, p=2.0):
    return ProblemSpec(
        grid=grid or Grid(n_interior=16),
        time_grid=TimeGrid(T=T, n_steps=n_steps),
        spatial=SpatialOpSpec(p=p),
        drift=DriftSpec("zero"),
        reaction=ReactionSpec(),
        noise=NoiseSpec.geometric(K) if K else NoiseSpec(),
    )


def const(spec, value):
    """The constant datum value on the nodes of spec's grid."""
    return np.full(spec.grid.n_interior, float(value))


ODE_SPEC = ProblemSpec(
    grid=Grid.ode(),
    time_grid=TimeGrid(T=1.0, n_steps=100),
    spatial=SpatialOpSpec(),
    drift=DriftSpec("zero"),
    reaction=ReactionSpec(),
    noise=NoiseSpec(),
)


def test_identical_specs_zero_energy():
    spec = make_spec(K=2)
    path = sample_noise_path(3, 0, 2, spec.time_grid)
    t1, t2 = run_coupled(spec, const(spec, 1.0), const(spec, 1.0), path)
    assert np.all(energy_series(t1, t2) == 0.0)
    assert np.all(energy_series(t2, t1) == 0.0)


def test_ode_opposite_forcings_exact_energy():
    # h = -1 gives u = -t, h = +1 gives u = +t (explicit in ode mode)
    t_lo, t_hi = run_coupled(ODE_SPEC, [0.0], [0.0], None, constant_forcing(-1.0),
                             constant_forcing(1.0))
    times = t_lo.times()
    assert np.allclose(t_lo.values[0, :, 0], -times)
    assert np.allclose(t_hi.values[0, :, 0], times)
    assert np.all(energy_series(t_lo, t_hi) == 0.0)
    # transposing the arguments exposes the full gap (2t)^2
    assert np.allclose(energy_series(t_hi, t_lo), (2.0 * times) ** 2)


def test_comparison_study_ordered_data_passes():
    spec = make_spec(K=4)
    report = comparison_study(spec, const(spec, 0.0), const(spec, 1.0), M=8, master_seed=7,
                              tol=1e-10)
    assert report.passed
    assert report.worst_energy == 0.0
    assert report.n_paths == 8


def test_comparison_study_reversed_order_fails():
    spec = make_spec(K=4)
    report = comparison_study(spec, const(spec, 1.0), const(spec, 0.0), M=4, master_seed=7,
                              tol=1e-10)
    assert not report.passed
    assert report.worst_energy > 0.1
    assert report.worst_path >= 0
    assert "passed = false" in report.to_text()


def test_comparison_study_path_ordered_reduction():
    spec = make_spec(K=3)
    hi, lo = const(spec, 0.5), const(spec, 0.0)
    report = comparison_study(spec, hi, lo, M=6, master_seed=11)
    stacked = np.stack([
        energy_series(*run_coupled(spec, hi, lo, sample_noise_path(11, m, 3, spec.time_grid)))
        for m in range(6)])
    assert np.array_equal(report.max_energy, np.max(stacked, axis=0))
    assert np.array_equal(report.mean_energy, np.sum(stacked, axis=0) / 6)
    worst_path, worst_step = divmod(int(np.argmax(stacked)), stacked.shape[1])
    assert report.worst_energy > 0.0
    assert (report.worst_path, report.worst_step, report.worst_energy) == (
        worst_path, worst_step, float(stacked[worst_path, worst_step]))


def test_comparison_study_tie_goes_to_the_first_path():
    # without noise the three paths are one pair, so every step ties
    # across paths: path 0 wins, and the reductions see three equal rows
    spec = make_spec()
    hi, lo = const(spec, 0.5), const(spec, 0.0)
    report = comparison_study(spec, hi, lo, M=3, master_seed=11)
    single = energy_series(*run_coupled(spec, hi, lo, None))
    assert (report.worst_path, report.worst_step) == (0, int(np.argmax(single)))
    assert report.worst_energy == single.max() > 0.0
    assert np.array_equal(report.max_energy, single)
    # (e + e + e) / 3 rounds away from e on some steps: the mean is the
    # path-order sum over M, not the single path's energy
    assert np.array_equal(report.mean_energy, (single + single + single) / 3)


def test_report_keeps_path_zero_pair():
    # the scenario's trajectory and sigma-trace artifacts reuse this pair
    spec = make_spec(K=3)
    lo, hi = const(spec, 0.0), const(spec, 0.5)
    report = comparison_study(spec, lo, hi, M=3, master_seed=11)
    t1, t2 = run_coupled(spec, lo, hi, sample_noise_path(11, 0, 3, spec.time_grid))
    assert np.array_equal(report.first_pair[0].values, t1.values)
    assert np.array_equal(report.first_pair[1].values, t2.values)


def test_energies_csv(tmp_path):
    spec = make_spec()
    report = comparison_study(spec, const(spec, 0.0), const(spec, 1.0), M=1, master_seed=0)
    out = tmp_path / "energies.csv"
    report.energies_to_csv(out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "t,max_energy,mean_energy"
    assert len(lines) == 1 + spec.time_grid.n_steps + 1


def test_sigma_trace_zero_when_ordered():
    t_lo, t_hi = run_coupled(ODE_SPEC, [0.0], [1.0], None)
    for eps in (1.0, 0.1, 1e-3):
        assert np.all(sigma_energy_trace(t_lo, t_hi, eps) == 0.0)


def test_sigma_trace_constant_gap_oracle():
    # constant difference c above eps: trace is c^2/2 - 0.1 eps^2 per unit mass
    c = 2.0
    t_lo, t_hi = run_coupled(ODE_SPEC, [0.0], [c], None)
    for eps in (0.5, 1e-2):
        trace = sigma_energy_trace(t_hi, t_lo, eps)
        assert np.allclose(trace, c * c / 2.0 - 0.1 * eps * eps)


def test_sigma_trace_monotone_in_eps():
    # as eps decreases the trace increases toward the positive-part energy / 2
    rng = np.random.default_rng(2)
    g = Grid(n_interior=16)
    tg = TimeGrid(T=1.0, n_steps=3)
    vals_1 = rng.standard_normal((1, 4, 16))
    vals_2 = rng.standard_normal((1, 4, 16))
    t1 = Trajectory(g, tg, vals_1)
    t2 = Trajectory(g, tg, vals_2)
    traces = [sigma_energy_trace(t1, t2, eps) for eps in (1.0, 0.3, 0.05, 1e-4)]
    for a, b in zip(traces, traces[1:]):
        assert np.all(a <= b + 1e-15)
    half_energy = 0.5 * energy_series(t1, t2)
    assert np.allclose(traces[-1], half_energy, atol=1e-6)


def test_sigma_trace_shape_mismatch():
    g = Grid(n_interior=4)
    t1 = Trajectory(g, TimeGrid(T=1.0, n_steps=2), np.zeros((1, 3, 4)))
    t2 = Trajectory(g, TimeGrid(T=1.0, n_steps=3), np.zeros((1, 4, 4)))
    with pytest.raises(ValueError):
        sigma_energy_trace(t1, t2, 0.1)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_comparison_study_equals_per_path_coupled_solves(p):
    # 7 paths and both sides in one batch against each path solved alone;
    # side 1 has no forcing, side 2 a constant one
    spec = make_spec(K=3, p=p)
    hi, lo = const(spec, 0.5), const(spec, 0.0)
    h_lo = constant_forcing(-0.5)
    report = comparison_study(spec, hi, lo, M=7, master_seed=11, forcing_2=h_lo)
    pairs = [run_coupled(spec, hi, lo, sample_noise_path(11, m, 3, spec.time_grid),
                         forcing_2=h_lo) for m in range(7)]
    if p == 3.0:
        assert all(sum(t.newton_iters) > 0 for pair in pairs for t in pair)
    stacked = np.stack([energy_series(*pair) for pair in pairs])
    assert np.array_equal(report.max_energy, np.max(stacked, axis=0))
    assert np.array_equal(report.mean_energy, np.sum(stacked, axis=0) / 7)
    worst_path, worst_step = divmod(int(np.argmax(stacked)), stacked.shape[1])
    assert report.worst_energy > 0.0
    assert (report.worst_path, report.worst_step, report.worst_energy) == (
        worst_path, worst_step, float(stacked[worst_path, worst_step]))
    for ours, theirs in zip(report.first_pair, pairs[0]):
        assert ours.n_paths == 1
        assert np.array_equal(ours.values, theirs.values)


def test_comparison_study_memory_is_path_zero_noise_and_energies():
    # the heat_comparison setting at M = 40: n = 64, 250 steps, K = 8.  Only
    # path 0's pair of states is kept; the step's (2M, n) temporaries must
    # fit in the stored states of two more paths.  Batches of 5 stored
    # paths, both sides, do not.  The noise is held as one weight per
    # member and step, never as the paths' K increments per step.
    M, N, n, K = 40, 250, 64, 8
    grid = Grid(n_interior=n)
    spec = make_spec(grid=grid, n_steps=N, T=0.25, K=K)
    data = (const(spec, 0.0), const(spec, 1.0))
    forcings = dict(forcing_1=constant_forcing(-0.5), forcing_2=constant_forcing(0.5))
    comparison_study(spec, *data, M=2, master_seed=3, **forcings)  # warm up
    tracemalloc.start()
    try:
        report = comparison_study(spec, *data, M=M, master_seed=3, **forcings)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    path_states = 2 * (N + 1) * n * 8  # one path, both sides
    noise = 2 * M * N * 8  # the (N, 2M) noise weights
    energies = M * (N + 1) * 8
    assert report.n_paths == M and report.first_pair[0].values.nbytes == path_states // 2
    assert peak < 3 * path_states + noise + energies
