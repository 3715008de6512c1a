import dataclasses
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from spdeorder import bracket, operators, solver
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
from spdeorder.config import ConfigError, resolve_config
from spdeorder.operators import DRIFT_KINDS, check_assumptions, eval_b_values
from spdeorder.scenarios import _bracket_gates, build_newton, build_problem_spec, build_u0


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
    # the ends of the drift's range, inf b / sup b, at every state; where an
    # end is infinite, the growth bound -C_B(1+|u|) / +C_B(1+|u|)
    u = np.array([0.0, 1.0, -0.5, -2.0])
    heaviside = DriftSpec("heaviside", low=-0.5, high=1.5)
    assert np.array_equal(extremal_forcing(MIN_SIDE, heaviside)(0, u), np.full(4, -0.5))
    assert np.array_equal(extremal_forcing(MAX_SIDE, heaviside)(0, u), np.full(4, 1.5))
    sqrt_plus = DriftSpec("sqrt_plus", C_B=2.0)
    assert np.array_equal(extremal_forcing(MIN_SIDE, sqrt_plus)(0, u), np.zeros(4))
    assert np.allclose(extremal_forcing(MAX_SIDE, sqrt_plus)(0, u), [2.0, 4.0, 3.0, 6.0])
    with pytest.raises(ValueError):
        extremal_forcing("sideways", heaviside)


def test_extremal_forcing_per_path_sides():
    # one side and one drift per member give each row the forcing of its
    # side and its drift, bit for bit: a constant end (-0.0 keeps its
    # sign) next to the growth bound of an unbounded side
    u = np.array([[0.0, 1.0, -0.5], [0.25, 3.0, -1.5], [0.1, 0.2, 0.3]])
    sides = (MIN_SIDE, MAX_SIDE, MIN_SIDE)
    drifts = [DriftSpec("sqrt_plus", C_B=1.7), DriftSpec("sqrt_plus", C_B=0.5),
              DriftSpec("heaviside", low=-0.0, high=2.9)]
    batch = extremal_forcing(sides, drifts[1])(0, u)
    mixed = extremal_forcing(sides, drifts)(0, u)
    for row, side, drift in zip(range(3), sides, drifts):
        assert np.array_equal(batch[row], extremal_forcing(side, drifts[1])(0, u[row]))
        assert np.array_equal(mixed[row], extremal_forcing(side, drift)(0, u[row]))
    assert np.array_equal(mixed[1], 0.5 * (1.0 + np.abs(u[1])))
    assert np.signbit(mixed[2]).all() and not mixed[2].any()


def test_extremal_odes_match_exponential_solutions(monkeypatch):
    # the growth branch of the extremal forcing: with sqrt_plus's range
    # taken as unbounded below too, u' = -(1+|u|) from 0 gives 1 - e^t;
    # u' = +(1+|u|), its own unbounded max side, gives e^t - 1
    kind = DRIFT_KINDS["sqrt_plus"]
    monkeypatch.setitem(DRIFT_KINDS, "sqrt_plus",
                        kind._replace(range=lambda s: (-np.inf, np.inf)))
    spec = ode_sqrt_spec(n_steps=10_000)
    lower = build_extremal(spec, ZERO, MIN_SIDE)
    upper = build_extremal(spec, ZERO, MAX_SIDE)
    times = lower.times()
    assert np.allclose(lower.values[0, :, 0], 1.0 - np.exp(times), atol=2e-4)
    assert np.allclose(upper.values[0, :, 0], np.exp(times) - 1.0, atol=5e-4)


# one drift of each kind, its finite range ends inside the sample grid
RANGE_CASES = {
    "zero": DriftSpec("zero"),
    "sqrt_plus": DriftSpec("sqrt_plus"),
    "heaviside": DriftSpec("heaviside", s0=0.5, low=-0.5, high=2.0, jump_side="mid"),
    "lipschitz_tanh": DriftSpec("lipschitz_tanh", scale=1.5),
    "piecewise_linear": DriftSpec("piecewise_linear",
                                  knots=((-1.0, -2.0), (0.0, 0.0), (2.0, 1.0))),
}


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("kind", sorted(DRIFT_KINDS))
def test_each_drift_kind_lies_in_its_range_and_its_ends_bracket_every_step(kind, p):
    # b on the sample grid lies in range(spec) and attains each finite end;
    # by the comparison principle of the frozen-drift step,
    # Step(u_n, inf b) <= Step(u_n, b(v)) <= Step(u_n, sup b) for every v
    assert sorted(RANGE_CASES) == sorted(DRIFT_KINDS)
    drift = RANGE_CASES[kind]
    low, high = DRIFT_KINDS[kind].range(drift)
    values = eval_b_values(drift, operators._SAMPLES)
    assert low <= values.min() and values.max() <= high
    for end, attained in ((low, values.min()), (high, values.max())):
        assert attained == end or not math.isfinite(end)
    spec = dataclasses.replace(stochastic_jump_spec(), drift=drift, spatial=SpatialOpSpec(p=p))
    rng = np.random.default_rng(7)
    shape = (64, spec.grid.n_interior)
    u_n, v = 2.0 * rng.standard_normal(shape), 3.0 * rng.standard_normal(shape)
    w_n = 0.1 * rng.standard_normal(shape[0])

    def step(h):
        return solver.implicit_step(spec, u_n, h, w_n, factor=solver.linear_factor(spec))[0]

    middle = step(eval_b_values(drift, v))
    if math.isfinite(low):
        assert np.all(step(np.full(shape, low)) <= middle)
    if math.isfinite(high):
        assert np.all(middle <= step(np.full(shape, high)))


_drift_keys = st.one_of(
    st.just({"drift.kind": "zero"}),
    st.just({"drift.kind": "sqrt_plus"}),
    st.builds(lambda scale: {"drift.kind": "lipschitz_tanh", "drift.scale": scale},
              st.floats(0.0, 3.0)),
    st.builds(lambda s0, low, jump: {"drift.kind": "heaviside", "drift.s0": s0,
                                     "drift.low": low, "drift.high": low + jump},
              st.floats(-3.0, 1.0), st.floats(-2.0, 1.0), st.floats(0.0, 2.0)),
    st.builds(lambda r0, v0, v1: {"drift.kind": "piecewise_linear",
                                  "drift.knots": (r0, v0, r0 + 1.0, v0 + v1)},
              st.floats(-3.0, 1.0), st.floats(-2.0, 1.0), st.floats(0.0, 2.0)),
)
_reaction_keys = st.one_of(
    st.just({}),
    st.builds(lambda slope, offset: {"reaction.kind": "linear", "reaction.slope": slope,
                                     "reaction.offset": offset},
              st.floats(-1.0, 1.0), st.floats(-6.0, 6.0)),
)


# derandomized: CI runs the same examples every time.  The piecewise-linear
# example reaches its growth bound C_B(1+|u|) (b = 1 + u on [0, 1] with
# C_B = 1): its bracket is the drift's range [0, 2], so it holds, where a
# growth-bound bracket, taken explicitly, was passed by the sweeps by O(dt).
# The xfail example is the one drift left on the growth bound, the max side
# of sqrt_plus, at its smallest admissible C_B = 1/2, where b touches the
# bound at u = 1: the sweeps, which sample the drift at the right end of
# each step, pass the upper extremal, whose forcing is explicit
@settings(max_examples=25, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(n=st.integers(2, 16), T=st.floats(0.01, 0.05), p=st.sampled_from([2.0, 3.0]),
       drift=_drift_keys, reaction=_reaction_keys,
       u0=st.sampled_from(["constant", "sine"]), amplitude=st.floats(-5.0, 5.0))
@example(n=16, T=0.05, p=3.0, drift={"drift.kind": "lipschitz_tanh"}, reaction={},
         u0="constant", amplitude=-2.0)
@example(n=2, T=0.05, p=2.0,
         drift={"drift.kind": "piecewise_linear", "drift.knots": (0.0, 1.0, 1.0, 2.0)},
         reaction={}, u0="constant", amplitude=0.0)
@example(n=16, T=0.05, p=2.0, drift={"drift.kind": "sqrt_plus", "drift.C_B": 0.5},
         reaction={}, u0="constant", amplitude=1.0).xfail(
    raises=AssertionError,
    reason="sqrt_plus at C_B = 1/2 touches its growth bound at u = 1: both sides' "
           "iterates pass the upper extremal by 1.8e-6")
def test_a_bracket_whose_assumptions_hold_is_an_interval(n, T, p, drift, reaction, u0,
                                                        amplitude):
    # the extremals, steps under inf b and sup b, are a sub- and a
    # supersolution of every sweep, below u = -1 too: every iterate stays
    # between them, the sweeps are monotone and the minimal final lies
    # below the maximal one
    try:
        cfg = resolve_config({"scenario": "custom", "grid.n": n, "time.T": T,
                              "spatial.p": p, "noise.K": 0, "u0.kind": u0,
                              "u0.amplitude": amplitude, **drift, **reaction})
        spec = build_problem_spec(cfg)
    except ConfigError:
        assume(False)
    assume(check_assumptions(spec.spatial, spec.drift, spec.reaction, spec.noise,
                             grid=spec.grid).passed)
    pairs = bracket_study(spec, build_u0(cfg, spec.grid), 0, tol_fixed=cfg["run.tol_fixed"],
                          max_outer=cfg["run.max_outer"], mono_tol=cfg["run.mono_tol"],
                          newton=build_newton(cfg))
    gates, _ = _bracket_gates(cfg, pairs)
    assert gates == {"monotone_sweeps": True, "interval": True, "min_below_max": True}


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


class Extremals:
    """The extremals of a study, as its march made them: each row of each
    extremal slot recorded as the wave's store takes it, row 0 the datum,
    and NaN on a row no pass made."""

    def __init__(self, wave):
        self.wave = wave
        self.rows = np.full((len(wave.extremals),) + wave.current.shape[1:], np.nan)
        self.rows[:, 0] = wave.current[0, 0]

    def of(self, m):
        """The (1, N + 1, n) extremal of member m."""
        return self.rows[self.wave.index[m]][None]


def record_extremals(monkeypatch):
    """Record the extremals of every study run from here on: returns the
    list of their Extremals, in the order the studies ran."""
    studies, store = [], bracket._Wave.store

    def recorded(wave, n, v):
        if not studies or studies[-1].wave is not wave:
            studies.append(Extremals(wave))
        lanes, steps = n
        ext = np.flatnonzero(lanes >= len(wave.current))
        studies[-1].rows[lanes[ext] - len(wave.current), steps[ext] + 1] = v[ext]
        store(wave, n, v)

    monkeypatch.setattr(bracket._Wave, "store", recorded)
    return studies


def study_extremals(studies):
    """The extremal of each member of the last study recorded, in member
    order."""
    ext = studies[-1]
    assert not np.isnan(ext.rows).any()  # every row of every slot was made
    return [ext.of(m) for m in range(len(ext.wave.current))]


def test_bracket_study_independent_of_batch(monkeypatch):
    studies = record_extremals(monkeypatch)
    spec = stochastic_jump_spec()
    u0 = sine(spec)
    M, kwargs = 5, dict(tol_fixed=1e-6, max_outer=100)

    def study(indices):
        pairs = bracket_study(spec, u0, 12345, indices, **kwargs)
        results = [r for p in pairs for r in (p.minimal, p.maximal)]
        # member m of P pairs is results[2 (m % P) + m // P]
        P = len(pairs)
        ext = study_extremals(studies)
        return pairs, results, [ext[i // 2 + (i % 2) * P] for i in range(2 * P)]

    batch, whole, whole_ext = study(range(M))
    alone = [study([m]) for m in range(M)]
    smaller = study(range(2))
    assert [p.path_index for p in batch] == list(range(M))
    assert len({r.n_sweeps for r in whole}) >= 2  # members stop at different sweeps
    for others, others_ext in (
            ([r for _, rs, _ in alone for r in rs], [e for *_, es in alone for e in es]),
            smaller[1:]):
        for ours, theirs, our_ext, their_ext in zip(others, whole, others_ext, whole_ext):
            assert ours.side == theirs.side
            assert np.array_equal(ours.final.values, theirs.final.values)
            assert np.array_equal(our_ext, their_ext)
            assert (ours.residual_history, ours.monotonicity_violations,
                    ours.containment_violations, ours.n_sweeps, ours.converged) == (
                theirs.residual_history, theirs.monotonicity_violations,
                theirs.containment_violations, theirs.n_sweeps, theirs.converged)
    # and each member is bit for bit its side swept alone
    for i, pair in enumerate(batch):
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        for res, ext in zip((pair.minimal, pair.maximal), whole_ext[2 * i:2 * i + 2]):
            start, final, (residuals, *_) = sweep_alone(spec, u0, path, res.side, **kwargs)
            assert np.array_equal(ext, start.values)
            assert np.array_equal(res.final.values, final.values)
            assert res.residual_history == residuals


def test_mixed_drift_batch_members_equal_their_sweeps_alone(monkeypatch):
    studies = record_extremals(monkeypatch)
    # from u0 = 0 at the jump s0 = 0 the jump value selects the solution, so
    # the two heaviside members differ; the tanh member has its own range
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
    # one extremal per distinct (noise path, side, forcing parameter): the
    # two heaviside drifts on path 0 share theirs, the tanh and heaviside
    # ones on path 1 differ in range.  The study's array holds the 2P
    # iterates
    extremals = study_extremals(studies)
    assert len(studies[-1].wave.extremals) == 6
    assert results[0].final.values.base.shape[0] == 2 * P
    assert [r.side for r in results] == [MIN_SIDE] * P + [MAX_SIDE] * P
    assert not np.array_equal(results[0].final.values, results[1].final.values)
    assert len({r.n_sweeps for r in results}) >= 2
    for m, res in enumerate(results):
        alone = dataclasses.replace(spec, drift=drifts[m % P])
        start, final, (residuals, *_) = sweep_alone(alone, u0, paths[m % P], res.side,
                                                    **kwargs)
        assert np.array_equal(extremals[m], start.values)
        assert np.array_equal(res.final.values, final.values)
        assert res.residual_history == residuals
        assert res.n_sweeps == len(residuals)


def test_extremal_slots_tell_the_sign_of_a_zero_range_end_apart(monkeypatch):
    # inf b = -0.0 and inf b = +0.0 are two forcings, bit for bit: the min
    # sides of the two heaviside drifts get an extremal each, and their max
    # sides, both under sup b = 1.0, share one
    studies = record_extremals(monkeypatch)
    spec = stochastic_jump_spec()
    path = sample_noise_path(3, 0, spec.noise.K, spec.time_grid)
    drifts = [DriftSpec("heaviside", s0=0.5, low=-0.0), DriftSpec("heaviside", s0=0.5, low=0.0)]
    results = iterate_bracket(spec, sine(spec), [path, path], drifts)
    extremals = study_extremals(studies)
    index = studies[-1].wave.index.tolist()
    assert len(studies[-1].wave.extremals) == 3
    assert index[0] != index[1] and index[2] == index[3]
    # the two min-side extremals differ only in the sign of zero of their
    # forcing: as values they are equal
    assert np.array_equal(extremals[0], extremals[1])
    for m, drift in enumerate(drifts * 2):
        alone = build_extremal(spec, sine(spec), results[m].side, path, drifts=[drift])
        assert np.array_equal(extremals[m], alone.values)


@pytest.mark.parametrize("p", [2.0, 3.0])
def test_the_extremals_of_a_study_equal_build_extremal(monkeypatch, p):
    # the extremal lanes of the study's march are bit for bit build_extremal,
    # batched or alone; at p = 2 each step starts from the direct linear
    # solve.  Members that share a (noise path, side, forcing parameter)
    # share one slot
    studies = record_extremals(monkeypatch)
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
    extremals = study_extremals(studies)
    P = len(paths)
    sides = [r.side for r in results]
    batch = build_extremal(spec, u0, sides, paths * 2, NewtonParams(), drifts * 2)
    for m, res in enumerate(results):
        alone = build_extremal(spec, u0, res.side, paths[m % P], drifts=[drifts[m % P]])
        assert np.array_equal(extremals[m], alone.values)
        assert np.array_equal(extremals[m][0], batch.values[m])
    index = studies[-1].wave.index
    for a, b in ((0, 1), (P, P + 1)):  # the two heaviside drifts on path 0
        assert index[a] == index[b]
    assert index[2] != index[3]
    assert len(set(index.tolist())) == len(studies[-1].wave.extremals) == 6


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


def test_a_pass_evaluates_the_drift_on_its_sweep_lanes_only(monkeypatch):
    # the extremal lanes step with their own forcing, so a pass takes the
    # drift only on the rows its sweep lanes read, once, and keeps those
    # rows for its store: each lane's predecessor's row, its extremal's
    # for sweep 1
    forcing, values = bracket._Wave.forcing, bracket._drift_values
    evaluated, passes = [], Counter()

    def counted(runs, rows):
        evaluated.append(len(rows))
        return values(runs, rows)

    def recorded(wave, n, u):
        start, L = len(evaluated), len(wave.k)
        h = forcing(wave, n, u)
        assert evaluated[start:] == [L] and len(h) == len(u)
        m, rows = n[0][:L], n[1][:L] + 1
        assert np.array_equal(wave.old, wave.current[m, rows])
        # sweep 1 reads its extremal's rows, which each member's row of
        # current holds ahead of it
        first = wave.k == 1
        assert np.array_equal(wave.old[first],
                              wave.ext[wave.index[m[first]], rows[first] - wave.base])
        passes["sweep-1 lanes"] += np.count_nonzero(wave.k == 1)
        passes["later lanes"] += np.count_nonzero(wave.k > 1)
        passes["with extremals" if L < len(u) else "sweeps only"] += 1
        return h

    monkeypatch.setattr(bracket, "_drift_values", counted)
    monkeypatch.setattr(bracket._Wave, "forcing", recorded)
    spec = stochastic_jump_spec()
    bracket_study(spec, sine(spec), 12345, range(3), tol_fixed=1e-6, max_outer=100)
    assert passes["with extremals"] > 0 and passes["sweeps only"] > 0
    assert passes["sweep-1 lanes"] > 0 and passes["later lanes"] > 0


def test_dual_jump_plap_bracket_builds_its_extremals_once(tmp_path, monkeypatch):
    calls, extremal_lanes = [], []
    solve, schedule = bracket.apply_S, bracket._Wave.passes

    def counted(spec, u_tilde, noise_paths, newton, wave):
        # each extremal's side is that of the members that read it
        sides = dict(zip(wave.index.tolist(), wave.sides))
        calls.append([(sides[e], drift.jump_side)
                      for e, drift in enumerate(wave.drifts[len(wave.current):])])
        assert len(noise_paths) == len(wave.drifts) == u_tilde.n_paths
        return solve(spec, u_tilde, noise_paths, newton, wave)

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
    # and the range [low, high], the only part of a bounded drift the
    # extremal forcing reads
    assert calls == [[(MIN_SIDE, "lower"), (MAX_SIDE, "lower")]]
    N = build_problem_spec(resolve_config({"scenario": "plap_bracket", "grid.n": 16,
                                           "time.T": 0.05})).time_grid.n_steps
    # both step in each of the first N passes, and in no other
    assert extremal_lanes[:N] == [2] * N and not any(extremal_lanes[N:])


def test_sweeps_write_their_iterates_in_place(monkeypatch):
    # the whole call holds the (2M, N+1, n) array of the iterates of its 2M
    # members and a window of WINDOW rows of each of its E = 2M extremals
    # (each path has its own), which never falls back here; the sweeps
    # need no next-iterate array, so the transient memory stays far below
    # the 2M rows of one more.  The wave's Workspace and the march's, about
    # 149 KB together here, are kept alive and counted apart, so a role
    # more or less does not move the bound on the rest
    made = {bracket: [], solver: []}  # the Workspaces each module makes
    waves = []

    def recorded(module):
        class Recorded(solver.Workspace):
            def __init__(self, n):
                super().__init__(n)
                made[module].append(self)
        return Recorded

    for module in made:
        monkeypatch.setattr(module, "Workspace", recorded(module))
    plan = bracket._Wave._plan

    def planned(wave):
        if not waves:
            waves.append(wave)
        plan(wave)

    monkeypatch.setattr(bracket._Wave, "_plan", planned)
    g = Grid(n_interior=64)
    spec = dataclasses.replace(stochastic_jump_spec(), grid=g,
                               time_grid=TimeGrid(T=0.2, n_steps=400),
                               noise=NoiseSpec.geometric(2))
    u0 = sine(spec)
    M = 3
    paths = [sample_noise_path(7, m, spec.noise.K, spec.time_grid) for m in range(M)]
    one_array = 2 * M * (spec.time_grid.n_steps + 1) * g.n_interior * 8
    window = 2 * M * bracket.WINDOW * g.n_interior * 8
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        results = iterate_bracket(spec, u0, paths, tol_fixed=1e-6, max_outer=100)
        after, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert max(r.n_sweeps for r in results) >= 3
    (wave,) = waves
    current = results[0].final.values.base
    assert current is wave.current and current.nbytes == one_array
    assert all(r.final.values.base is current for r in results)
    assert wave.ext.shape == (2 * M, bracket.WINDOW, g.n_interior)  # no fallback
    (wave_work,), (march_work,) = made[bracket], made[solver]
    buffers = sum(array.nbytes for work in (wave_work, march_work)
                  for array in work.arrays.values())
    # the iterates, which the results view, the window and the containment
    # defect of each iterate row, which the wave held, and less than 64 KB
    # of the wave's per-level arrays, plan, histories and last drift values
    # (23-38 KB here); the whole extremals, another one_array, are gone
    retained = after - before - buffers
    held = one_array + window + wave.excess.nbytes
    assert held <= retained < held + 2**16
    # after holds the buffers too: the peak above it is the rest of the
    # transient (145 KB here)
    assert peak - after < 0.125 * one_array


def test_a_pass_allocates_only_its_states_and_drift_values(monkeypatch):
    # the march's Workspace holds every temporary of the Newton step and of
    # the store's defects, sized to the largest pass so far.  A pass of L
    # lanes that is no larger than one before it makes three (L, n)
    # arrays of its own, its state gather, the drift values it hands the
    # step and the states the step returns, and frees the last pass's;
    # above the level it starts at, it allocates less than those three.
    # The step's own temporaries were a dozen such arrays
    spec = dataclasses.replace(stochastic_jump_spec(), grid=Grid(n_interior=64))
    paths = [sample_noise_path(3, m, spec.noise.K, spec.time_grid) for m in range(12)]
    state_bytes = spec.grid.n_interior * 8  # one row of a (L, n) array
    store = bracket._Wave.store
    peaks = []  # (lanes, peak above the pass's starting level)
    level = [0]

    def measured(wave, n, v):
        store(wave, n, v)
        peaks.append((len(v), tracemalloc.get_traced_memory()[1] - level[0]))
        tracemalloc.reset_peak()
        level[0] = tracemalloc.get_traced_memory()[0]

    monkeypatch.setattr(bracket._Wave, "store", measured)
    tracemalloc.start()
    try:
        iterate_bracket(spec, sine(spec), paths, tol_fixed=1e-6, max_outer=100)
    finally:
        tracemalloc.stop()
    largest = np.maximum.accumulate([lanes for lanes, _ in peaks])
    checked = [(lanes, peak) for (lanes, peak), before in zip(peaks[1:], largest)
               if 64 <= lanes <= before]
    assert len(checked) >= 20
    for lanes, peak in checked:
        assert peak < 3 * lanes * state_bytes, (lanes, peak / (lanes * state_bytes))


def test_bracket_results_are_read_only_views(monkeypatch):
    studies = record_extremals(monkeypatch)
    spec = stochastic_jump_spec()
    pairs = bracket_study(spec, sine(spec), 1, range(3), tol_fixed=1e-6, max_outer=100)
    for pair in pairs:
        for res in (pair.minimal, pair.maximal):
            traj = res.final
            assert traj.n_paths == 1
            assert traj.values.base is not None  # a view, not a copy
            assert not traj.values.flags.writeable
    # every path of the batch shares its members' array; the extremals are
    # not kept, and each (path, side) had a slot of its own
    (study,) = studies
    assert pairs[0].minimal.final.values.base is pairs[2].maximal.final.values.base
    assert pairs[0].minimal.final.values.base is study.wave.current
    assert not hasattr(pairs[0].minimal, "extremal_start")
    assert sorted(study.wave.index.tolist()) == list(range(6))


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


def plap_dual_s0():
    # the CI dual_s0 config at test size: from zero at s0 = 0 the min
    # side's first sweep stays at s0, where the two jump sides differ, so
    # the flipped drift's min-side twin splits from its owner
    cfg = resolve_config({"scenario": "plap_bracket", "drift.s0": 0.0, "u0.kind": "zero",
                          "grid.n": 16, "time.T": 0.05})
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
    "plap_dual_s0": (plap_dual_s0, {"0", "none"}, {}),
    # the tanh drift changes on row 1 in every sweep
    "lipschitz_tanh": (lambda: with_sine(dataclasses.replace(
        stochastic_jump_spec(), drift=DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5)),
        2), {"0"}, {}),
    # the min side's extremal is its minimal solution 0, since inf b = 0:
    # one sweep, from step 0, reproduces it
    "sqrt_plus_ode": (lambda: (ode_sqrt_spec(n_steps=200), ZERO, None, 1), {"0"}, {}),
    "sqrt_plus_pde_from_zero": (sqrt_plus_pde_from_zero, {"0"}, {}),
    "max_outer_1": (lambda: with_sine(stochastic_jump_spec(), 3), {"0"}, {"max_outer": 1}),
    "max_outer_2": (lambda: with_sine(stochastic_jump_spec(), 3), {"0", "later"},
                    {"max_outer": 2}),
    # between the second and third sweeps' residuals of some members: they
    # stop after a sweep that steps, and the sweep found to follow (path 3's
    # min side, from row 25) is dropped
    "tol_between_sweeps": (lambda: with_sine(stochastic_jump_spec(), 5), ALL_STARTS,
                           {"tol_fixed": 2e-3}),
    "one_step": (lambda: with_sine(dataclasses.replace(
        stochastic_jump_spec(), time_grid=TimeGrid(T=0.002, n_steps=1)), 3),
        {"0", "none"}, {}),
}


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_sweeps_from_their_start_steps_equal_full_sweeps(monkeypatch, case):
    studies = record_extremals(monkeypatch)
    build, kinds, arguments = REFERENCE_CASES[case]
    spec, u0, drifts, M = build()
    kwargs = dict(tol_fixed=1e-6, max_outer=100) | arguments
    pairs = bracket_study(spec, u0, 12345, range(M), drifts, **kwargs)
    extremals = study_extremals(studies)
    drifts = drifts or (spec.drift,)
    N = spec.time_grid.n_steps
    all_starts = []
    for i, pair in enumerate(pairs):
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        for res, m in ((pair.minimal, i), (pair.maximal, len(pairs) + i)):
            alone = dataclasses.replace(spec, drift=drifts[i // M])
            start, final, (*defects, starts) = sweep_alone(alone, u0, path, res.side,
                                                           **kwargs)
            assert np.array_equal(extremals[m], start.values)
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


# the passes and lane-steps (extremal lanes included) of each reference
# study: every lane steps in the first pass its predecessor allows, and a
# twin steps none until it splits (the flipped jump side of
# plap_p3_dual_jump never does: its study steps the configured drift's
# 264 lanes alone)
REFERENCE_SCHEDULES = {
    "heaviside_batch": (52, 850),
    "lipschitz_tanh": (98, 1000),
    "max_outer_1": (51, 600),
    "max_outer_2": (52, 850),
    "one_step": (2, 12),
    "plap_dual_s0": (51, 250),
    "plap_p3_dual_jump": (53, 264),
    "sqrt_plus_ode": (789, 4800),
    "sqrt_plus_pde_from_zero": (666, 3800),
    "tol_between_sweeps": (53, 1402),
}

# the Newton lane-iterations (the rows of every Newton solve) of each
# reference study, 0 where every step is a direct solve (p = 2) or
# explicit (ode).  A lane starts Newton from the predictor where its
# residual is the smaller; the passes and lane-steps above do not depend
# on the start
REFERENCE_NEWTON_ROWS = {
    "heaviside_batch": 1810,
    "lipschitz_tanh": 2052,
    "max_outer_1": 1280,
    "max_outer_2": 1810,
    "one_step": 36,
    "plap_dual_s0": 0,
    "plap_p3_dual_jump": 544,
    "sqrt_plus_ode": 0,
    "sqrt_plus_pde_from_zero": 3440,
    "tol_between_sweeps": 2960,
}


def _counted(monkeypatch):
    """Count the passes, lane-steps (extremal lanes included) and Newton
    lane-iterations (the rows of every Newton solve) of every study's march
    from here on."""
    schedule, solve = bracket._Wave.passes, solver.solve_banded
    counts = Counter()

    def passes(wave):
        for n, u in schedule(wave):
            counts["passes"] += 1
            counts["lane-steps"] += len(n[0])
            yield n, u

    def solve_banded(off, diag, rhs):
        counts["lane-iterations"] += len(rhs)
        return solve(off, diag, rhs)

    monkeypatch.setattr(bracket._Wave, "passes", passes)
    monkeypatch.setattr(solver, "solve_banded", solve_banded)
    return counts


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_each_reference_study_keeps_its_schedule(monkeypatch, case):
    # a lane that waits a pass too long still takes the values of its
    # sweep alone, so the oracle tests above cannot see it; its pass and
    # lane-step counts can.  In the tanh, sqrt_plus and tol_between_sweeps
    # cases some levels wait before their first step
    counts = _counted(monkeypatch)
    build, _, arguments = REFERENCE_CASES[case]
    spec, u0, drifts, M = build()
    bracket_study(spec, u0, 12345, range(M), drifts,
                  **(dict(tol_fixed=1e-6, max_outer=100) | arguments))
    assert (counts["passes"], counts["lane-steps"]) == REFERENCE_SCHEDULES[case]
    assert counts["lane-iterations"] == REFERENCE_NEWTON_ROWS[case]


# the reference studies whose waiting levels keep the extremals' early rows
# in use, so that their window falls back to all N + 1 rows: a continuous
# drift's level waits while the one before it may be final.  A jump
# drift's levels trail the extremals by a few rows, and its window slides
FALLS_BACK = {"lipschitz_tanh", "sqrt_plus_ode", "sqrt_plus_pde_from_zero"}


def record_windows(monkeypatch):
    """(front, base, width) of the window after each move of every study
    run from here on."""
    moves, fit = [], bracket._Wave._fit

    def recorded(wave):
        window = (wave.base, wave.width)
        fit(wave)
        if (wave.base, wave.width) != window:
            moves.append((int(wave.steps[len(wave.k)]), wave.base, wave.width))

    monkeypatch.setattr(bracket._Wave, "_fit", recorded)
    return moves


@pytest.mark.parametrize("case", sorted(REFERENCE_CASES))
def test_only_waiting_levels_make_the_window_fall_back(monkeypatch, case):
    studies, moves = record_extremals(monkeypatch), record_windows(monkeypatch)
    build, _, arguments = REFERENCE_CASES[case]
    spec, u0, drifts, M = build()
    bracket_study(spec, u0, 12345, range(M), drifts,
                  **(dict(tol_fixed=1e-6, max_outer=100) | arguments))
    wave, N = studies[-1].wave, spec.time_grid.n_steps
    if N + 1 <= bracket.WINDOW:  # the window is every row
        assert wave.ext.shape[1] == N + 1 and not moves
    elif case in FALLS_BACK:  # once, to every row, keeping the window's
        ((front, base, width),) = moves
        assert (base, width) == (0, N + 1) and wave.ext.shape[1] == N + 1
        assert front == bracket.WINDOW - 1
    else:
        assert moves and wave.ext.shape[1] == bracket.WINDOW
        assert all(width == bracket.WINDOW for *_, width in moves)
        # each move frees at least half the window
        assert all(2 * (front + 1 - base) <= bracket.WINDOW for front, base, _ in moves)


@pytest.mark.parametrize("case", ["tanh_waits_from_row_0", "loose_tol_waits_later"])
def test_a_window_that_falls_back_keeps_every_member_bit_for_bit(monkeypatch, case):
    # a tanh drift's levels wait at row 0 while the extremals run on, so
    # the window of the whole study falls back at once, with the heaviside
    # members' slots in it.  At tol_fixed = 2e-3 a heaviside level that
    # starts later waits there: the window slides, then falls back with
    # the rows from its base on.  Every member, extremal, defect and start
    # is still its sweep alone
    studies, moves = record_extremals(monkeypatch), record_windows(monkeypatch)
    spec = stochastic_jump_spec()
    u0, kwargs = sine(spec), dict(tol_fixed=1e-6, max_outer=100)
    drifts = (spec.drift, DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5))
    if case == "loose_tol_waits_later":
        spec = dataclasses.replace(spec, time_grid=TimeGrid(T=0.2, n_steps=100))
        kwargs["tol_fixed"], drifts = 2e-3, drifts[:1]
    pairs = bracket_study(spec, u0, 12345, range(2), drifts, **kwargs)
    N, M = spec.time_grid.n_steps, 2
    widths = [width for *_, width in moves]
    assert widths == ([N + 1] if len(drifts) == 2 else [bracket.WINDOW, N + 1])
    assert moves[-1][1] == 0 and (len(moves) == 1 or moves[0][1] > 0)
    extremals = study_extremals(studies)
    for i, pair in enumerate(pairs):
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        alone = dataclasses.replace(spec, drift=drifts[i // M])
        for res, m in ((pair.minimal, i), (pair.maximal, len(pairs) + i)):
            start, final, (*defects, starts) = sweep_alone(alone, u0, path, res.side, **kwargs)
            assert np.array_equal(extremals[m], start.values)
            assert np.array_equal(res.final.values, final.values)
            for ours, theirs in zip((res.residual_history, res.monotonicity_violations,
                                     res.containment_violations), defects):
                assert np.array_equal(ours, theirs)
            assert res.sweep_starts == starts


def test_a_twin_that_never_splits_steps_no_lane(monkeypatch):
    # no iterate of the flipped jump side hits s0, so its members, which
    # share the configured drift's extremals, track them to the end
    counts = _counted(monkeypatch)
    spec, u0, drifts, M = plap_p3_dual_jump()
    kwargs = dict(tol_fixed=1e-6, max_outer=100)
    owner, twin = bracket_study(spec, u0, 12345, range(M), drifts, **kwargs)
    both = dict(counts)
    counts.clear()
    (alone,) = bracket_study(spec, u0, 12345, range(M), drifts[:1], **kwargs)
    assert both == counts
    for ours, theirs, own in zip((twin.minimal, twin.maximal), (owner.minimal, owner.maximal),
                                 (alone.minimal, alone.maximal)):
        assert np.array_equal(ours.final.values.view(np.int64),
                              theirs.final.values.view(np.int64))
        assert np.array_equal(ours.final.values, own.final.values)
        assert ours.residual_history == theirs.residual_history
        assert ours.sweep_starts == theirs.sweep_starts


def test_a_twin_that_never_splits_leaves_its_iterate_row_untouched():
    # the extremal rows go to the rows of current of the members that step
    # lanes of their own, and a tracking twin steps no lane, so nothing
    # writes the flipped jump side's iterate rows of the study's array
    # (members 1 and 3) past u0 at row 0
    spec, u0, drifts, M = plap_p3_dual_jump()
    owner, twin = bracket_study(spec, u0, 12345, range(M), drifts,
                                tol_fixed=1e-6, max_outer=100)
    buf = owner.minimal.final.values.base
    assert buf.shape[0] == 4  # the 4 members
    assert twin.minimal.final.values.base is buf
    for own, tracking in ((0, 1), (2, 3)):
        assert np.array_equal(buf[tracking, 0], u0)
        assert not buf[tracking, 1:].any()
        assert buf[own, 1:].any()


def test_a_twin_does_not_split_on_other_members_rows(monkeypatch):
    # the flipped jump side is a twin of the configured drift, and no
    # iterate of theirs hits s0.  A tanh drift of another range sweeps from
    # extremals of its own, and the flipped drift's values differ from its
    # own on every row it writes: rows of no owner of the twin's, so the
    # twin never splits
    def unused(wave, o, t):
        raise AssertionError(f"twin {t} split from {o}")

    monkeypatch.setattr(bracket._Wave, "_clone", unused)
    studies = record_extremals(monkeypatch)
    spec, u0, (heaviside, flipped), M = plap_p3_dual_jump()
    drifts = (heaviside, flipped, DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5))
    kwargs = dict(tol_fixed=1e-6, max_outer=100)
    pairs = bracket_study(spec, u0, 12345, range(M), drifts, **kwargs)
    extremals = study_extremals(studies)
    P = len(pairs)

    def bits(values):
        return np.asarray(values, dtype=float).view(np.int64)

    for i, (pair, drift) in enumerate(zip(pairs, drifts)):
        (alone,) = bracket_study(spec, u0, 12345, range(M), (drift,), **kwargs)
        alone_ext = study_extremals(studies)
        for ours, theirs, a_ext, b_ext in (
                (pair.minimal, alone.minimal, extremals[i], alone_ext[0]),
                (pair.maximal, alone.maximal, extremals[P + i], alone_ext[1])):
            for a, b in ((a_ext, b_ext),
                         (ours.final.values, theirs.final.values),
                         (ours.residual_history, theirs.residual_history),
                         (ours.monotonicity_violations, theirs.monotonicity_violations),
                         (ours.containment_violations, theirs.containment_violations)):
                assert np.array_equal(bits(a), bits(b))
            assert ours.sweep_starts == theirs.sweep_starts


def test_drifts_of_different_kinds_with_equal_forcing_parameters_split_at_the_first_extremal_row(
        monkeypatch):
    # a heaviside drift on [-0.5, 0.5] and a tanh drift of scale 0.5 have
    # one range, so they share their extremals on both sides, and their
    # values differ on the extremals' first row: both twins split in the
    # pass that makes it, before any sweep steps, so every sweep lane of
    # both drifts steps
    counts = _counted(monkeypatch)
    clone, split_at = bracket._Wave._clone, []

    def recorded(wave, o, t):
        split_at.append((t, int(wave.have[0, 0])))  # the rows the extremals hold
        clone(wave, o, t)

    monkeypatch.setattr(bracket._Wave, "_clone", recorded)
    spec = dataclasses.replace(stochastic_jump_spec(),
                               drift=DriftSpec("heaviside", s0=0.5, low=-0.5, high=0.5))
    tanh = DriftSpec("lipschitz_tanh", scale=0.5, C_B=2.5)  # C_B plays no part
    u0, kwargs = sine(spec), dict(tol_fixed=1e-6, max_outer=100)
    studies = record_extremals(monkeypatch)
    pairs = bracket_study(spec, u0, 12345, [0], (spec.drift, tanh), **kwargs)
    extremals = study_extremals(studies)
    assert sorted(split_at) == [(1, 1), (3, 1)]  # each min- and max-side twin
    both = counts["lane-steps"]
    for drift in (spec.drift, tanh):
        counts.clear()
        bracket_study(spec, u0, 12345, [0], (drift,), **kwargs)
        both -= counts["lane-steps"]
    assert both == -2 * spec.time_grid.n_steps  # the shared extremals' lanes
    path = sample_noise_path(12345, 0, spec.noise.K, spec.time_grid)
    for i, (pair, drift) in enumerate(zip(pairs, (spec.drift, tanh))):
        for res, m in ((pair.minimal, i), (pair.maximal, 2 + i)):
            start, final, (*defects, starts) = sweep_alone(
                dataclasses.replace(spec, drift=drift), u0, path, res.side, **kwargs)
            assert np.array_equal(extremals[m], start.values)
            assert np.array_equal(res.final.values, final.values)
            for ours, theirs in zip((res.residual_history, res.monotonicity_violations,
                                     res.containment_violations), defects):
                assert np.array_equal(ours, theirs)
            assert res.sweep_starts == starts


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

    def stores(wave, n, v):
        L = len(wave.k)
        m, steps = n[0][:L], n[1][:L]
        wave.made += len(n[0]) > L
        wave.writer[m, steps + 1] = wave.k
        store(wave, n, v)

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
    studies = record_extremals(monkeypatch)  # the raised rows, as the store takes them
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

    def stores(wave, n, v):
        v = v.copy()
        for i in lower_lanes(wave, *n, (0, 1)).tolist():
            solved[n[0][i], n[1][i] + 1] = v[i].copy()
            v[i] += 0.01
        store(wave, n, v)

    monkeypatch.setattr(bracket, "build_extremal", raised)
    monkeypatch.setattr(bracket._Wave, "passes", passes)
    monkeypatch.setattr(bracket._Wave, "store", stores)
    spec = stochastic_jump_spec()
    u0 = sine(spec)
    kwargs = dict(tol_fixed=1e-6, max_outer=100)
    pairs = bracket_study(spec, u0, 12345, range(2), **kwargs)
    extremals = study_extremals(studies)
    assert len(solved) == 2 * 2  # rows 1 and 2 of both paths' lower extremals
    for i, pair in enumerate(pairs):
        path = sample_noise_path(12345, pair.path_index, spec.noise.K, spec.time_grid)
        for res, m in ((pair.minimal, i), (pair.maximal, 2 + i)):
            start, final, (*_, containment, starts) = sweep_alone(spec, u0, path, res.side,
                                                                  **kwargs)
            assert np.array_equal(extremals[m], start.values)
            assert np.array_equal(res.final.values, final.values)
            assert np.array_equal(res.containment_violations, containment)
            assert res.sweep_starts == starts
        assert min(pair.minimal.containment_violations) > 0.0
        assert min(pair.minimal.sweep_starts[1:]) > 2


def test_a_drift_value_changed_only_in_the_sign_of_zero_is_a_change(monkeypatch):
    # the drift is +0.0 on (0, 1) and -0.0 from r = 1 on: the lower
    # extremal 1.5 - t, under inf b = -1, crosses r = 1, while the first
    # iterate, under the forcing -0.0 and +0.0, stays at 1.5.  The values
    # are == equal but the forcing differs, so sweep 2 must step from the
    # row before the crossing, not be taken without stepping
    drift = DriftSpec("piecewise_linear", knots=((-1.0, -1.0), (0.0, 0.0), (1.0, -0.0)))
    spec = dataclasses.replace(ode_sqrt_spec(n_steps=100), drift=drift)
    studies = record_extremals(monkeypatch)
    (pair,) = bracket_study(spec, np.full(1, 1.5), 0)
    res = pair.minimal
    ext_values = eval_b_values(drift, study_extremals(studies)[0])
    final_values = eval_b_values(drift, res.final.values)
    assert np.array_equal(ext_values, final_values)
    assert np.all(res.final.values == 1.5)
    crossing = int(np.flatnonzero(~np.signbit(ext_values[0, :, 0]))[0])
    assert 0 < crossing < spec.time_grid.n_steps
    assert res.sweep_starts == (0, crossing - 1)
    assert res.residual_history[-1] == 0.0
