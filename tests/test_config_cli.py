import contextlib
import dataclasses
import errno
import io
import os
import tempfile

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spdeorder import scenarios
from spdeorder.cli import main
from spdeorder.core import U0_KINDS
from spdeorder.config import (
    ConfigError,
    DEFAULTS,
    SCENARIOS,
    load_config,
    parse_config_text,
    resolve_config,
)
from spdeorder.operators import (
    DRIFT_KINDS,
    NOISE_KINDS,
    REACTION_KINDS,
    eval_b_values,
    eval_f_values,
    eval_g_values,
)
from spdeorder.scenarios import build_problem_spec
from spdeorder.solver import Trajectory


def test_schema_and_defaults_agree():
    cfg = resolve_config({})
    for key, value in DEFAULTS.items():
        assert cfg[key] == value


def test_parse_basic_document():
    raw = parse_config_text(
        "# comment\n"
        "\n"
        "scenario = plap_bracket\n"
        "grid.n = 32\n"
        "time.dt = 0.002\n"
        "run.dual_jump_side = true\n"
        "run.eps_list = 0.01,0.0001\n"
    )
    assert raw["scenario"] == "plap_bracket"
    assert raw["grid.n"] == 32
    assert raw["time.dt"] == 0.002
    assert raw["run.dual_jump_side"] is True
    assert raw["run.eps_list"] == (0.01, 0.0001)


@pytest.mark.parametrize("raw", ["false", "No", "0", "OFF"])
def test_false_spellings_parse_as_false(raw):
    assert parse_config_text(f"run.dual_jump_side = {raw}\n")["run.dual_jump_side"] is False


def test_unparseable_boolean_names_key():
    with pytest.raises(ConfigError, match="'run.dual_jump_side'.*'maybe'.*boolean"):
        parse_config_text("run.dual_jump_side = maybe\n")


def test_unknown_scenario_rejected():
    with pytest.raises(ConfigError, match="'scenario'.*unknown scenario 'plap_braket'"):
        resolve_config({"scenario": "plap_braket"})


@pytest.mark.parametrize("mode,n,needs", [("ode", 2, "grid.n = 1"), ("pde_1d", 1, "grid.n >= 2")])
def test_grid_size_must_fit_the_mode(mode, n, needs):
    with pytest.raises(ConfigError, match=f"'grid.n'.*{mode} mode requires {needs}"):
        resolve_config({"grid.mode": mode, "grid.n": n})


@pytest.mark.parametrize("key,value", [
    ("u0.amplitude", float("inf")),  # a programmatic override
    ("time.T", float("1e400")),  # an overflowing literal parses to inf
    ("run.eps_list", (1e-2, float("nan"))),
])
def test_non_finite_values_rejected(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'.*not finite"):
        resolve_config({key: value})


def test_unknown_key_names_key_and_line():
    with pytest.raises(ConfigError, match="line 2.*'grid.m'"):
        parse_config_text("scenario = custom\ngrid.m = 3\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate.*'grid.n'"):
        parse_config_text("grid.n = 3\ngrid.n = 4\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("grid.n 3\n")


def test_unparseable_value_names_key():
    with pytest.raises(ConfigError, match="'time.dt'"):
        parse_config_text("time.dt = soon\n")


def test_out_of_range_value_names_key():
    with pytest.raises(ConfigError, match="'time.dt'"):
        resolve_config({"time.dt": -0.5})
    with pytest.raises(ConfigError, match="'spatial.p'"):
        resolve_config({"spatial.p": 1.0})


@pytest.mark.parametrize("key,value", [
    ("grid.n", "256"),
    ("grid.n", 2.5),
    ("grid.n", True),
    ("time.T", "1"),
    ("time.T", False),
    ("run.dual_jump_side", "false"),
    ("run.dual_jump_side", 0),
    ("drift.kind", 1),
    ("run.eps_list", [1e-2]),
    ("run.eps_list", ("a",)),
])
def test_value_of_the_wrong_type_names_key(key, value):
    with pytest.raises(ConfigError, match=f"'{key}'.*not of type"):
        resolve_config({key: value})


def test_an_int_is_a_float_value():
    cfg = resolve_config({"time.T": 1, "drift.knots": (0, 1.0)})
    assert cfg["time.T"] == 1 and isinstance(cfg["time.T"], int)


def test_non_integer_step_count_rejected():
    with pytest.raises(ConfigError, match="'time.dt'"):
        resolve_config({"time.T": 1.0, "time.dt": 0.3})


def test_scenario_presets_layered():
    cfg = resolve_config({"scenario": "ode_counterexample"})
    assert cfg["grid.mode"] == "ode"
    assert cfg["grid.n"] == 1
    assert cfg["drift.kind"] == "sqrt_plus"
    # explicit overrides beat the preset
    cfg2 = resolve_config({"scenario": "ode_counterexample", "time.dt": 1e-4})
    assert cfg2["time.dt"] == 1e-4


def test_load_config_round_trip(tmp_path):
    doc = tmp_path / "run.cfg"
    doc.write_text("scenario = heat_comparison\nrun.M = 3\n")
    cfg = load_config(doc)
    assert cfg.scenario == "heat_comparison"
    assert cfg["run.M"] == 3
    assert cfg["noise.K"] == 8  # from the preset


def test_cli_list(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out
    for name in ("ode_counterexample", "heat_comparison", "plap_bracket",
                 "custom"):
        assert name in out


def test_cli_missing_config_exits_2(capsys):
    assert main(["run", "no_such_file.cfg"]) == 2
    assert "not found" in capsys.readouterr().err


def test_cli_scenario_name_as_config_path_suggests_the_scenario(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["run", "plap_braket"]) == 2
    assert capsys.readouterr().err == (
        "config file not found: plap_braket\n"
        "did you mean a config with 'scenario = plap_bracket'?\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("case", ["config_is_directory", "config_not_utf8", "out_is_file"])
def test_cli_unusable_path_exits_2(tmp_path, capsys, case):
    cfg, out = tmp_path / "ode.cfg", tmp_path / "out"
    cfg.write_bytes(b"scenario = ode_counterexample\n")
    named = cfg
    if case == "config_is_directory":
        cfg = named = tmp_path
    elif case == "config_not_utf8":
        cfg.write_bytes(b"scenario = ode_counterexample\n# caf\xe9\n")
    else:
        out.write_text("not a directory")
        named = out
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(named) in err
    assert out.is_file() if case == "out_is_file" else not out.exists()


def test_cli_malformed_config_exits_2(tmp_path, capsys):
    doc = tmp_path / "bad.cfg"
    doc.write_text("grid.n = minus_four\n")
    assert main(["run", str(doc)]) == 2
    assert "'grid.n'" in capsys.readouterr().err


def test_cli_invalid_override_exits_2(tmp_path, capsys):
    doc = tmp_path / "ok.cfg"
    doc.write_text("scenario = ode_counterexample\n")
    assert main(["run", str(doc), "--paths", "0"]) == 2
    assert "'run.M'" in capsys.readouterr().err


@pytest.mark.parametrize("doc,key", [
    # passes the schema, but b = 5 above the jump exceeds C_B (1 + |r|)
    ("scenario = plap_bracket\ndrift.high = 5\ndrift.C_B = 0.5\n", "'drift.C_B'"),
    # only the flipped jump side takes b(0) = 1.002 above C_B (1 + |0|)
    ("scenario = plap_bracket\ndrift.s0 = 0\ndrift.high = 1.002\n"
     "run.dual_jump_side = true\n", "'drift.C_B'"),
    # slope 20000 against the default C_F = 1e-12
    ("scenario = custom\nreaction.kind = linear\nreaction.slope = 20000\n",
     "'reaction.C_F'"),
    # non-finite values
    ("scenario = plap_bracket\nu0.amplitude = nan\n", "'u0.amplitude'"),
    ("scenario = custom\ndrift.kind = heaviside\ndrift.s0 = nan\n", "'drift.s0'"),
    ("scenario = heat_comparison\ncomparison.h_low = nan\n", "'comparison.h_low'"),
    # tuple keys: an odd knot list, a nonpositive regularizer eps
    ("scenario = custom\ndrift.kind = piecewise_linear\ndrift.knots = 0,0,1,1,2\n",
     "'drift.knots'"),
    ("scenario = heat_comparison\nrun.eps_list = 0\n", "'run.eps_list'"),
    # an empty eps list would write a sigma trace with no columns
    ("scenario = heat_comparison\nrun.M = 2\ntime.T = 0.01\nrun.eps_list =\n",
     "'run.eps_list'"),
    # one sigma_trace.csv column per eps: equal values would share one
    ("scenario = heat_comparison\nrun.M = 2\ntime.T = 0.01\nrun.eps_list = 0.01, 0.01\n",
     "'run.eps_list'"),
    ("scenario = heat_comparison\nrun.M = 2\ntime.T = 0.01\nrun.eps_list = 1e-2,0.010\n",
     "'run.eps_list'"),
    # the noise generator keys on 64-bit words
    ("scenario = heat_comparison\nrun.M = 2\ntime.T = 0.01\n"
     "run.master_seed = 18446744073709551616\n", "'run.master_seed'"),
])
def test_cli_config_inconsistent_with_spec_exits_2(tmp_path, capsys, doc, key):
    path = tmp_path / "bad.cfg"
    path.write_text(doc)
    assert main(["run", str(path), "--out", str(tmp_path / "out")]) == 2
    assert key in capsys.readouterr().err


@pytest.mark.parametrize("scenario", ["custom", "plap_bracket", "ode_counterexample",
                                      "heat_comparison"])
def test_cli_zero_time_steps_exits_2(tmp_path, capsys, scenario):
    # T/dt = 1e-297 is within the integer tolerance of 0 steps
    doc = tmp_path / "short.cfg"
    doc.write_text(f"scenario = {scenario}\ntime.T = 1e-300\n")
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert "'time.T'" in err and "Traceback" not in err


def test_cli_seed_beyond_64_bits_exits_2(tmp_path, capsys):
    doc = tmp_path / "heat.cfg"
    doc.write_text("scenario = heat_comparison\nrun.M = 2\ntime.T = 0.01\n")
    for seed in ("18446744073709551616", "-1"):
        assert main(["run", str(doc), "--seed", seed, "--out", str(tmp_path / "bad")]) == 2
        assert "'run.master_seed'" in capsys.readouterr().err
    # the largest 64-bit seed runs
    assert main(["run", str(doc), "--seed", "18446744073709551615",
                 "--out", str(tmp_path / "out")]) == 0


_NUMPY_MEMORY_ERROR = ("Unable to allocate 597. GiB for an array with shape "
                       "(4000, 1001, 20000) and data type float64")


@pytest.mark.parametrize("failure, line", [
    (MemoryError(_NUMPY_MEMORY_ERROR), _NUMPY_MEMORY_ERROR),
    (MemoryError(), "the run does not fit in memory"),
    ((2**62, 4), "array is too big"),
    ((2**63,), "Maximum allowed dimension exceeded"),
    (None, "Unable to allocate "),
], ids=["numpy", "bare", "too big", "dimension", "10**13 paths"])
def test_cli_a_study_too_large_to_allocate_exits_2(tmp_path, monkeypatch, capsys, failure, line):
    # the bracket study's (members, N + 1, n) state is the allocation that
    # fails.  A MemoryError is patched in, since a real one would depend on
    # the machine's overcommit setting; a shape past the address space
    # makes numpy raise its ValueError before it allocates anything.  With
    # no patch, 10**13 paths fail at that state, which is allocated before
    # any path is listed or sampled and is past every address space, and
    # numpy's message names its size
    zeros = np.zeros

    def wave_zeros(shape, *args, **kwargs):
        if np.ndim(shape) == 1 and len(shape) == 3:
            if isinstance(failure, MemoryError):
                raise failure
            shape = failure
        return zeros(shape, *args, **kwargs)

    doc = tmp_path / "big.cfg"
    if failure is None:
        doc.write_text("scenario = custom\ngrid.n = 16\ntime.T = 0.05\nnoise.K = 2\n"
                       "run.M = 10000000000000\n")
    else:
        monkeypatch.setattr(np, "zeros", wave_zeros)
        doc.write_text("scenario = plap_bracket\ntime.T = 0.01\n")
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err  # one line, no traceback
    assert err.startswith(f"out of memory: {line}") and err.count("\n") == 1
    if failure is None:  # the members' state: 2 * 10**13 members, N + 1 = 51 rows
        assert "with shape (20000000000000, 51, 16)" in err


def test_cli_another_value_error_is_not_taken_for_a_size(tmp_path, monkeypatch):
    def failing(*args, **kwargs):
        raise ValueError("array is not too big")

    monkeypatch.setattr(scenarios, "bracket_study", failing)
    doc = tmp_path / "plap.cfg"
    doc.write_text("scenario = plap_bracket\ntime.T = 0.01\n")
    with pytest.raises(ValueError, match="not too big"):
        main(["run", str(doc), "--out", str(tmp_path / "out")])


def test_cli_ode_blow_up_exits_3(tmp_path, capsys):
    doc = tmp_path / "blowup.cfg"
    doc.write_text("scenario = ode_counterexample\nreaction.kind = linear\n"
                   "reaction.slope = 1e6\nreaction.C_F = 1e6\n")
    with pytest.warns(UserWarning, match="dt\\*C_F"), np.errstate(over="ignore"):
        assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 3
    assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("overrides", [
    "spatial.p = 3\ndrift.kind = heaviside\ndrift.high = 1e200\ndrift.C_B = 1e200\n"
    "u0.kind = sine\n",
    "spatial.p = 3\ndrift.kind = sqrt_plus\ndrift.C_B = 1e200\nu0.kind = sine\n",
    "spatial.p = 2.5\nu0.kind = constant\nu0.amplitude = 1e200\n",
], ids=["forcing", "forcing_growth", "datum"])
def test_cli_right_hand_side_norm_overflow_exits_3(tmp_path, capsys, overrides):
    # an extremal forcing of 1e200, the sup b of a Heaviside drift or the
    # growth bound C_B(1+|u|) of sqrt_plus's unbounded max side, or a datum
    # of 1e200, overflows the norm of the first step's right-hand side: no
    # step is accepted, and the overflow is a solver failure, not a
    # floating-point warning, which RuntimeWarning-as-error would raise as a
    # traceback with exit 1
    doc = tmp_path / "overflow.cfg"
    doc.write_text("scenario = custom\ngrid.n = 8\ntime.T = 0.01\n" + overrides)
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 3
    assert ("solver failure: right-hand side norm overflows (step 0)"
            in capsys.readouterr().err)


def test_cli_a_predictor_whose_flux_overflows_exits_as_without_it(tmp_path, capsys):
    # a sine datum of 1e35 at p = 4: the flux at u_n is about 1e103, and the
    # explicit predictor overshoots it past the largest double.  It is never
    # taken, and its overflow is no floating-point warning, which
    # RuntimeWarning-as-error would raise as a traceback with exit 1: damped
    # Newton from u_n runs out of iterations at the first step
    doc = tmp_path / "overshoot.cfg"
    doc.write_text("scenario = custom\ngrid.n = 8\ntime.T = 0.01\nspatial.p = 4\n"
                   "u0.kind = sine\nu0.amplitude = 1e35\n")
    assert main(["run", str(doc), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert "solver failure: Newton residual" in err and "after 50 iterations (step 0)" in err
    assert "Traceback" not in err


def test_cli_batched_newton_divergence_exits_3(tmp_path, capsys):
    # p = 3 needs two Newton iterations per step: a cap of one fails the
    # comparison's path batch at its first step, with no comparison written
    doc = tmp_path / "diverge.cfg"
    doc.write_text("scenario = heat_comparison\nspatial.p = 3\nnewton.max_iter = 1\n"
                   "run.M = 3\ntime.T = 0.02\n")
    out = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out)]) == 3
    assert "after 1 iterations (step 0)" in capsys.readouterr().err
    assert not (out / "comparison.txt").exists()


# (overrides, closed form) per table entry; noise forms are per unit coefficient
_CLOSED_FORMS = {
    ("drift", "zero"): ({}, lambda r: 0.0 * r),
    ("drift", "sqrt_plus"): ({}, lambda r: np.sqrt(np.maximum(r, 0.0))),
    ("drift", "heaviside"): (
        {"drift.s0": 0.5, "drift.low": -1.0, "drift.high": 2.0,
         "drift.jump_side": "mid", "drift.C_B": 2.0},
        lambda r: np.where(r < 0.5, -1.0, np.where(r > 0.5, 2.0, 0.5))),
    ("drift", "lipschitz_tanh"): ({"drift.scale": 0.5, "drift.C_B": 0.5},
                                  lambda r: 0.5 * np.tanh(r)),
    ("drift", "piecewise_linear"): ({"drift.knots": (-1.0, -1.0, 1.0, 1.0)},
                                    lambda r: np.clip(r, -1.0, 1.0)),
    ("reaction", "zero"): ({}, lambda r: 0.0 * r),
    ("reaction", "linear"): (
        {"reaction.slope": 0.5, "reaction.offset": 0.25, "reaction.C_F": 0.5},
        lambda r: 0.5 * r + 0.25),
    ("reaction", "lipschitz_tanh"): ({"reaction.scale": -2.0, "reaction.C_F": 2.0},
                                     lambda r: -2.0 * np.tanh(r)),
    ("noise", "linear"): ({"noise.K": 2}, lambda r: r),
    ("noise", "lipschitz_tanh"): ({"noise.K": 2}, np.tanh),
}


@pytest.mark.parametrize("section,kind", [
    (section, kind)
    for section, table in (("drift", DRIFT_KINDS), ("reaction", REACTION_KINDS),
                           ("noise", NOISE_KINDS))
    for kind in table])
def test_every_kind_builds_from_config(section, kind):
    overrides, closed_form = _CLOSED_FORMS[section, kind]
    cfg = resolve_config({"scenario": "custom", f"{section}.kind": kind, **overrides})
    spec = build_problem_spec(cfg)
    r = np.array([-3.0, -1.0, -0.25, 0.0, 0.5, 0.75, 1.0, 3.0])
    if section == "drift":
        assert spec.drift.kind == kind
        values, expected = eval_b_values(spec.drift, r), closed_form(r)
    elif section == "reaction":
        assert spec.reaction.kind == kind
        values, expected = eval_f_values(spec.reaction, r), closed_form(r)
    else:
        assert spec.noise.pointwise_kind == kind
        ladder = 0.5 * 2.0 ** (-0.5 * np.arange(2))  # default noise.gamma
        values = np.array([eval_g_values(spec.noise, k, r) for k in range(2)])
        expected = ladder[:, None] * closed_form(r)
    np.testing.assert_allclose(values, expected, rtol=1e-15, atol=0.0)


_DATA = {
    # grid overrides, then the expected datum of each u0.kind at amplitude 1.5
    "pde_1d": ({"grid.n": 5, "grid.L": 2.0},
               {"zero": [0.0] * 5, "constant": [1.5] * 5,
                # 1.5 sin(pi x / L) at x = L/6, ..., 5L/6
                "sine": [0.75, 0.75 * np.sqrt(3.0), 1.5, 0.75 * np.sqrt(3.0), 0.75]}),
    # an ODE datum is the amplitude itself, whatever its shape in space
    "ode": ({"grid.mode": "ode", "grid.n": 1},
            {"zero": [0.0], "constant": [1.5], "sine": [1.5]}),
}


@pytest.mark.parametrize("kind", ["zero", "constant", "sine"])
@pytest.mark.parametrize("mode", sorted(_DATA))
def test_build_u0_is_the_configured_datum(mode, kind):
    grid_keys, expected = _DATA[mode]
    cfg = resolve_config({"scenario": "custom", **grid_keys, "u0.kind": kind,
                          "u0.amplitude": 1.5})
    grid = scenarios.build_grid(cfg)
    u0 = scenarios.build_u0(cfg, grid)
    assert isinstance(u0, np.ndarray) and u0.dtype == np.float64
    assert u0.shape == (grid.n_interior,) == (len(expected[kind]),)
    np.testing.assert_allclose(u0, expected[kind], rtol=0.0, atol=1e-15)
    if kind != "sine":
        assert np.array_equal(u0, expected[kind])


def test_cli_ode_counterexample_end_to_end(tmp_path):
    doc = tmp_path / "ode.cfg"
    doc.write_text("scenario = ode_counterexample\ntime.dt = 0.002\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out_dir)]) == 0
    summary = (out_dir / "summary.txt").read_text()
    assert "all_gates = pass" in summary
    assert "gate.min_sup_zero = pass" in summary
    # trajectory CSV has (n_steps + 1) * n_interior value rows
    lines = (out_dir / "trajectory_max.csv").read_text().strip().splitlines()
    assert len(lines) == 2 + (501 * 1)
    assert (out_dir / "assumptions.txt").exists()


def test_cli_failing_gate_exits_1(tmp_path):
    # reversed comparison violates the order, so the gate must fail
    doc = tmp_path / "rev.cfg"
    doc.write_text(
        "scenario = heat_comparison\n"
        "comparison.reversed = true\n"
        "run.M = 2\n"
        "time.T = 0.02\n"
        "grid.n = 16\n"
    )
    out_dir = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out_dir)]) == 1
    assert "gate.comparison = fail" in (out_dir / "summary.txt").read_text()


def test_cli_heat_comparison_without_noise_solves_one_path(tmp_path):
    # K = 0 makes every path the same deterministic pair: run.M is not used
    doc = tmp_path / "det.cfg"
    doc.write_text("scenario = heat_comparison\nnoise.K = 0\nrun.M = 5\n"
                   "time.T = 0.02\ngrid.n = 16\n")
    out_dir = tmp_path / "out"
    assert main(["run", str(doc), "--out", str(out_dir)]) == 0
    for name in ("summary.txt", "comparison.txt"):
        assert "paths = 1" in (out_dir / name).read_text().splitlines()


def test_cli_reruns_byte_identical(tmp_path):
    doc = tmp_path / "heat.cfg"
    doc.write_text(
        "scenario = heat_comparison\n"
        "run.M = 3\n"
        "time.T = 0.02\n"
        "grid.n = 16\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["run", str(doc), "--out", str(out_a), "--seed", "99"]) == 0
    assert main(["run", str(doc), "--out", str(out_b), "--seed", "99"]) == 0
    names = sorted(p.name for p in out_a.iterdir())
    assert names == sorted(p.name for p in out_b.iterdir())
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


def test_cli_seed_changes_output(tmp_path):
    doc = tmp_path / "heat.cfg"
    doc.write_text(
        "scenario = heat_comparison\n"
        "run.M = 2\n"
        "time.T = 0.02\n"
        "grid.n = 16\n"
    )
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    main(["run", str(doc), "--out", str(out_a), "--seed", "1"])
    main(["run", str(doc), "--out", str(out_b), "--seed", "2"])
    assert ((out_a / "trajectory_lower.csv").read_bytes()
            != (out_b / "trajectory_lower.csv").read_bytes())


def _leak(pair):
    """pair with a containment defect of 1e-6 in the first sweep of its max
    side, which the gate must see even when later sweeps have none"""
    leaky = dataclasses.replace(pair.maximal, containment_violations=(
        (1e-6,) + pair.maximal.containment_violations[1:]))
    return dataclasses.replace(pair, maximal=leaky)


_DUAL_JUMP = "scenario = plap_bracket\ngrid.n = 16\ntime.T = 0.05\nrun.dual_jump_side = true\n"


@pytest.mark.parametrize("doc, leaked, failed", [
    ("scenario = custom\ngrid.n = 12\ntime.T = 0.05\nspatial.p = 3.0\n"
     "drift.kind = heaviside\nnoise.K = 2\nu0.kind = sine\nrun.M = 3\n",
     -1, ["gate.interval"]),
    (_DUAL_JUMP, 0, ["gate.interval"]),
    (_DUAL_JUMP, 1, ["gate.interval_jump_upper"]),
    ("scenario = ode_counterexample\n", 0, ["gate.interval"]),
], ids=["custom", "plap_bracket", "plap_bracket_jump_upper", "ode_counterexample"])
def test_cli_custom_gates_interval_containment(tmp_path, monkeypatch, doc, leaked, failed):
    cfg = tmp_path / "bracket.cfg"
    cfg.write_text(doc)
    assert main(["run", str(cfg), "--out", str(tmp_path / "ok")]) == 0
    assert "gate.interval = pass" in (tmp_path / "ok" / "summary.txt").read_text()

    # a containment defect in the max side of one pair of the scenario's one
    # bracket_study call (the last path of a study; the configured or the
    # flipped drift of a dual-jump run) fails the gate of that pair, and
    # only that gate
    study = scenarios.bracket_study

    def leaky_study(*args, **kwargs):
        pairs = study(*args, **kwargs)
        pairs[leaked] = _leak(pairs[leaked])
        return pairs

    monkeypatch.setattr(scenarios, "bracket_study", leaky_study)
    assert main(["run", str(cfg), "--out", str(tmp_path / "leaky")]) == 1
    summary = (tmp_path / "leaky" / "summary.txt").read_text()
    assert [line for line in summary.splitlines() if line.endswith(" = fail")] == [
        f"{gate} = fail" for gate in failed] + ["all_gates = fail"]


_DUAL_P3 = ("scenario = plap_bracket\ngrid.n = 16\nspatial.p = 3\ntime.T = 0.05\n"
            "run.dual_jump_side = true\n")


@pytest.mark.parametrize("doc, copies", [
    # the jump sides agree off s0, which no iterate hits: each flipped final
    # is its configured final
    (_DUAL_P3, {"min_jump_upper": "min", "max_jump_upper": "max"}),
    # from zero at s0 = 0 the upper jump side takes b(0) = 1 and lifts the
    # flipped minimal solution onto the maximal one
    (_DUAL_P3 + "drift.s0 = 0\nu0.kind = zero\n",
     {"min_jump_upper": "max", "max_jump_upper": "max"}),
    # the same at p = 2 and n = 64, CI's dual_s0 config
    ("scenario = plap_bracket\nrun.dual_jump_side = true\ndrift.s0 = 0\nu0.kind = zero\n"
     "time.T = 0.05\n", {"min_jump_upper": "max", "max_jump_upper": "max"}),
    # by t = 0.02 the bracket has not opened: all four finals are one
    (_DUAL_P3.replace("time.T = 0.05", "time.T = 0.02"),
     {"max": "min", "min_jump_upper": "min", "max_jump_upper": "min"}),
    ("scenario = custom\ngrid.n = 16\ntime.T = 0.05\nspatial.p = 3\n"
     "drift.kind = heaviside\nnoise.K = 2\nu0.kind = sine\nrun.M = 2\n", {}),
], ids=["dual_jump", "dual_jump_s0_zero", "dual_s0", "dual_jump_closed", "custom"])
def test_a_bracket_run_formats_each_distinct_final_once(tmp_path, monkeypatch, doc, copies):
    formatted, studies = [], []
    to_csv, study = Trajectory.to_csv, scenarios.bracket_study

    def counted(traj, path):
        formatted.append(os.path.basename(path))
        to_csv(traj, path)

    def kept(*args, **kwargs):
        studies.append(study(*args, **kwargs))
        return studies[-1]

    monkeypatch.setattr(Trajectory, "to_csv", counted)
    monkeypatch.setattr(scenarios, "bracket_study", kept)
    cfg, out = tmp_path / "bracket.cfg", tmp_path / "out"
    cfg.write_text(doc)
    assert main(["run", str(cfg), "--out", str(out)]) == 0
    # where both sides' drift values agree their last steps solve
    # bit-identical systems from bit-identical Newton starts: the minimal
    # solution lies below the maximal one exactly
    summary = (out / "summary.txt").read_text().splitlines()
    assert {"cross_order_violation = 0.0", "gate.min_below_max = pass"} <= set(summary)

    (pairs,) = studies
    suffixes = ("", "_jump_upper") if "dual_jump_side" in doc else ("",)
    M = len(pairs) // len(suffixes)
    finals = {f"{res.side}{suffix}": res.final for d, suffix in enumerate(suffixes)
              for res in (pairs[d * M].minimal, pairs[d * M].maximal)}
    csv = {name: (out / f"trajectory_{name}.csv").read_bytes() for name in finals}
    assert sorted(p.name for p in out.glob("trajectory_*.csv")) == sorted(
        f"trajectory_{name}.csv" for name in finals)
    # one to_csv call per distinct final, and pairwise distinct files from it
    assert sorted(formatted) == sorted(f"trajectory_{name}.csv" for name in finals
                                       if name not in copies)
    assert len({csv[name] for name in finals if name not in copies}) == len(formatted)
    for name, source in copies.items():
        assert csv[name] == csv[source]
    # every file is what to_csv writes for its own final
    for name, final in finals.items():
        to_csv(final, tmp_path / "own.csv")
        assert csv[name] == (tmp_path / "own.csv").read_bytes()


@pytest.mark.parametrize("name", ["summary.txt", "trajectory_min_jump_upper.csv"])
def test_cli_unwritable_artifact_exits_2(tmp_path, capsys, name):
    # trajectory_min_jump_upper.csv is copied from trajectory_min.csv
    cfg, out = tmp_path / "dual.cfg", tmp_path / "out"
    cfg.write_text(_DUAL_P3)
    (out / name).mkdir(parents=True)
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.count("\n") == 1 and str(out / name) in err


def test_cli_failed_artifact_write_names_the_output_directory(tmp_path, monkeypatch, capsys):
    # a write that fails on an open file (a full disk) carries no file name
    def full(traj, path):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

    monkeypatch.setattr(Trajectory, "to_csv", full)
    cfg, out = tmp_path / "dual.cfg", tmp_path / "out"
    cfg.write_text(_DUAL_P3)
    assert main(["run", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"cannot write artifact {out}: {os.strerror(errno.ENOSPC)}\n")


def _maybe(values):
    """A key's value from values, or the key left out (None)."""
    return st.none() | values


# small configs of every scenario and every drift, reaction, noise and datum
# kind: n <= 16 and T <= 0.05, with step sizes that do not divide T and
# keys that do not fit their scenario among them
_CONFIGS = st.fixed_dictionaries({
    "scenario": st.sampled_from(sorted(SCENARIOS)),
    # the mode and node count, or the count alone, which some scenarios'
    # modes do not allow
    "grid": st.sampled_from([{"grid.mode": "ode", "grid.n": 1},
                             {"grid.mode": "pde_1d", "grid.n": 2},
                             {"grid.mode": "pde_1d", "grid.n": 16},
                             {"grid.n": 1}, {"grid.n": 5}]),
    "time.T": st.sampled_from([0.002, 0.01, 0.05]),
    "time.dt": _maybe(st.sampled_from([1e-3, 2e-3, 0.015])),
    "spatial.p": _maybe(st.sampled_from([2.0, 3.0])),
    "drift.kind": _maybe(st.sampled_from(sorted(DRIFT_KINDS))),
    "drift.s0": _maybe(st.floats(-1.0, 1.0)),
    "drift.high": _maybe(st.floats(-1.0, 2.0)),
    "drift.scale": _maybe(st.floats(0.0, 3.0)),
    # two knots of a nondecreasing ramp, or a list of any length
    "drift.knots": _maybe(st.builds(lambda r0, v0, dr, dv: (r0, v0, r0 + dr, v0 + dv),
                                    st.floats(-2.0, 1.0), st.floats(-2.0, 1.0),
                                    st.floats(0.1, 2.0), st.floats(0.0, 2.0))
                          | st.lists(st.floats(-2.0, 2.0), max_size=5).map(tuple)),
    "drift.C_B": _maybe(st.floats(0.5, 4.0)),
    "reaction.kind": _maybe(st.sampled_from(sorted(REACTION_KINDS))),
    "reaction.slope": _maybe(st.floats(-1.0, 1.0)),
    "reaction.C_F": _maybe(st.floats(0.5, 2.0)),
    "noise.K": st.integers(0, 3),
    "noise.kind": _maybe(st.sampled_from(sorted(NOISE_KINDS))),
    "u0.kind": _maybe(st.sampled_from(sorted(U0_KINDS))),
    "u0.amplitude": _maybe(st.floats(-3.0, 3.0)),
    "run.M": st.integers(1, 3),
    "run.max_outer": _maybe(st.sampled_from([1, 2, 100])),
    "newton.max_iter": _maybe(st.integers(1, 3)),
    "run.dual_jump_side": _maybe(st.booleans()),
    "comparison.reversed": _maybe(st.booleans()),
})


def _config_text(values: dict) -> str:
    def text(value):
        if isinstance(value, bool):
            return str(value).lower()
        if isinstance(value, tuple):
            return ",".join(repr(v) for v in value)
        return value if isinstance(value, str) else repr(value)
    keys = {**values["grid"], **{k: v for k, v in values.items() if k != "grid"}}
    return "".join(f"{key} = {text(value)}\n" for key, value in keys.items()
                   if value is not None)


# derandomized: CI runs the same examples every time.  The example is a
# p = 3 step that needs more than one Newton iteration: exit 3
@settings(max_examples=100, deadline=None, derandomize=True)
@given(values=_CONFIGS)
@example(values={"scenario": "custom", "grid": {"grid.n": 16}, "time.T": 0.05,
                 "spatial.p": 3.0, "u0.kind": "sine", "newton.max_iter": 1})
def test_every_small_config_exits_with_its_documented_code(values):
    # 0 all gates pass, 1 a gate fails, 2 a bad config, 3 divergence or a
    # non-finite state: never a traceback (in process, an exception that
    # escapes main), 1 exactly when summary.txt records a failed gate, and
    # 3 exactly when stderr gives the solver's failure
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = os.path.join(tmp, "fuzz.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w") as fh:
            fh.write(_config_text(values))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = main(["run", cfg, "--out", out])
        summary = os.path.join(out, "summary.txt")
        failed = False
        if os.path.exists(summary):
            with open(summary) as fh:
                failed = any(line.endswith(" = fail") for line in fh.read().splitlines())
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    assert (code == 1) == failed
    assert (code == 3) == any(line.startswith("solver failure: ")
                              for line in err.getvalue().splitlines())
