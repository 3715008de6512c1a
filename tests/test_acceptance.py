"""End-to-end acceptance checks, one test per release criterion.

Each test prints a single pass/fail line so a plain `pytest -s
tests/test_acceptance.py` doubles as the sign-off checklist.
"""
import os
import subprocess
import sys
import time

import numpy as np
import pytest

import spdeorder
from spdeorder import (
    ComparisonReport,
    DriftSpec,
    Grid,
    NewtonParams,
    NoiseSpec,
    ProblemSpec,
    ReactionSpec,
    SpatialOpSpec,
    TimeGrid,
    bracket_study,
    build_extremal,
    check_assumptions,
    comparison_study,
    constant_forcing,
    energy_series,
    run_coupled,
    sample_noise_path,
    sigma_eps,
    sigma_eps_prime,
    sigma_eps_second,
    solve_frozen,
    sup_h_distance,
)
from spdeorder.bracket import MAX_SIDE, MIN_SIDE
from spdeorder.cli import main
from spdeorder.config import resolve_config
from spdeorder.operators import DRIFT_KINDS
from spdeorder.scenarios import build_newton, build_problem_spec, build_u0


def _report(label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\n[{status}] {label}{suffix}")
    assert ok, f"{label}{suffix}"


def test_criterion_1_counterexample_regression():
    start = time.perf_counter()
    cfg = resolve_config({"scenario": "ode_counterexample"})
    spec = build_problem_spec(cfg)
    kwargs = dict(tol_fixed=cfg["run.tol_fixed"], max_outer=cfg["run.max_outer"])
    (pair,) = bracket_study(spec, build_u0(cfg, spec.grid), cfg["run.master_seed"], **kwargs)
    minimal, maximal = pair.minimal, pair.maximal
    elapsed = time.perf_counter() - start

    min_sup = float(np.max(np.abs(minimal.final.values)))
    times = maximal.final.times()
    max_err = float(np.max(np.abs(maximal.final.values[0, :, 0] - times**2 / 4.0)))
    ok = (minimal.converged and maximal.converged
          and min_sup <= 1e-6 and max_err <= 5e-3
          and minimal.monotone_ok and maximal.monotone_ok
          and elapsed <= 5.0)
    _report("criterion 1: two distinct solutions from one datum",
            ok, f"min sup {min_sup:.2e}, max err {max_err:.2e}, {elapsed:.1f}s")


def test_criterion_2_extremal_bracket_closed_forms():
    # in ODE mode a bounded drift's brackets solve u' = inf b and u' = sup b:
    # u0 + t inf b and u0 + t sup b, which the explicit step reproduces up
    # to rounding.  sqrt_plus's min side is its minimal solution 0 exactly,
    # and its unbounded max side u' = 1 + |u| from 0 gives e^t - 1
    tg = TimeGrid(T=1.0, n_steps=10_000)  # dt = 1e-4
    u0 = 0.75
    errs = []
    for drift in (DriftSpec("heaviside", low=-0.5, high=1.5),
                  DriftSpec("lipschitz_tanh", scale=0.5),
                  DriftSpec("piecewise_linear", knots=((0.0, -1.0), (1.0, 2.0))),
                  DriftSpec("zero")):
        spec = ProblemSpec(grid=Grid.ode(), time_grid=tg, spatial=SpatialOpSpec(),
                           drift=drift, reaction=ReactionSpec(), noise=NoiseSpec())
        inf_b, sup_b = DRIFT_KINDS[drift.kind].range(drift)
        t = tg.times()
        for side, rate in ((MIN_SIDE, inf_b), (MAX_SIDE, sup_b)):
            ext = build_extremal(spec, [u0], side).values[0, :, 0]
            errs.append(float(np.max(np.abs(ext - (u0 + t * rate)))))
    err_const = max(errs)
    spec = ProblemSpec(grid=Grid.ode(), time_grid=tg, spatial=SpatialOpSpec(),
                       drift=DriftSpec("sqrt_plus"), reaction=ReactionSpec(), noise=NoiseSpec())
    upper = build_extremal(spec, [0.0], MAX_SIDE)
    lower = build_extremal(spec, [0.0], MIN_SIDE)
    err_up = abs(upper.values[0, -1, 0] - 1.71828)
    # each step rounds once or twice, by at most half an ulp of a state
    # below 4 (|u0| + T max|b| < 3): n_steps ulps bound the sum
    ok = (err_const <= tg.n_steps * np.spacing(4.0) and err_up <= 2e-4
          and np.all(lower.values == 0.0))
    _report("criterion 2: extremal brackets hit the constant-source and exponential "
            "closed forms", ok,
            f"constant-source err {err_const:.2e}, upper err {err_up:.2e}, "
            f"lower sup {float(np.max(np.abs(lower.values))):.2e}")


def test_criterion_3_comparison_principle_desk_scale():
    start = time.perf_counter()
    cfg = resolve_config({"scenario": "heat_comparison"})
    spec = build_problem_spec(cfg)
    u0_flat = np.zeros(spec.grid.n_interior)
    u0_sine = np.sin(np.pi * spec.grid.x)
    assert spec.noise.K == 8 and spec.time_grid.dt == 1e-3

    h_lo = constant_forcing(cfg["comparison.h_low"])
    h_hi = constant_forcing(cfg["comparison.h_high"])
    report = comparison_study(spec, u0_flat, u0_sine, M=cfg["run.M"],
                              master_seed=cfg["run.master_seed"],
                              forcing_1=h_lo, forcing_2=h_hi, tol=1e-10)
    reversed_report = comparison_study(spec, u0_sine, u0_flat, M=10,
                                       master_seed=cfg["run.master_seed"],
                                       forcing_1=h_hi, forcing_2=h_lo, tol=1e-10)
    elapsed = time.perf_counter() - start
    ok = (report.passed and report.worst_energy <= 1e-10
          and not reversed_report.passed and elapsed <= 60.0)
    _report("criterion 3: pathwise comparison over 100 coupled paths",
            ok, f"worst energy {report.worst_energy:.2e}, reversed worst "
                f"{reversed_report.worst_energy:.2e}, {elapsed:.1f}s")


def test_criterion_4_regularizer_calculus():
    eps_set = (1.0, 1e-2, 1e-4, 1e-8)
    s = np.linspace(0.0, 1.0, 10_001)  # includes the stationary point 0.6
    ok = True
    details = []
    sup_prod = {}
    for eps in eps_set:
        r = s * eps
        ok &= abs(sigma_eps(eps, eps) - eps) <= 1e-9 * eps
        ok &= abs(sigma_eps_prime(eps, eps) - 1.0) <= 1e-9
        ok &= abs(sigma_eps_second(eps, eps)) <= 1e-9
        vals = sigma_eps(r, eps)
        ok &= bool(np.all(vals >= 0.0) and np.all(vals <= np.maximum(r, 0.0) + 1e-15))
        sup_prime = float(np.max(np.abs(sigma_eps_prime(r, eps))))
        ok &= abs(sup_prime - 1.512) <= 1e-6
        sup_prod[eps] = float(np.max(np.abs(vals * sigma_eps_second(r, eps))))
    spread = max(sup_prod.values()) / min(sup_prod.values())
    ok &= spread <= 1.01
    details.append(f"sup|sigma'*| = 1.512, |sigma*sigma''| spread {spread:.4f}")
    _report("criterion 4: C2 positive-part regularizer calculus", ok,
            "; ".join(details))


def test_criterion_5_discrete_T_monotonicity():
    ok = True
    worst = []
    for p in (2.0, 3.0, 4.0):
        report = check_assumptions(
            SpatialOpSpec(p=p),
            DriftSpec("zero"),
            ReactionSpec(),
            NoiseSpec(),
            grid=Grid(n_interior=64),
            n_pairs=1000,
            seed=p_seed(p),
        )
        by_name = {c.name: c for c in report.checks}
        ok &= by_name["operator_coercivity_identity"].passed
        for sig in ("identity", "positive_part", "sigma_eps"):
            ok &= by_name[f"operator_T_monotonicity_{sig}"].passed
        worst.append(f"p={p:g} ok")
    _report("criterion 5: T-monotonicity and coercivity over 1000 pairs",
            ok, ", ".join(worst))


def p_seed(p: float) -> int:
    return int(p * 1000)


def test_criterion_6_monotone_iteration_properties():
    cfg = resolve_config({"scenario": "plap_bracket"})
    spec = build_problem_spec(cfg)
    kwargs = dict(tol_fixed=1e-6, max_outer=100, newton=build_newton(cfg))
    (pair,) = bracket_study(spec, build_u0(cfg, spec.grid), cfg["run.master_seed"], **kwargs)
    minimal, maximal = pair.minimal, pair.maximal
    mono = max(max(minimal.monotonicity_violations),
               max(maximal.monotonicity_violations))
    containment = max(max(minimal.containment_violations),
                      max(maximal.containment_violations))
    cross = float(np.max(minimal.final.values - maximal.final.values))
    ok = (minimal.converged and maximal.converged
          and mono <= 1e-12 and containment <= 1e-10 and cross <= 1e-12)
    _report("criterion 6: monotone bracket iteration with jump drift", ok,
            f"mono {mono:.1e}, containment {containment:.1e}, cross {cross:.1e},"
            f" sweeps {minimal.n_sweeps}/{maximal.n_sweeps}")


def test_criterion_7_unique_regime_collapse():
    g = Grid(n_interior=64)
    tg = TimeGrid(T=0.5, n_steps=250)

    def spec_for(K):
        return ProblemSpec(
            grid=g,
            time_grid=tg,
            spatial=SpatialOpSpec(),
            drift=DriftSpec("lipschitz_tanh", scale=1.0),
            reaction=ReactionSpec(),
            noise=NoiseSpec.geometric(K) if K else NoiseSpec(),
        )

    gaps = {}
    for K, M in ((0, 1), (4, 20)):
        pairs = bracket_study(spec_for(K), np.zeros(64), 777, range(M), tol_fixed=1e-8,
                              max_outer=100)
        gaps[K] = max(pair.gap for pair in pairs)
        assert all(p.minimal.converged and p.maximal.converged for p in pairs)
    ok = gaps[0] <= 1e-6 and gaps[4] <= 1e-6
    _report("criterion 7: brackets collapse under a Lipschitz drift", ok,
            f"gap K=0: {gaps[0]:.1e}, gap K=4 over 20 paths: {gaps[4]:.1e}")


def test_criterion_8_heat_solver_convergence():
    n = 255
    g = Grid(n_interior=n)
    u0 = np.sin(np.pi * g.x)
    T = 0.1
    exact = u0 * np.exp(-np.pi**2 * T)

    def terminal_error(dt):
        spec = ProblemSpec(
            grid=g,
            time_grid=TimeGrid(T=T, n_steps=int(round(T / dt))),
            spatial=SpatialOpSpec(),
            drift=DriftSpec("zero"),
            reaction=ReactionSpec(),
            noise=NoiseSpec(),
        )
        traj = solve_frozen(spec, u0, None, None)
        return float(np.max(np.abs(traj.values[0, -1] - exact)))

    e1 = terminal_error(1e-4)
    e2 = terminal_error(5e-5)
    ratio = e1 / e2
    ok = e1 <= 2e-3 and 1.5 <= ratio <= 2.5
    _report("criterion 8: first-order heat solve against the analytic solution",
            ok, f"error {e1:.2e}, dt-halving ratio {ratio:.2f}")


def test_criterion_9_byte_identical_reproducibility(tmp_path, monkeypatch):
    base = ("scenario = heat_comparison\n"
            "grid.n = 16\n"
            "time.T = 0.02\n"
            "run.M = 4\n")
    cfg = tmp_path / "a.cfg"
    cfg.write_text(base)

    outs = [tmp_path / name for name in ("run1", "run2", "run_fresh", "run_one_path_solves")]
    args = ["run", str(cfg), "--seed", "2024", "--out"]
    assert main(args + [str(outs[0])]) == 0
    assert main(args + [str(outs[1])]) == 0
    # the third run in a fresh interpreter
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [os.path.dirname(os.path.dirname(spdeorder.__file__)),
         os.environ.get("PYTHONPATH", "")]))
    cmd = [sys.executable, "-m", "spdeorder.cli"] + args + [str(outs[2])]
    assert subprocess.run(cmd, env=env).returncode == 0
    # the fourth run solves each path alone, both sides apart, instead of
    # all four paths and both sides in one batch, then reduces in path order
    one_path_studies = []

    def per_path_comparison(spec, u0_1, u0_2, M, master_seed, forcing_1=None,
                            forcing_2=None, tol=1e-10, newton=NewtonParams()):
        one_path_studies.append(M)
        tg = spec.time_grid
        pairs = [run_coupled(spec, u0_1, u0_2,
                             sample_noise_path(master_seed, m, spec.noise.K, tg),
                             forcing_1, forcing_2, newton) for m in range(M)]
        energies = np.stack([energy_series(*pair) for pair in pairs])
        worst_path, worst_step = divmod(int(np.argmax(energies)), tg.n_steps + 1)
        return ComparisonReport(
            times=tg.times(), max_energy=np.max(energies, axis=0),
            mean_energy=np.sum(energies, axis=0) / M, n_paths=M,
            worst_path=worst_path, worst_step=worst_step,
            worst_energy=float(energies[worst_path, worst_step]), tol=tol,
            first_pair=pairs[0])

    monkeypatch.setattr(spdeorder.scenarios, "comparison_study", per_path_comparison)
    assert main(args + [str(outs[3])]) == 0
    assert one_path_studies == [4]

    # a noisy bracket study and a plap bracket under both jump sides, each
    # in one lock-step batch of all its (path, drift) pairs and one pair at
    # a time
    bracket_cfgs = [tmp_path / "b.cfg", tmp_path / "c.cfg"]
    bracket_cfgs[0].write_text("scenario = custom\n"
                               "grid.n = 12\n"
                               "time.T = 0.05\n"
                               "spatial.p = 3.0\n"
                               "drift.kind = heaviside\n"
                               "noise.K = 2\n"
                               "u0.kind = sine\n"
                               "run.M = 3\n")
    bracket_cfgs[1].write_text("scenario = plap_bracket\n"
                               "grid.n = 16\n"
                               "time.T = 0.05\n"
                               "run.dual_jump_side = true\n")
    bracket_groups = [[tmp_path / f"{cfg.stem}_{name}" for name in ("run", "one_pair_runs")]
                      for cfg in bracket_cfgs]
    for cfg, group in zip(bracket_cfgs, bracket_groups):
        assert main(["run", str(cfg), "--seed", "2024", "--out", str(group[0])]) == 0
    one_pair_runs = []
    study = spdeorder.scenarios.bracket_study

    def per_pair_study(spec, u0, master_seed, path_indices, drifts, **kwargs):
        one_pair_runs.append((len(path_indices), len(drifts)))
        return [study(spec, u0, master_seed, [m], [drift], **kwargs)[0]
                for drift in drifts for m in path_indices]

    monkeypatch.setattr(spdeorder.scenarios, "bracket_study", per_pair_study)
    for cfg, group in zip(bracket_cfgs, bracket_groups):
        assert main(["run", str(cfg), "--seed", "2024", "--out", str(group[1])]) == 0
    assert one_pair_runs == [(3, 1), (1, 2)]

    ok, compared = True, 0
    for group in [outs] + bracket_groups:
        names = sorted(p.name for p in group[0].iterdir())
        ok &= len(names) > 0
        compared += len(names)
        for other in group[1:]:
            ok &= names == sorted(p.name for p in other.iterdir())
            for name in names:
                ok &= (group[0] / name).read_bytes() == (other / name).read_bytes()
    _report("criterion 9: reruns in one and in a fresh interpreter and in one-path "
            "and one-(path, drift) batches are byte-identical",
            ok, f"{compared} artifacts compared across {len(outs)} heat and "
                f"{2 * len(bracket_groups)} bracket runs")
