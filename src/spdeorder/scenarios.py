"""Scenario runners: build problem specs from a resolved config, run the
assumption checks and the scenario pipeline, and write batch artifacts
(assumptions.txt, trajectory CSVs, comparison reports, bracket summaries,
summary.txt with one pass/fail line per gate).
"""
from __future__ import annotations

import dataclasses
import os
import shutil

import numpy as np

from .bracket import BracketPair, bracket_study
from .comparison import comparison_study, sigma_energy_trace
from .config import ConfigError, ScenarioConfig, SCENARIOS
from .core import Grid, TimeGrid, U0_KINDS
from .operators import (
    DRIFT_KINDS,
    REACTION_KINDS,
    DriftSpec,
    NoiseSpec,
    ReactionSpec,
    SpatialOpSpec,
    SpecError,
    check_assumptions,
)
from .solver import NewtonParams, ProblemSpec, constant_forcing


def build_grid(cfg: ScenarioConfig) -> Grid:
    return Grid(mode=cfg["grid.mode"], n_interior=cfg["grid.n"], length=cfg["grid.L"])


def build_time_grid(cfg: ScenarioConfig) -> TimeGrid:
    n_steps = int(round(cfg["time.T"] / cfg["time.dt"]))
    return TimeGrid(T=cfg["time.T"], n_steps=n_steps)


def build_pointwise(cfg: ScenarioConfig, section: str, spec_cls, kinds: dict,
                    constant: str):
    """Drift or reaction spec from its section: the kind, the parameters the
    kind's table entry names, and the declared constant."""
    kind = cfg[f"{section}.kind"]
    params = {p: cfg[f"{section}.{p}"] for p in kinds[kind].params + (constant,)}
    if "knots" in params:  # flat r0,v0,r1,v1,... in the config file
        flat = params["knots"]
        params["knots"] = tuple(zip(flat[0::2], flat[1::2]))
    return spec_cls(kind=kind, **params)


def build_noise(cfg: ScenarioConfig) -> NoiseSpec:
    K = cfg["noise.K"]
    if K == 0:
        return NoiseSpec()
    C_G = cfg["noise.C_G"] or None  # 0 means derive from the coefficients
    return NoiseSpec.geometric(K, gamma=cfg["noise.gamma"],
                               pointwise_kind=cfg["noise.kind"], C_G=C_G)


def build_u0(cfg: ScenarioConfig, grid: Grid) -> np.ndarray:
    """The (n,) initial datum of the config on grid."""
    return U0_KINDS[cfg["u0.kind"]](grid, cfg["u0.amplitude"])


def build_problem_spec(cfg: ScenarioConfig) -> ProblemSpec:
    """Raises ConfigError naming the key when the config passes the schema
    but violates a spec hypothesis (e.g. a drift above its declared C_B)."""
    try:
        return ProblemSpec(
            grid=build_grid(cfg),
            time_grid=build_time_grid(cfg),
            spatial=SpatialOpSpec(p=cfg["spatial.p"], alpha=cfg["spatial.alpha"],
                                  reg_delta=cfg["spatial.reg_delta"]),
            drift=build_pointwise(cfg, "drift", DriftSpec, DRIFT_KINDS, "C_B"),
            reaction=build_pointwise(cfg, "reaction", ReactionSpec, REACTION_KINDS,
                                     "C_F"),
            noise=build_noise(cfg),
        )
    except SpecError as err:
        raise ConfigError(f"config key {err.key!r}: {err}") from None


def build_newton(cfg: ScenarioConfig) -> NewtonParams:
    return NewtonParams(tol=cfg["newton.tol"], max_iter=cfg["newton.max_iter"])


def list_scenarios() -> str:
    lines = [f"{name}: {entry.description}" for name, entry in SCENARIOS.items()]
    return "\n".join(lines) + "\n"


def _write(out_dir: str, name: str, text: str) -> None:
    with open(os.path.join(out_dir, name), "w") as fh:
        fh.write(text)


def _write_summary(out_dir: str, scenario: str, gates: dict, extra: dict) -> None:
    lines = [f"scenario = {scenario}"]
    for key, value in extra.items():
        lines.append(f"{key} = {value!r}" if isinstance(value, float)
                     else f"{key} = {value}")
    for name, ok in gates.items():
        lines.append(f"gate.{name} = {'pass' if ok else 'fail'}")
    lines.append(f"all_gates = {'pass' if all(gates.values()) else 'fail'}")
    _write(out_dir, "summary.txt", "\n".join(lines) + "\n")


def _run_assumptions(cfg: ScenarioConfig, spec: ProblemSpec, out_dir: str) -> None:
    report = check_assumptions(spec.spatial, spec.drift, spec.reaction,
                               spec.noise, grid=spec.grid,
                               seed=cfg["run.master_seed"])
    _write(out_dir, "assumptions.txt", report.to_text())


def _run_brackets(cfg: ScenarioConfig, out_dir: str, M: int = 1,
                  flip_jump: bool = False) -> dict:
    """The one runner of the bracket scenarios: check the assumptions, then
    sweep noise paths 0..M-1 under the configured drift, and under the
    other jump side too when flip_jump, in one bracket_study batch.  Writes
    path 0's pair of each drift (the CSV of a final bit-identical to one
    already written is a byte copy of that file) and returns each drift's
    pairs, keyed by the suffix of its files: "" for the configured drift,
    _jump_<side> else."""
    spec = build_problem_spec(cfg)
    _run_assumptions(cfg, spec, out_dir)
    drifts = {"": spec.drift}
    if flip_jump:
        flipped = "upper" if cfg["drift.jump_side"] == "lower" else "lower"
        try:
            drifts[f"_jump_{flipped}"] = dataclasses.replace(spec.drift,
                                                             jump_side=flipped)
        except SpecError as err:  # a jump value above the growth bound
            raise ConfigError(f"config key {err.key!r}: {err}") from None
    pairs = bracket_study(spec, build_u0(cfg, spec.grid), cfg["run.master_seed"], range(M),
                          tuple(drifts.values()),
                          tol_fixed=cfg["run.tol_fixed"], max_outer=cfg["run.max_outer"],
                          mono_tol=cfg["run.mono_tol"], newton=build_newton(cfg))
    groups = {suffix: pairs[d * M:(d + 1) * M] for d, suffix in enumerate(drifts)}
    formatted = []  # (bits, path) of each final formatted so far
    for suffix, group in groups.items():
        for res in (group[0].minimal, group[0].maximal):
            _write(out_dir, f"bracket_{res.side}{suffix}.txt", res.to_text())
            path = os.path.join(out_dir, f"trajectory_{res.side}{suffix}.csv")
            # the same bits make the same file: copy it rather than format it
            # again (int64 views, so -0.0 and +0.0 differ)
            bits = res.final.values.view(np.int64)
            same = next((prev for b, prev in formatted if np.array_equal(b, bits)), None)
            if same is None:
                res.final.to_csv(path)
                formatted.append((bits, path))
            else:
                shutil.copyfile(same, path)
    return groups


def _contained(pairs: list[BracketPair], tol: float) -> bool:
    """Every iterate of both sides of every pair lies between the pair's
    extremals, to tol: the worst containment defect of the sweeps."""
    return max(max(res.containment_violations)
               for pair in pairs for res in (pair.minimal, pair.maximal)) <= tol


def _bracket_gates(cfg: ScenarioConfig, pairs: list[BracketPair]) -> tuple[dict, dict]:
    """The gates that the bracket scenarios share, over all pairs, and the
    cross-order extra."""
    cross = max(pair.cross_order_violation for pair in pairs)
    gates = {
        "monotone_sweeps": all(p.minimal.monotone_ok and p.maximal.monotone_ok
                               for p in pairs),
        "interval": _contained(pairs, cfg["gates.interval_tol"]),
        "min_below_max": cross <= cfg["run.mono_tol"],
    }
    return gates, {"cross_order_violation": cross}


def _scenario_ode_counterexample(cfg: ScenarioConfig, out_dir: str) -> dict:
    (pair,) = _run_brackets(cfg, out_dir)[""]
    minimal, maximal = pair.minimal, pair.maximal

    min_sup = float(np.max(np.abs(minimal.final.values)))
    t_final = cfg["time.T"]
    max_terminal = float(maximal.final.single_path()[-1, 0])
    target = t_final**2 / 4.0
    gates = {
        "min_converged": minimal.converged,
        "max_converged": maximal.converged,
        "min_sup_zero": min_sup <= cfg["gates.min_sup"],
        "max_terminal": abs(max_terminal - target) <= cfg["gates.max_terminal_err"],
        "monotone_sweeps": minimal.monotone_ok and maximal.monotone_ok,
        "interval": _contained([pair], cfg["gates.interval_tol"]),
    }
    extra = {
        "u_min_sup": min_sup,
        "u_max_terminal": max_terminal,
        "u_max_terminal_target": target,
        "min_sweeps": minimal.n_sweeps,
        "max_sweeps": maximal.n_sweeps,
    }
    _write_summary(out_dir, cfg.scenario, gates, extra)
    return gates


def _scenario_heat_comparison(cfg: ScenarioConfig, out_dir: str) -> dict:
    spec = build_problem_spec(cfg)
    grid = spec.grid
    u0_1, u0_2 = np.zeros(grid.n_interior), np.sin(np.pi * grid.x / grid.length)
    if cfg["comparison.reversed"]:
        u0_1, u0_2 = u0_2, u0_1
    _run_assumptions(cfg, spec, out_dir)
    # without noise every path is the same deterministic pair
    M = cfg["run.M"] if spec.noise.K > 0 else 1

    report = comparison_study(
        spec, u0_1, u0_2, M, cfg["run.master_seed"],
        forcing_1=constant_forcing(cfg["comparison.h_low"]),
        forcing_2=constant_forcing(cfg["comparison.h_high"]),
        tol=cfg["run.comparison_tol"], newton=build_newton(cfg))
    _write(out_dir, "comparison.txt", report.to_text())
    report.energies_to_csv(os.path.join(out_dir, "comparison.csv"))

    # regularizer diagnostics on the first path
    t1, t2 = report.first_pair
    t1.to_csv(os.path.join(out_dir, "trajectory_lower.csv"))
    t2.to_csv(os.path.join(out_dir, "trajectory_upper.csv"))
    times = spec.time_grid.times()
    traces = {eps: sigma_energy_trace(t1, t2, eps) for eps in cfg["run.eps_list"]}
    with open(os.path.join(out_dir, "sigma_trace.csv"), "w") as fh:
        fh.write("t," + ",".join(f"eps_{eps!r}" for eps in traces) + "\n")
        for n, t in enumerate(times):
            row = ",".join(repr(float(traces[eps][n])) for eps in traces)
            fh.write(f"{float(t)!r},{row}\n")

    gates = {"comparison": report.passed}
    extra = {
        "paths": report.n_paths,
        "worst_energy": report.worst_energy,
        "tolerance": report.tol,
        "reversed": cfg["comparison.reversed"],
    }
    _write_summary(out_dir, cfg.scenario, gates, extra)
    return gates


def _plap_gates(cfg: ScenarioConfig, pair: BracketPair) -> tuple[dict, dict]:
    minimal, maximal = pair.minimal, pair.maximal
    shared, shared_extra = _bracket_gates(cfg, [pair])
    gates = {"min_converged": minimal.converged, "max_converged": maximal.converged,
             **shared}
    extra = {
        "min_sweeps": minimal.n_sweeps,
        "max_sweeps": maximal.n_sweeps,
        "min_final_residual": minimal.residual_history[-1],
        "max_final_residual": maximal.residual_history[-1],
        **shared_extra,
    }
    return gates, extra


def _scenario_plap_bracket(cfg: ScenarioConfig, out_dir: str) -> dict:
    # the flipped jump side exposes the jump-selection dependence of the
    # computed bracket
    groups = _run_brackets(cfg, out_dir, flip_jump=cfg["run.dual_jump_side"])
    gates, extra = _plap_gates(cfg, groups.pop("")[0])
    for suffix, (pair,) in groups.items():
        gates.update({f"{k}{suffix}": v for k, v in _plap_gates(cfg, pair)[0].items()})
    _write_summary(out_dir, cfg.scenario, gates, extra)
    return gates


def _scenario_custom(cfg: ScenarioConfig, out_dir: str) -> dict:
    M = cfg["run.M"] if cfg["noise.K"] > 0 else 1
    pairs = _run_brackets(cfg, out_dir, M)[""]
    gaps = [pair.gap for pair in pairs]
    shared, shared_extra = _bracket_gates(cfg, pairs)
    gates = {"converged": all(p.minimal.converged and p.maximal.converged for p in pairs),
             **shared}
    extra = {"paths": M, "max_gap": max(gaps), "mean_gap": sum(gaps) / len(gaps),
             **shared_extra}
    _write_summary(out_dir, cfg.scenario, gates, extra)
    return gates


_RUNNERS = {
    "ode_counterexample": _scenario_ode_counterexample,
    "heat_comparison": _scenario_heat_comparison,
    "plap_bracket": _scenario_plap_bracket,
    "custom": _scenario_custom,
}


def run_scenario(cfg: ScenarioConfig, out_dir: str) -> int:
    """Run one scenario, write artifacts to the existing directory out_dir,
    return 0 iff all gates pass."""
    gates = _RUNNERS[cfg.scenario](cfg, out_dir)
    return 0 if all(gates.values()) else 1
