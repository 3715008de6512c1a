"""Flat-key configuration files for the scenario runner.

Format: one `section.key = value` pair per line, `#` comments, blank lines
ignored.  Every tolerance and run control has a pinned default so the
built-in scenarios run with zero user input; unknown keys are rejected.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .operators import DRIFT_KINDS, JUMP_SIDES, NOISE_KINDS, REACTION_KINDS


class Scenario(NamedTuple):
    description: str
    preset: dict  # config values the scenario pins over the defaults


# every built-in scenario pins its own preset so the acceptance runs need
# no user input
SCENARIOS = {
    "ode_counterexample": Scenario(
        "0D nonuniqueness regression: sqrt-plus drift, "
        "minimal solution 0 and maximal solution t^2/4",
        {
            "grid.mode": "ode",
            "grid.n": 1,
            "time.T": 1.0,
            "time.dt": 1e-3,
            "drift.kind": "sqrt_plus",
            "drift.C_B": 1.0,
            "noise.K": 0,
            "u0.kind": "zero",
            "run.tol_fixed": 1e-6,
            "run.max_outer": 60,
        }),
    "heat_comparison": Scenario(
        "coupled stochastic heat runs with ordered data; "
        "positive-part energy gate",
        {
            "grid.mode": "pde_1d",
            "grid.n": 64,
            "time.T": 0.25,
            "time.dt": 1e-3,
            "spatial.p": 2.0,
            "spatial.alpha": 1.0,
            "noise.K": 8,
            "noise.gamma": 0.5,
            "noise.kind": "linear",
            "run.M": 100,
            "run.comparison_tol": 1e-10,
            "comparison.h_low": -1.0,
            "comparison.h_high": 1.0,
        }),
    "plap_bracket": Scenario(
        "monotone bracket iteration for a discontinuous "
        "(heaviside) drift on the 1D heat operator",
        {
            "grid.mode": "pde_1d",
            "grid.n": 64,
            "time.T": 0.5,
            "time.dt": 1e-3,
            "spatial.p": 2.0,
            "drift.kind": "heaviside",
            "drift.s0": 0.5,
            "drift.low": 0.0,
            "drift.high": 1.0,
            "drift.C_B": 1.0,
            "noise.K": 0,
            "u0.kind": "sine",
            "u0.amplitude": 1.0,
            "run.tol_fixed": 1e-6,
            "run.max_outer": 100,
        }),
    "custom": Scenario("all problem and run parameters taken from the config file",
                       {}),
}


class ConfigError(ValueError):
    """Malformed configuration; the message names the offending key."""


def _positive(x):
    return x > 0


def _nonnegative(x):
    return x >= 0


# key -> (type, default, validator or None, description); float and tuple
# values must also be finite
SCHEMA = {
    "scenario": (str, "custom", lambda v: v in SCENARIOS, f"one of {tuple(SCENARIOS)}"),
    "grid.mode": (str, "pde_1d", lambda v: v in ("pde_1d", "ode"), "pde_1d or ode"),
    "grid.n": (int, 64, lambda v: v >= 1, "interior node count"),
    "grid.L": (float, 1.0, _positive, "domain length"),
    "time.T": (float, 1.0, _positive, "final time"),
    "time.dt": (float, 1e-3, _positive, "time step"),
    "spatial.p": (float, 2.0, lambda v: v >= 2, "growth exponent, >= 2"),
    "spatial.alpha": (float, 1.0, _positive, "operator coefficient"),
    "spatial.reg_delta": (float, 1e-12, _nonnegative, "Jacobian regularizer"),
    "drift.kind": (str, "zero", lambda v: v in DRIFT_KINDS,
                   f"one of {tuple(DRIFT_KINDS)}"),
    "drift.jump_side": (str, "lower", lambda v: v in JUMP_SIDES,
                        "heaviside jump selection"),
    "drift.s0": (float, 0.5, None, "heaviside jump point"),
    "drift.low": (float, 0.0, None, "heaviside lower value"),
    "drift.high": (float, 1.0, None, "heaviside upper value"),
    "drift.scale": (float, 1.0, None, "tanh drift scale"),
    "drift.knots": (tuple, (), lambda v: len(v) % 2 == 0,
                    "piecewise-linear knots r0,v0,r1,v1,..., even length"),
    "drift.C_B": (float, 1.0, _positive, "drift growth constant"),
    "reaction.kind": (str, "zero", lambda v: v in REACTION_KINDS,
                      f"one of {tuple(REACTION_KINDS)}"),
    "reaction.slope": (float, 0.0, None, "linear reaction slope"),
    "reaction.offset": (float, 0.0, None, "linear reaction offset"),
    "reaction.scale": (float, 1.0, None, "tanh reaction scale"),
    "reaction.C_F": (float, 1e-12, _positive, "reaction Lipschitz constant"),
    "noise.K": (int, 0, _nonnegative, "retained noise modes (0 = deterministic)"),
    "noise.gamma": (float, 0.5, _positive, "mode coefficient ladder prefactor"),
    "noise.kind": (str, "linear", lambda v: v in NOISE_KINDS,
                   f"one of {tuple(NOISE_KINDS)}"),
    "noise.C_G": (float, 0.0, _nonnegative, "noise constant (0 = derive from coeffs)"),
    "u0.kind": (str, "zero", lambda v: v in ("zero", "sine", "constant"),
                "initial datum"),
    "u0.amplitude": (float, 1.0, None, "initial datum amplitude"),
    "run.M": (int, 100, lambda v: v >= 1, "Monte Carlo path count"),
    "run.master_seed": (int, 12345, lambda v: 0 <= v < 2**64,
                        "master seed, a 64-bit word: 0 <= seed < 2**64"),
    "run.tol_fixed": (float, 1e-6, _positive, "fixed-point residual tolerance"),
    "run.max_outer": (int, 60, lambda v: v >= 1, "max outer sweeps"),
    "run.mono_tol": (float, 1e-10, _nonnegative, "monotonicity violation tolerance"),
    "run.comparison_tol": (float, 1e-10, _positive, "comparison energy tolerance"),
    "run.eps_list": (tuple, (1e-2, 1e-4), lambda v: len(v) >= 1 and all(e > 0 for e in v),
                     "regularizer eps values for diagnostics, at least one, each > 0"),
    "run.dual_jump_side": (bool, False, None, "also run the opposite jump_side"),
    "newton.tol": (float, 1e-10, _positive,
                   "Newton residual tolerance, times max(1, ||rhs||_H) per path"),
    "newton.max_iter": (int, 50, lambda v: v >= 1, "Newton iteration cap"),
    "comparison.reversed": (bool, False, None, "swap the ordered initial data"),
    "comparison.h_low": (float, -1.0, None, "lower frozen forcing"),
    "comparison.h_high": (float, 1.0, None, "upper frozen forcing"),
    "gates.min_sup": (float, 1e-6, _positive, "minimal-solution sup gate"),
    "gates.max_terminal_err": (float, 5e-3, _positive,
                               "maximal-solution terminal gate"),
    "gates.interval_tol": (float, 1e-10, _positive, "interval containment gate"),
}

DEFAULTS = {key: entry[1] for key, entry in SCHEMA.items()}


def _parse_value(key: str, raw: str):
    typ = SCHEMA[key][0]
    raw = raw.strip()
    try:
        if typ is bool:
            if raw.lower() in ("true", "yes", "1", "on"):
                return True
            if raw.lower() in ("false", "no", "0", "off"):
                return False
            raise ValueError("expected a boolean")
        if typ is int:
            return int(raw)
        if typ is float:
            return float(raw)
        if typ is tuple:
            if not raw:
                return ()
            return tuple(float(part) for part in raw.split(","))
        return raw
    except ValueError as err:
        raise ConfigError(f"config key {key!r}: cannot parse {raw!r} ({err})") from None


def _has_type(value, typ) -> bool:
    """value is of the SCHEMA type typ: an int is a float too, a bool is
    neither, and a tuple holds floats."""
    if typ is tuple:
        return isinstance(value, tuple) and all(_has_type(v, float) for v in value)
    return (isinstance(value, (int, float) if typ is float else typ)
            and isinstance(value, bool) == (typ is bool))


def _validate(key: str, value):
    typ, _, validator, description = SCHEMA[key]
    if not _has_type(value, typ):
        raise ConfigError(f"config key {key!r}: value {value!r} is not of type "
                          f"{typ.__name__}")
    if typ in (float, tuple) and not np.all(np.isfinite(value)):
        raise ConfigError(f"config key {key!r}: value {value!r} is not finite")
    if validator is not None and not validator(value):
        raise ConfigError(f"config key {key!r}: value {value!r} out of range "
                          f"({description})")


@dataclass(frozen=True)
class ScenarioConfig:
    values: dict

    def __getitem__(self, key):
        return self.values[key]

    @property
    def scenario(self) -> str:
        return self.values["scenario"]


def parse_config_text(text: str) -> dict:
    """Parse the raw key/value pairs of a config document."""
    raw = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got "
                              f"{stripped!r}")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if key not in SCHEMA:
            raise ConfigError(f"line {lineno}: unknown config key {key!r}")
        if key in raw:
            raise ConfigError(f"line {lineno}: duplicate config key {key!r}")
        raw[key] = _parse_value(key, value)
    return raw


def resolve_config(overrides: dict) -> ScenarioConfig:
    """Layer defaults, scenario preset, and explicit overrides; validate all."""
    scenario = overrides.get("scenario", DEFAULTS["scenario"])
    if scenario not in SCENARIOS:
        raise ConfigError(f"config key 'scenario': unknown scenario {scenario!r}")
    merged = dict(DEFAULTS)
    merged.update(SCENARIOS[scenario].preset)
    merged.update(overrides)
    merged["scenario"] = scenario
    for key, value in merged.items():
        _validate(key, value)
    # derived consistency checks
    n_steps = merged["time.T"] / merged["time.dt"]
    if abs(n_steps - round(n_steps)) > 1e-9 * max(1.0, n_steps):
        raise ConfigError("config key 'time.dt': T/dt must be an integer "
                          f"step count, got {n_steps}")
    if round(n_steps) < 1:
        raise ConfigError(f"config key 'time.T': T/dt must be at least one step, "
                          f"got {n_steps}")
    if merged["grid.mode"] == "ode" and merged["grid.n"] != 1:
        raise ConfigError("config key 'grid.n': ode mode requires grid.n = 1")
    if merged["grid.mode"] == "pde_1d" and merged["grid.n"] < 2:
        raise ConfigError("config key 'grid.n': pde_1d mode requires grid.n >= 2")
    return ScenarioConfig(merged)


def load_config(path) -> ScenarioConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return resolve_config(parse_config_text(text))
