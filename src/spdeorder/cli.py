"""Command-line entry point.

    spde-order list
    spde-order run <config-path> [--seed S] [--out DIR] [--paths M]

Artifacts are batch outputs written to the output directory; repeated runs
with identical config and seed are byte-identical.
"""
from __future__ import annotations

import argparse
import difflib
import os
import sys

from .config import ConfigError, SCENARIOS, load_config, resolve_config
from .scenarios import list_scenarios, run_scenario
from .solver import NewtonDivergenceError

# the messages of numpy's ValueErrors for an array too large to address
_TOO_BIG = ("array is too big", "Maximum allowed dimension exceeded")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spde-order",
        description="Order-based bracketing solver for parabolic SPDEs with "
                    "a nondecreasing, possibly discontinuous drift.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run a scenario described by a config file")
    run.add_argument("config", help="path to the config file")
    run.add_argument("--seed", type=int, default=None,
                     help="override run.master_seed")
    run.add_argument("--out", default="out", help="output directory")
    run.add_argument("--paths", type=int, default=None, help="override run.M")

    sub.add_parser("list", help="list built-in scenarios")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "list":
        sys.stdout.write(list_scenarios())
        return 0

    try:
        overrides = dict(load_config(args.config).values)
        if args.seed is not None:
            overrides["run.master_seed"] = args.seed
        if args.paths is not None:
            overrides["run.M"] = args.paths
        cfg = resolve_config(overrides)
    except FileNotFoundError:
        sys.stderr.write(f"config file not found: {args.config}\n")
        close = difflib.get_close_matches(args.config, SCENARIOS, n=1)
        if close:
            sys.stderr.write(
                f"did you mean a config with 'scenario = {close[0]}'?\n")
        return 2
    except (OSError, UnicodeDecodeError) as err:  # a directory, unreadable, not UTF-8
        reason = err.strerror if isinstance(err, OSError) else err
        sys.stderr.write(f"cannot read config file {args.config}: {reason}\n")
        return 2
    except ConfigError as err:  # in the file or an override
        sys.stderr.write(f"config error: {err}\n")
        return 2
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        sys.stderr.write(f"cannot create output directory {args.out}: {err.strerror}\n")
        return 2
    try:
        return run_scenario(cfg, args.out)
    except ConfigError as err:  # inconsistent with the spec
        sys.stderr.write(f"config error: {err}\n")
        return 2
    except NewtonDivergenceError as err:
        sys.stderr.write(f"solver failure: {err}\n")
        return 3
    except MemoryError as err:  # numpy's names the array's size and shape
        sys.stderr.write(f"out of memory: {str(err) or 'the run does not fit in memory'}\n")
        return 2
    except ValueError as err:
        # numpy's refusal of a shape past the address space, raised before
        # any allocation (a step count such as time.T = 1e16)
        if not str(err).startswith(_TOO_BIG):
            raise
        sys.stderr.write(f"out of memory: {err}\n")
        return 2
    except OSError as err:  # an artifact path that is a directory, a full disk
        # a failed write to an open file names no path: name the directory
        sys.stderr.write(f"cannot write artifact {err.filename or args.out}: "
                         f"{err.strerror}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
