"""Command-line entry point.

    noetherdyn <experiment> [--config FILE] [--eta F] [--beta F] [--wd F]
               [--rho F] [--dt F] [--t1 F] [--seed N] [--out DIR]

Flag values override config-file values.  NOETHERDYN_OUT sets the default
output root.  Exit codes: 0 all assertions pass, 1 an assertion failed,
2 usage error, 3 numerical abort.
"""

import argparse
import os
import sys

import numpy as np

from ..errors import DomainError, IntegrationError
from .config import EXPERIMENT_KINDS, UsageError, build_config, parse_config_file
from .experiments import run_experiment


def _parser():
    parser = argparse.ArgumentParser(
        prog="noetherdyn",
        description="Run a symmetry-dynamics experiment and emit CSV/SVG/verdict artifacts.",
    )
    parser.add_argument("experiment", choices=EXPERIMENT_KINDS)
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--eta", type=float, help="learning rate / step size")
    parser.add_argument("--beta", type=float, help="momentum coefficient")
    parser.add_argument("--wd", type=float, help="weight decay")
    parser.add_argument("--rho", type=float, help="adaptive memory coefficient")
    parser.add_argument("--dt", type=float, help="integration step")
    parser.add_argument("--t1", type=float, help="integration horizon")
    parser.add_argument("--seed", type=int, help="seed for any random initialization")
    parser.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    parser = _parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code == 0 else 2

    try:
        file_values = parse_config_file(args.config) if args.config else {}
        flags = {key: value for key, value in vars(args).items()
                 if key not in ("experiment", "config")}
        cfg = build_config(args.experiment, file_values, flags,
                           default_out=os.environ.get("NOETHERDYN_OUT"))
        # a diverging run overflows before its finiteness check aborts it;
        # the exit-3 line is the one diagnostic.  "ignore", not "raise":
        # raising would abort at the first overflow, not at the checked step
        with np.errstate(all="ignore"):
            verdicts = run_experiment(cfg)
    except (UsageError, FileNotFoundError) as exc:
        print(f"noetherdyn: usage error: {exc}", file=sys.stderr)
        return 2
    except (IntegrationError, DomainError) as exc:
        print(f"noetherdyn: numerical abort: {exc}", file=sys.stderr)
        return 3

    failed = [v for v in verdicts if not v.passed]
    for v in verdicts:
        print(v.line())
    if failed:
        print(f"noetherdyn: {len(failed)} assertion(s) failed", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
