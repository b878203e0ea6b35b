"""Command-line entry point.

    noetherdyn <experiment> [--config FILE] [--eta F] [--beta F] [--wd F]
               [--rho F] [--dt F] [--t1 F] [--seed N] [--out DIR]

argparse only splits argv; config.py reads each flag's text as it reads a
config line.  Every usage error, argparse's included, is one stderr line.
Flag values override config-file values.  NOETHERDYN_OUT sets the default
output root.  Exit codes: 0 all assertions pass, 1 an assertion failed,
2 usage error, 3 numerical abort.
"""

import argparse
import os
import sys

import numpy as np

from ..errors import DomainError, IntegrationError
from .config import EXPERIMENT_KINDS, UsageError, build_config, coerce, parse_config_file
from .experiments import run_experiment


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # in place of printing the usage and exiting 2
        raise UsageError(message)


def _parser():
    # SUPPRESS: a flag not given is left out, not set to None.  No prefix of
    # a flag is taken for it: which keys exist is decided by config.py alone
    parser = _Parser(
        prog="noetherdyn", argument_default=argparse.SUPPRESS, allow_abbrev=False,
        description="Run a symmetry-dynamics experiment and emit CSV/SVG/verdict artifacts.",
    )
    parser.add_argument("experiment", help="one of: " + ", ".join(EXPERIMENT_KINDS))
    parser.add_argument("--config", help="flat key=value config file")
    parser.add_argument("--eta", help="learning rate / step size")
    parser.add_argument("--beta", help="momentum coefficient")
    parser.add_argument("--wd", help="weight decay")
    parser.add_argument("--rho", help="adaptive memory coefficient")
    parser.add_argument("--dt", help="integration step")
    parser.add_argument("--t1", help="integration horizon")
    parser.add_argument("--seed", help="seed for any random initialization")
    parser.add_argument("--out", help="output directory")
    return parser


def main(argv=None) -> int:
    try:
        given = vars(_parser().parse_args(argv))
        kind, config = given.pop("experiment"), given.pop("config", None)
        file_values = parse_config_file(config) if config is not None else {}
        flags = {key: coerce(key, raw) for key, raw in given.items()}
        cfg = build_config(kind, file_values, flags, os.environ.get("NOETHERDYN_OUT"))
        # a diverging run overflows before its finiteness check aborts it;
        # the exit-3 line is the one diagnostic.  "ignore", not "raise":
        # raising would abort at the first overflow, not at the checked step
        with np.errstate(all="ignore"):
            verdicts = run_experiment(cfg)
    except SystemExit:  # --help, the one exit argparse still makes
        return 0
    # OSError: a --config that cannot be read, or an --out that cannot be made
    except (UsageError, OSError) as exc:
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
