"""Command-line entry point.

    noetherdyn <experiment> [--config FILE] [--key value | --key=value]...

config.py reads the command line; every usage error is one stderr line.
NOETHERDYN_OUT sets the default output root.  Exit codes: 0 all assertions
pass, 1 an assertion failed, 2 usage error, 3 numerical abort.
"""

import os
import sys

import numpy as np

from ..errors import DomainError, IntegrationError
from .config import COMMON, PARAMETERS, REQUIRED, UsageError, read_command_line
from .experiments import run_experiment


def _keys(table) -> str:
    return ", ".join(key if value is REQUIRED else f"{key} ({value})"
                     for key, value in table.items())


def _usage() -> str:
    """The --help text: the grammar, then each experiment's keys from PARAMETERS
    and the keys all of them take from COMMON."""
    lines = ["usage: noetherdyn <experiment> [--config FILE] [--key value | --key=value]...",
             "Each flag is read as the config line 'key = value' and overrides the file.",
             "Experiments and their keys, (default) if optional:"]
    for kind, table in PARAMETERS.items():
        lines.append(f"  {kind:<17} {_keys(table)}".rstrip())
    lines.append(f"Every experiment also takes: {_keys(COMMON)}")
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_usage())
        return 0
    try:
        cfg = read_command_line(argv, os.environ.get("NOETHERDYN_OUT"))
        # a diverging run overflows before its finiteness check aborts it;
        # the exit-3 line is the one diagnostic.  "ignore", not "raise":
        # raising would abort at the first overflow, not at the checked step
        with np.errstate(all="ignore"):
            verdicts = run_experiment(cfg)
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
