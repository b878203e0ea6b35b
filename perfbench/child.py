"""One benchmark pass, run by run.py in a fresh process.

Imports the package, optionally installs the tracer, then calls the public
CLI entry noetherdyn.harness.cli.main once per experiment and writes its
timings (and, when traced, its spans) to a JSON result file.  With no
experiments it only sets up, which is how run.py samples set-up time.

Set-up and pass times are reported twice: as the clock read them
(`*_clock_s`) and corrected for the host's speed while they ran (speed.py).
"""

import time

import speed

SETUP_SAMPLER = speed.SpeedSampler(speed.SETUP_KERNEL).start()  # before any import

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

from workloads import cli_argv  # noqa: E402


def _cpu_seconds() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + reaped.ru_utime + reaped.ru_stime


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--t0", type=float, required=True,
                        help="CLOCK_MONOTONIC reading taken just before this process was spawned")
    parser.add_argument("--result", required=True, help="JSON file to write")
    parser.add_argument("--src", required=True, help="directory the package must come from")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", required=True, help="output root; one subdirectory per experiment")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("kinds", nargs="*")
    args = parser.parse_args()

    started = time.monotonic()
    import noetherdyn
    from noetherdyn.harness import cli
    import_s = time.monotonic() - started
    package = Path(noetherdyn.__file__).resolve()
    if Path(args.src).resolve() not in package.parents:
        raise SystemExit(f"noetherdyn was imported from {package}, not from {args.src}")

    tracer = None
    if args.trace:
        import tracer as tracing
        tracer = tracing.install()

    argvs = [cli_argv(kind, args.seed, str(Path(args.out) / kind)) for kind in args.kinds]
    setup_end = time.monotonic()
    setup_s = SETUP_SAMPLER.stop(args.t0, setup_end)
    sampler = speed.SpeedSampler(speed.pass_kernel()).start()
    cpu_before = _cpu_seconds()
    started = time.monotonic()
    codes = [cli.main(argv) for argv in argvs]
    ended = time.monotonic()
    cpu_clock_s = _cpu_seconds() - cpu_before
    wall_s = sampler.stop(started, ended)
    wall_clock_s = ended - started
    # one factor for CPU time too: a slow host slows the CPU time of a pass alike
    cpu_s = cpu_clock_s * wall_s / wall_clock_s if wall_clock_s > 0 else cpu_clock_s

    import platform

    import numpy
    import scipy
    result = {"setup_s": setup_s,
              "setup_clock_s": setup_end - args.t0, "import_s": import_s,
              "wall_s": wall_s, "wall_clock_s": wall_clock_s,
              "cpu_s": cpu_s, "cpu_clock_s": cpu_clock_s,
              "exit_codes": dict(zip(args.kinds, codes)),
              "versions": {"python": platform.python_version(), "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        result["spans"] = tracer.spans
        result["work"] = tracer.work
    Path(args.result).write_text(json.dumps(result))


if __name__ == "__main__":
    main()
