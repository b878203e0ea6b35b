"""noetherdyn benchmark: times the CLI experiments end to end and layer by layer.

    python3 perfbench/run.py --workload charge-balance --seed 0 --seconds 30 --trace 0

Run it from a source checkout: it imports the package from src/ (no install
needed) and writes scratch output under .perfbench_out/, which it removes
when it ends.

Every pass is a fresh single-threaded process (perfbench/child.py) that calls
the public CLI entry noetherdyn.harness.cli.main once per experiment of the
workload, so argument parsing, compute, emission and exit codes are all in
the measured path.  A run repeats passes for about --seconds seconds (at
least three), plus a few processes that only set up.  Each child corrects its
set-up and pass times for the host's speed while they ran (speed.py); the
clock times are printed too.

Correctness: an operation is one CLI call, one verdict, or one determinism
check.  It fails on a nonzero exit code, a failing verdict, a verdict whose
measured value differs from reference_verdicts.json by more than 1e-12
relative, or CSV bytes (or, traced, work counters) that differ from the
run's first pass of the same seed.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates traced and
untraced passes and prints the per-layer metrics (tracer.py), including the
tracing overhead, which never enters the end-to-end numbers.  The last line
of stdout is one JSON object; the lines before it repeat each metric with its
sample count and quartiles.
"""

import argparse
import collections
import hashlib
import json
import os
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import ACCEPTANCE_FLAGS, SEEDED, WORKLOADS, input_seed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_ROOT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference_verdicts.json"
COUNTERS_SEED0 = HERE / "counters_seed0.json"

MIN_PASSES = 3
SETUP_PROBES = 16
PROBES_PER_PASS = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s whatever --seconds says
REL_TOL = 1e-12

_SINGLE_THREAD = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                  "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB"}

# Counters that must repeat exactly between traced passes of one seed.
COUNTERS = (
    "continuous.rk4_steps", "continuous.rhs.calls",
    "geometry.check_domain.calls", "geometry.grad.calls", "geometry.hessian_solve.calls",
    "losses.grad.calls", "symmetry.noether_residual.samples",
    "experiments.flagship_run.steps", "discrete.step.calls",
    "closedform.schedule.samples", "report.csv_rows", "report.out_bytes",
)
RHS_METRICS = ("euclidean", "quadratic-form", "negative-entropy")


def child_env():
    env = dict(os.environ)
    env.update({name: "1" for name in _SINGLE_THREAD})
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    env.pop("NOETHERDYN_OUT", None)
    return env


class Pass:
    """One child process: its own timings plus what its output files show."""

    def __init__(self, result, exit_code, usage, traced, elapsed_s):
        self.traced = traced
        self.exit_code = exit_code
        self.result = result or {}
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.elapsed_s = elapsed_s  # spawn to reap, as the run's clock sees it
        self.digests = {}
        self.verdicts = {}


class Bench:
    """Spawns passes into one scratch directory, each killed at the run deadline."""

    def __init__(self, run_dir, deadline):
        self.run_dir = run_dir
        self.deadline = deadline
        self.env = child_env()

    def spawn(self, name, kinds=(), seed=0, traced=False):
        """Run child.py to completion and collect its result and output files."""
        result_path = self.run_dir / f"{name}.json"
        err_path = self.run_dir / f"{name}.err"
        out = self.run_dir / name
        cmd = [sys.executable, str(HERE / "child.py"), "--result", str(result_path),
               "--src", str(SRC), "--seed", str(seed), "--out", str(out)]
        if traced:
            cmd.append("--trace")
        with open(err_path, "w") as err:
            t0 = time.clock_gettime(time.CLOCK_MONOTONIC)
            proc = subprocess.Popen(cmd + ["--t0", repr(t0), *kinds], cwd=ROOT,
                                    env=self.env, stdout=subprocess.DEVNULL, stderr=err)
        pidfd = os.pidfd_open(proc.pid)
        try:
            timeout = max(0.0, self.deadline - time.monotonic())
            if not select.select([pidfd], [], [], timeout)[0]:
                proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        finally:
            os.close(pidfd)
            if proc.returncode is None:
                proc.kill()
                proc.wait()
        elapsed_s = time.clock_gettime(time.CLOCK_MONOTONIC) - t0
        result = json.loads(result_path.read_text()) if result_path.exists() else None
        record = Pass(result, proc.returncode, usage, traced, elapsed_s)
        if proc.returncode != 0:
            sys.stderr.write(f"perfbench: pass {name} exited {proc.returncode}:\n"
                             + err_path.read_text()[-2000:])
        for kind in kinds:
            record.digests[kind] = csv_digest(out / kind)
            record.verdicts[kind] = read_verdicts(out / kind / "verdict.tsv")
        shutil.rmtree(out, ignore_errors=True)
        return record


def csv_digest(directory):
    digest = hashlib.sha256()
    for path in sorted(directory.glob("*.csv")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return digest.hexdigest()


def read_verdicts(path):
    """assertion id -> (passed, measured); columns beyond the first four are ignored."""
    if not path.exists():
        return {}
    verdicts = {}
    for line in path.read_text().splitlines():
        fields = line.split("\t")
        verdicts[fields[0]] = (fields[1] == "pass", float(fields[2]))
    return verdicts


class Ledger:
    """Attempted and failed operations, with a reason for each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, ok, reason):
        self.attempted += 1
        if not ok:
            self.failures.append(reason)


def report_failures(ledger):
    for reason, count in collections.Counter(ledger.failures).items():
        print(f"perfbench: FAILED ({count}x) {reason}", file=sys.stderr)


def check_pass(ledger, record, first, reference, seed, kinds):
    codes = record.result.get("exit_codes", {})
    for kind in kinds:
        code = codes.get(kind, record.exit_code or "missing")
        ledger.check(code == 0, f"{kind}: exit code {code}")
        expected = reference[kind]["any" if kind not in SEEDED else str(input_seed(seed))]
        measured = record.verdicts.get(kind, {})
        for aid, value in expected.items():
            passed, got = measured.get(aid, (False, float("nan")))
            close = abs(got - value) <= REL_TOL * abs(value)
            ledger.check(passed and close,
                         f"{aid}: {'pass' if passed else 'fail'}, measured {got!r}, "
                         f"reference {value!r}")
        for aid in measured.keys() - expected.keys():
            ledger.check(measured[aid][0], f"{aid}: fail (no reference value)")
        if record is not first:
            ledger.check(record.digests[kind] == first.digests[kind],
                         f"{kind}: CSV bytes differ from the run's first pass")


def describe(values):
    """(median, q1, q3, n) as printed in the summary lines."""
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return statistics.median(values), q1, q3, len(values)


def end_to_end(untraced, probes):
    """setup_s, wall_s, cpu_s and peak_rss_mb, corrected for the host's speed
    by the child (speed.py), plus the clock times behind them."""
    samples = {
        "setup_s": [p.result["setup_s"] for p in probes + untraced if p.result],
        "wall_s": [p.result["wall_s"] for p in untraced],
        "cpu_s": [p.result["cpu_s"] for p in untraced],
        "peak_rss_mb": [p.peak_rss_mb for p in untraced],
    }
    metrics = {name: (values, END_TO_END_UNITS[name]) for name, values in samples.items()}
    printed = {
        "setup_clock_s": ([p.result["setup_clock_s"] for p in probes + untraced if p.result],
                          "s"),
        "wall_clock_s": ([p.result["wall_clock_s"] for p in untraced], "s"),
        "cpu_clock_s": ([p.result["cpu_clock_s"] for p in untraced], "s"),
        "host_slowdown": ([p.result["wall_clock_s"] / p.result["wall_s"] for p in untraced],
                          "ratio"),
    }
    return metrics, printed


def per_call_us(total_s, count):
    return 1e6 * total_s / count if count else 0.0


def layer_values(result):
    """Per-layer metrics of one traced pass."""
    spans = result["spans"]
    work = result["work"]

    def calls(key):
        return spans.get(key, (0, 0.0, 0.0))[0]

    def total(key):
        return spans.get(key, (0, 0.0, 0.0))[1]

    rhs_calls = sum(v[0] for k, v in spans.items() if k.startswith("continuous.rhs."))
    steps = work.get("continuous.rk4_steps", 0)
    samples = work.get("symmetry.noether_residual.samples", 0)
    flagship_steps = work.get("experiments.flagship_run.steps", 0)
    kernel_samples = work.get("closedform.schedule.samples", 0)
    rows = work.get("report.csv_rows", 0)
    values = {
        "continuous.rk4_steps": (steps, "count"),
        "continuous.rhs.calls": (rhs_calls, "count"),
        "continuous.rk4_step_us": (per_call_us(total("continuous.rk4_solve"), steps), "us"),
    }
    for metric in RHS_METRICS:
        key = f"continuous.rhs.{metric}"
        values[f"continuous.rhs_us.{metric}"] = (per_call_us(total(key), calls(key)), "us")
    for method in ("check_domain", "grad", "hessian_solve"):
        values[f"geometry.{method}.calls"] = (calls(f"geometry.{method}"), "count")
    values["geometry.hessian_solve_us"] = (
        per_call_us(total("geometry.hessian_solve"), calls("geometry.hessian_solve")), "us")
    values["losses.grad.calls"] = (calls("losses.grad"), "count")
    values["losses.grad_us"] = (per_call_us(total("losses.grad"), calls("losses.grad")), "us")
    values["symmetry.noether_residual.samples"] = (samples, "count")
    values["symmetry.noether_residual_us_per_sample"] = (
        per_call_us(total("symmetry.noether_residual"), samples), "us")
    values["experiments.flagship_run.steps"] = (flagship_steps, "count")
    values["experiments.flagship_run_us_per_step"] = (
        per_call_us(total("experiments.flagship_run"), flagship_steps), "us")
    for kind in ACCEPTANCE_FLAGS:
        key = f"experiments.{kind}"
        values[f"{key}.s"] = (total(key), "s")
        values[f"{key}.self_s"] = (spans.get(key, (0, 0.0, 0.0))[2], "s")
    values["discrete.step.calls"] = (calls("discrete.step"), "count")
    values["discrete.step_us"] = (per_call_us(total("discrete.step"), calls("discrete.step")),
                                  "us")
    values["closedform.schedule.samples"] = (kernel_samples, "count")
    values["closedform.exp_kernel_us_per_sample"] = (
        per_call_us(total("closedform.exp_kernel_schedule"), kernel_samples), "us")
    values["report.csv_rows"] = (rows, "count")
    values["report.out_bytes"] = (work.get("report.out_bytes", 0), "bytes")
    values["report.write_csv_us_per_row"] = (per_call_us(total("report.write_csv"), rows), "us")
    values["report.write_svg_s"] = (total("report.write_svg"), "s")
    runners = sum(total(f"experiments.{kind}") for kind in ACCEPTANCE_FLAGS)
    values["trace.coverage"] = (runners / result["wall_clock_s"], "ratio")
    return values


def per_layer(traced, untraced, ledger, workload, seed):
    """Median of each per-layer metric over the traced passes; counters must repeat."""
    passes = [p.result for p in traced]
    per_pass = [layer_values(r) for r in passes]
    first = per_pass[0]
    for other in per_pass[1:]:
        for name in COUNTERS:
            ledger.check(other[name][0] == first[name][0],
                         f"{name}: {other[name][0]} in one traced pass, "
                         f"{first[name][0]} in another")
    metrics = {name: ([first[name][0]] if name in COUNTERS else [v[name][0] for v in per_pass],
                      unit)
               for name, (_, unit) in first.items()}
    metrics["setup.import_s"] = ([p.result["import_s"] for p in traced + untraced], "s")
    # passes alternate traced/untraced, so each pair shares the machine's state
    overheads = [t.result["wall_s"] - u.result["wall_s"] for t, u in zip(traced, untraced)]
    metrics["trace.overhead_s"] = (overheads, "s")

    if seed == 0:
        recorded = json.loads(COUNTERS_SEED0.read_text())[workload]
        for name in COUNTERS:
            if first[name][0] != recorded[name]:
                print(f"perfbench: note: {name} = {first[name][0]}, recorded seed-0 value "
                      f"{recorded[name]}", file=sys.stderr)
    coverage = statistics.median(metrics["trace.coverage"][0])
    if coverage < 0.95:
        print(f"perfbench: warning: runner spans cover only {coverage:.1%} of the traced "
              "pass wall", file=sys.stderr)
    return metrics


def run(workload, seed, seconds, trace):
    """Run passes for about `seconds`; return (metrics, printed-only metrics, ledger,
    summary line)."""
    kinds = WORKLOADS[workload]
    reference = json.loads(REFERENCE.read_text())
    started = time.monotonic()
    run_dir = OUT_ROOT / f"{workload}-{seed}-{os.getpid()}"
    run_dir.mkdir(parents=True, exist_ok=True)
    bench = Bench(run_dir, started + RUN_LIMIT_S)
    ledger = Ledger()
    passes = []
    try:
        bench.spawn("warmup")  # fills __pycache__; not timed
        probes = []
        while len(passes) < MIN_PASSES or (
                time.monotonic() - started + max(p.elapsed_s for p in passes) <= seconds):
            # spread over the run, like the passes; a traced run reports no set-up time
            while not trace and len(probes) < min(SETUP_PROBES,
                                                  PROBES_PER_PASS * (len(passes) + 1)):
                probes.append(bench.spawn(f"setup{len(probes)}"))
            traced = trace and len(passes) % 2 == 0
            record = bench.spawn(f"pass{len(passes)}", kinds, input_seed(seed), traced)
            check_pass(ledger, record, passes[0] if passes else record, reference, seed, kinds)
            passes.append(record)
            if time.monotonic() >= bench.deadline:
                break
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        if OUT_ROOT.exists() and not any(OUT_ROOT.iterdir()):
            OUT_ROOT.rmdir()

    untraced = [p for p in passes if not p.traced and p.result]
    traced = [p for p in passes if p.traced and p.result]
    if not untraced or (trace and not traced):
        report_failures(ledger)
        sys.exit("perfbench: no pass of the needed kind finished; nothing to report")
    if trace:
        metrics = per_layer(traced, untraced, ledger, workload, input_seed(seed))
        printed = {}
    else:
        metrics, printed = end_to_end(untraced, probes)
    versions = next((p.result["versions"] for p in passes if p.result), {})
    summary = (f"# workload={workload} seed={seed} input_set={input_seed(seed)} "
               f"passes={len(passes)} traced={len(traced)} setup_probes={len(probes)} "
               f"elapsed_s={time.monotonic() - started:.1f}\n"
               f"# nproc={os.cpu_count()} "
               + " ".join(f"{name}={version}" for name, version in versions.items())
               + " blas_threads=1")
    return metrics, printed, ledger, summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # unwind on SIGTERM too, so the running pass is killed and scratch output removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "noetherdyn" / "harness" / "cli.py").is_file():
        sys.exit(f"perfbench: no noetherdyn sources under {SRC}; run from a source checkout")

    metrics, printed, ledger, summary = run(args.workload, args.seed, args.seconds,
                                            bool(args.trace))
    report_failures(ledger)
    print(summary)
    for name, (values, unit) in {**metrics, **printed}.items():
        mid, q1, q3, n = describe(values)
        print(f"{name} = {mid!r} {unit} (n={n}, q1={q1!r}, q3={q3!r})")
    failed = len(ledger.failures)
    print(f"failed_ratio = {failed / ledger.attempted!r} ratio "
          f"(failed={failed}, attempted={ledger.attempted})")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": {name: {"value": statistics.median(values), "unit": unit}
                    for name, (values, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
