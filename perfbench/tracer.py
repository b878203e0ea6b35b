"""Outside-in tracing of the noetherdyn layers for the traced benchmark run.

Nothing under src/ knows about this module.  `install()` replaces public
functions and methods at each layer boundary with timing wrappers at runtime: module
attributes are rebound in every noetherdyn module that imported them by
name, class methods are replaced on each class that defines them, and the
right-hand side of every equation-of-motion system is wrapped as the system
is built.

Spans are aggregated per key (calls, total seconds, self seconds) instead of
being stored one by one: the charge-balance pass makes over a million calls
into the geometry and loss layers.  A call counts once at its outermost
level: a wrapped method reached again under the same key (for example
NegativeEntropy.check_domain calling Metric.check_domain through super())
runs unwrapped inside the outer span.  Self time is a span's duration minus
the durations of its direct child spans.
"""

import functools
import inspect
import sys
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans = {}  # key -> [calls, total_s, self_s]
        self.work = {}  # key -> count of work items (steps, samples, rows, bytes)
        self._active = {}  # key -> 1 while a span of that key is open
        self._stack = []  # one [child_seconds] cell per open span

    def add_work(self, key, amount):
        self.work[key] = self.work.get(key, 0) + int(amount)

    def wrap(self, fn, key, on_return=None):
        """Time fn under `key`; on_return(result, bound_args) counts work."""
        spans, active, stack = self.spans, self._active, self._stack
        signature = inspect.signature(fn) if on_return is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if active.get(key):
                return fn(*args, **kwargs)
            active[key] = 1
            cell = [0.0]
            stack.append(cell)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack.pop()
                active[key] = 0
                record = spans.get(key)
                if record is None:
                    record = spans[key] = [0, 0.0, 0.0]
                record[0] += 1
                record[1] += elapsed
                record[2] += elapsed - cell[0]
                if stack:
                    stack[-1][0] += elapsed
            if on_return is not None:
                on_return(result, signature.bind(*args, **kwargs).arguments)
            return result

        return traced


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "noetherdyn" or name.startswith("noetherdyn."))]


def _rebind(original, replacement):
    """Point every noetherdyn module attribute bound to `original` at `replacement`."""
    for module in _package_modules():
        for name, value in list(vars(module).items()):
            if value is original:
                setattr(module, name, replacement)


def _patch_function(tracer, module, name, key, on_return=None):
    original = getattr(module, name)
    _rebind(original, tracer.wrap(original, key, on_return))


def _patch_methods(tracer, module, base, methods, layer):
    for cls in vars(module).values():
        if not (isinstance(cls, type) and issubclass(cls, base)):
            continue
        for method in methods:
            if method in vars(cls):
                setattr(cls, method, tracer.wrap(vars(cls)[method], f"{layer}.{method}"))


def install() -> Tracer:
    """Wrap every traced layer boundary and return the tracer that records them."""
    from noetherdyn import closedform, continuous, discrete, geometry, losses, symmetry
    from noetherdyn.harness import experiments, report

    tracer = Tracer()
    work = tracer.add_work

    # harness.experiments: one span per runner, and the inline flagship loop
    runners = experiments._RUNNERS
    for kind, runner in list(runners.items()):
        traced = tracer.wrap(runner, f"experiments.{kind}")
        _rebind(runner, traced)
        runners[kind] = traced
    _patch_function(tracer, experiments, "flagship_run", "experiments.flagship_run",
                    lambda result, a: work("experiments.flagship_run.steps",
                                           result[0].size - 1))

    # continuous: integrator, and each equation-of-motion right-hand side
    _patch_function(tracer, continuous, "integrate_rk4", "continuous.integrate_rk4")
    _patch_function(tracer, continuous, "rk4_solve", "continuous.rk4_solve",
                    lambda result, a: work("continuous.rk4_steps", result[0].size - 1))
    for name in [n for n in vars(continuous) if n.startswith("eom_")]:
        _patch_function(tracer, continuous, name, f"continuous.{name}",
                        _rhs_wrapper(tracer, name[len("eom_"):]))

    # geometry and losses: these methods on every metric and loss class
    _patch_methods(tracer, geometry, geometry.Metric,
                   ("grad", "hessian_solve", "check_domain"), "geometry")
    _patch_methods(tracer, losses, losses.Loss, ("grad",), "losses")

    # symmetry: balance-law residual per sample, kinetic-symmetry table
    _patch_function(tracer, symmetry, "noether_residual", "symmetry.noether_residual",
                    lambda result, a: work("symmetry.noether_residual.samples",
                                           result.times.size))
    _patch_function(tracer, symmetry, "table2_report", "symmetry.table2_report")

    # discrete: every library optimizer step shares one key
    for name in [n for n in vars(discrete) if n.startswith("step_")]:
        _patch_function(tracer, discrete, name, "discrete.step")

    # closedform: the exponential-kernel convolution behind both schedules
    _patch_function(tracer, closedform, "exp_kernel_schedule",
                    "closedform.exp_kernel_schedule",
                    lambda result, a: work("closedform.schedule.samples", result.size))

    # harness.report: CSV rows and bytes, SVG files, channel comparisons
    def csv_rows(count_arg):
        def on_return(path, a):
            work("report.csv_rows", len(a[count_arg]))
            work("report.out_bytes", path.stat().st_size)
        return on_return

    _patch_function(tracer, report, "write_csv", "report.write_csv", csv_rows("times"))
    _patch_function(tracer, report, "write_table_csv", "report.write_csv", csv_rows("rows"))
    _patch_function(tracer, report, "write_svg", "report.write_svg",
                    lambda path, a: work("report.out_bytes", path.stat().st_size))
    _patch_function(tracer, report, "compare_channels", "report.compare_channels")
    return tracer


def _rhs_wrapper(tracer, factory_label):
    """on_return hook that wraps a built system's rhs under continuous.rhs.<label>,
    where the label is the metric name when the system has one."""

    def on_return(system, arguments):
        rhs = getattr(system, "rhs", None)
        if rhs is None:
            return
        parameters = getattr(system, "parameters", None) or {}
        label = parameters.get("metric", factory_label)
        system.rhs = tracer.wrap(rhs, f"continuous.rhs.{label}")

    return on_return
