"""Fixed-step RK4 integration of the continuous-time optimizer models.

Everything integrates on a uniform grid: uniform grids keep the
finite-difference charge derivatives and channel alignment trivial, and
none of the systems is stiff at the parameters we test.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError
from .geometry import BregmanSchedule, Metric
from .losses import Loss


@dataclass
class Trajectory:
    """Uniformly sampled (t, q, qdot) series."""

    times: np.ndarray
    q: np.ndarray
    q_dot: np.ndarray


@dataclass
class SecondOrderSystem:
    """Deterministic second-order dynamics qddot = rhs(t, q, qdot)."""

    name: str
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]
    # labels for outside tools: eom_bregman records {"metric": name}, by which
    # a tracer that wraps rhs can time it per metric; integrate_rk4_lockstep
    # never calls a system's rhs, so such timings leave its passes out
    parameters: dict = field(default_factory=dict)


@dataclass
class BregmanSystem(SecondOrderSystem):
    """eom_bregman's system, with the metric, schedule and loss it was built
    from, by which integrate_rk4_lockstep stacks it with others."""

    metric: Metric = field(kw_only=True)
    schedule: BregmanSchedule = field(kw_only=True)
    loss: Loss = field(kw_only=True)


def grid_steps(t0: float, t1: float, dt: float) -> int:
    """How many steps of size dt > 0 tile [t0, t1], ending within
    1e-9 max(1, |t1|) of t1; ValueError if no count of at least 1 does."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    ratio = (t1 - t0) / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(t0 + steps * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError(f"step {dt:g} does not tile the interval [{t0:g}, {t1:g}]")
    return steps


def rk4_solve(f, y0, t0: float, t1: float, dt: float, split: int = 0):
    """Classical 4th-order Runge-Kutta on a flat state vector y of n entries.

    With split = 0, dy/dt = f(t, y).  With split > 0, the first `split`
    entries of dy/dt are y's last `split` entries, and f(t, head, tail),
    called with y cut into y[:n - split] and y[n - split:], returns the
    other n - split: a second-order system qddot = rhs(t, q, qdot) is
    split = d on y = [q, qdot].

    Returns (times, states) with states[i] the solution at times[i].
    Domain violations raised by f abort with the offending time attached,
    and so does the first state that is not finite (checked once per step).

    Each stage lives in one buffer [y_j, f_j] of 2n - split entries, made
    once per solve, so its derivative is the view buffer[n - split:]; f's
    result is copied into f_j, and every combination writes into a buffer
    with a constant vector operand.  Each value is the same expression as
    y + (dt / 2) * k1 and y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), bit for bit.
    """
    times = t0 + dt * np.arange(grid_steps(t0, t1, dt) + 1)
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise IntegrationError("initial state is not finite", time=t0)
    n = y0.size
    out = np.empty((times.size, n))
    out[0] = y0
    buffers = np.empty((4, 2 * n - split))
    y1, y2, y3, y4 = buffers[:, :n]
    k1, k2, k3, k4 = buffers[:, n - split:]
    f1, f2, f3, f4 = buffers[:, n:]
    args1, args2, args3, args4 = [(y,) if split == 0 else (y[:n - split], y[n - split:])
                                  for y in (y1, y2, y3, y4)]
    half, whole, sixth, two = (np.full(n, c) for c in (0.5 * dt, dt, dt / 6.0, 2.0))
    zero = np.zeros(n)
    product = np.empty(n)
    total = np.empty(n)
    mid = 0.5 * dt
    y1[...] = y0
    for i in range(times.size - 1):
        t = times[i]
        try:
            f1[...] = f(t, *args1)
            np.add(y1, np.multiply(half, k1, out=product), out=y2)
            f2[...] = f(t + mid, *args2)
            np.add(y1, np.multiply(half, k2, out=product), out=y3)
            f3[...] = f(t + mid, *args3)
            np.add(y1, np.multiply(whole, k3, out=product), out=y4)
            f4[...] = f(t + dt, *args4)
        except DomainError as exc:
            raise IntegrationError(f"rhs left its domain: {exc}", time=t) from exc
        np.add(k1, np.multiply(two, k2, out=product), out=total)
        np.add(total, np.multiply(two, k3, out=product), out=total)
        np.add(total, k4, out=total)
        y = out[i + 1]
        np.add(y1, np.multiply(sixth, total, out=total), out=y)
        if not math.isfinite(np.dot(zero, y)):  # 0 * y sums to NaN iff y has inf or NaN
            raise IntegrationError("state is no longer finite", time=times[i + 1])
        y1[...] = y
    return times, out


def integrate_rk4(system: SecondOrderSystem, q0, qdot0, t0: float, t1: float,
                  dt: float) -> Trajectory:
    """Integrate a second-order system on the first-order reduction (q, qdot)."""
    q0 = np.asarray(q0, dtype=float)
    qdot0 = np.asarray(qdot0, dtype=float)
    if q0.shape != qdot0.shape:
        raise ValueError("q0 and qdot0 must share a shape")
    d = q0.size
    times, ys = rk4_solve(system.rhs, np.concatenate((q0, qdot0)), t0, t1, dt, split=d)
    return Trajectory(times=times, q=ys[:, :d], q_dot=ys[:, d:])


def integrate_rk4_lockstep(problems, t0: float, t1: float, dt: float) -> list:
    """integrate_rk4 for several independent eom_bregman systems on one grid,
    in one rk4_solve pass with one stacked rhs (_bregman_rhs).

    `problems` holds (system, q0, qdot0) triples.  Returns one outcome per
    problem: the Trajectory that integrate_rk4 gives that system alone, or
    the exception it raises for it.  The flat state is [q_1 ... q_m,
    qdot_1 ... qdot_m] with the systems grouped by metric object and, within
    a metric, by loss object, so that each metric's rows are one slice and
    each loss's rows one view at a constant step; every trajectory is a view
    of the one result, and they share one times array.  Each RK4
    combination and each step of the rhs is elementwise or row by row, so a
    pass that ends gives every system the bits of its solo run.  A pass that
    raises, and a set of systems the rhs cannot stack (one not built by
    eom_bregman, two schedule objects, or a start that is not one flat point
    of the system's dim), instead integrates each system alone, so each
    failure keeps the message and time of its solo run, and the systems that
    do not fail keep their trajectories.
    """
    try:
        systems = [system for system, _, _ in problems]
        if not all(isinstance(system, BregmanSystem) for system in systems):
            raise TypeError("lockstep stacks only eom_bregman systems")
        if len({id(system.schedule) for system in systems}) > 1:
            raise ValueError("lockstep stacks systems of one schedule object")
        starts = [(np.asarray(q0, dtype=float), np.asarray(qdot0, dtype=float))
                  for _, q0, qdot0 in problems]
        if any(q0.shape != (system.metric.dim,) or qdot0.shape != q0.shape
               for system, (q0, qdot0) in zip(systems, starts)):
            raise ValueError("lockstep takes flat q0 and qdot0 of the system's dim")
        # index of each metric's and each loss's first system
        first = {}
        for i, system in enumerate(systems):
            first.setdefault(id(system.metric), i)
            first.setdefault(id(system.loss), i)
        order = sorted(range(len(systems)), key=lambda i: (first[id(systems[i].metric)],
                                                           first[id(systems[i].loss)]))
        offsets = [0] * len(systems)
        split = 0
        for i in order:
            offsets[i] = split
            split += systems[i].metric.dim
        rhs = _bregman_rhs(systems[0].schedule,
                           [(systems[i].metric, systems[i].loss) for i in order])
        y0 = np.concatenate([starts[i][0] for i in order] + [starts[i][1] for i in order])
        times, ys = rk4_solve(rhs, y0, t0, t1, dt, split=split)
    except Exception:
        outcomes = []
        for system, q0, qdot0 in problems:
            try:
                outcomes.append(integrate_rk4(system, q0, qdot0, t0, t1, dt))
            except Exception as exc:
                outcomes.append(exc)
        return outcomes
    return [Trajectory(times=times, q=ys[:, a:a + system.metric.dim],
                       q_dot=ys[:, split + a:split + a + system.metric.dim])
            for a, system in zip(offsets, systems)]


def _exp(x: float) -> float:
    """math.exp, but inf where it overflows: natural_schedule(m) has
    e^alpha = 1/m, past float range at a mass under about 5.6e-309."""
    try:
        return math.exp(x)
    except OverflowError:
        return math.inf


def _coefficients(schedule: BregmanSchedule, t: float):
    """eom_bregman's coefficients at t: e^-alpha, e^alpha - gamma_dot,
    e^(alpha+beta), e^alpha and e^alpha - alpha_dot."""
    a = schedule.alpha(t)
    ea = _exp(a)
    return (_exp(-a), ea - schedule.gamma_dot(t), _exp(a + schedule.beta(t)), ea,
            ea - schedule.alpha_dot(t))


def _rows(x, run, dim: int):
    """x[..., o:o + dim] for the offsets o of a run, which follow one another
    at one step, as one view of x: shape (..., dim) for one offset,
    (..., len(run), dim) for more."""
    start = run[0]
    if len(run) == 1:
        return x[..., start:start + dim]
    return np.lib.stride_tricks.as_strided(
        x[..., start:], x.shape[:-1] + (len(run), dim),
        x.strides[:-1] + ((run[1] - start) * x.itemsize, x.itemsize))


def _runs(owners, offsets):
    """(owner, run) for each owner object, in order of first appearance, and
    each run of its offsets at one step: the offsets are cut where the step
    between them changes."""
    by_owner = {}
    for owner, offset in zip(owners, offsets):
        by_owner.setdefault(id(owner), (owner, []))[1].append(offset)
    runs = []
    for owner, owned in by_owner.values():
        run = [owned[0]]
        for offset in owned[1:]:
            if len(run) > 1 and offset - run[-1] != run[1] - run[0]:
                runs.append((owner, run))
                run = []
            run.append(offset)
        runs.append((owner, run))
    return runs


def _bregman_rhs(schedule: BregmanSchedule, members):
    """eom_bregman's qddot for several systems under one schedule, on one
    flat state: q and qdot hold each system's entries in turn, members[i] =
    (metric, loss) is the i-th system's.

    The elementwise steps run once over the whole state.  Each non-flat
    metric makes one grad call on the stack [u; q] of its systems' rows and
    one hessian_solve (a flat one makes none: Delta_h is u - q), and each
    loss one grad call, per run of its systems' rows at a constant step:
    one run each when the systems are grouped by metric and, within one,
    ordered by loss.  By the metric and loss contracts each row of a stack
    gets the bits it gets alone.
    """
    if any(loss.dim != metric.dim for metric, loss in members):
        raise ValueError("a Bregman system's loss and metric must share one dim")
    metrics = [metric for metric, _ in members]
    offsets = list(itertools.accumulate((metric.dim for metric in metrics), initial=0))
    n = offsets.pop()
    if schedule.stationary:
        scalars = _coefficients(schedule, 0.0)
        unit_inverse, unit_force, unit_scale, unit_drag = (
            c == 1.0 for c in scalars[:1] + scalars[2:])
        # as vectors: an array operand costs less than a float, for the same bits
        fixed = tuple(np.full(n, c) for c in scalars)

        def coefficients(t):
            return fixed

    else:
        coefficients = functools.partial(_coefficients, schedule)
        unit_inverse = unit_force = unit_scale = unit_drag = False
    # u and q stacked for the metrics' grad calls; q is copied in so that
    # every view below is made once
    pair = np.empty((2, n))
    u, at_q = pair
    delta, gradient, drive = np.empty((3, n))
    any_flat = any(metric.flat for metric in metrics)
    solves = [(metric, *(_rows(x, run, metric.dim) for x in (pair, u, delta, drive)))
              for metric, run in _runs(metrics, offsets) if not metric.flat]
    losses = [(loss, *(_rows(x, run, loss.dim) for x in (at_q, gradient)))
              for loss, run in _runs([loss for _, loss in members], offsets)]

    def rhs(t, q, q_dot):
        inverse, damping, force, scale, drag = coefficients(t)
        np.add(q, q_dot if unit_inverse else inverse * q_dot, out=u)
        at_q[...] = q
        if any_flat:
            np.subtract(u, at_q, out=delta)
        for metric, stack, _, delta_rows, _ in solves:
            grad_u, grad_q = metric.grad(stack)
            np.subtract(grad_u, grad_q, out=delta_rows)
        for loss, rows, gradient_rows in losses:
            gradient_rows[...] = loss.grad(rows)
        # not in place: out= an operand costs twice as much at dim 1
        np.subtract(damping * delta, gradient if unit_force else force * gradient, out=drive)
        for metric, _, u_rows, _, drive_rows in solves:
            drive_rows[...] = metric.hessian_solve(u_rows, drive_rows)
        return (drive if unit_scale else scale * drive) - (q_dot if unit_drag else drag * q_dot)

    return rhs


def eom_bregman(metric: Metric, schedule: BregmanSchedule, loss) -> BregmanSystem:
    """Euler-Lagrange system of the full Lagrangian for any metric.

    With u = q + e^-alpha qdot and H the metric Hessian:

        qddot = e^alpha H(u)^-1 [ (e^alpha - gamma_dot) Delta_h
                                  - e^(alpha+beta) grad f(q) ]
                - (e^alpha - alpha_dot) qdot

    With H = I, Delta_h = u - q = e^-alpha qdot, and this is

        qddot + (gamma_dot - alpha_dot) qdot + e^(2 alpha + beta) grad f(q) = 0,

    which natural_schedule(m, mu) makes m qddot + mu qdot + grad f(q) = 0.  A stationary
    schedule's coefficients are computed once, when the rhs is built, and a
    product by one that is exactly 1.0 is skipped; natural_schedule(1, mu)
    has every one but e^alpha - gamma_dot = 1 - mu.  There is no such skip
    at 0: 0 * v carries the signs and NaNs of v, so the damping is always
    multiplied in.  Delta_h = grad h(u) - grad h(q) is one metric call on
    the stack [u, q], which the rhs keeps; a flat metric's is u - q, and its
    Hessian solve is skipped, as both calls only copy.  The rhs is
    _bregman_rhs over this one system, which integrate_rk4_lockstep runs
    over several.
    """
    return BregmanSystem(name=f"bregman[{metric.name},{schedule.name}]",
                         rhs=_bregman_rhs(schedule, [(metric, loss)]),
                         parameters={"metric": metric.name},
                         metric=metric, schedule=schedule, loss=loss)
