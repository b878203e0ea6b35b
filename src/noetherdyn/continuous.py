"""Fixed-step RK4 integration of the continuous-time optimizer models.

Everything integrates on a uniform grid: uniform grids keep the
finite-difference charge derivatives and channel alignment trivial, and
none of the systems is stiff at the parameters we test.
"""

import functools
import itertools
import math
from dataclasses import dataclass
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
class BregmanSystem:
    """eom_bregman's system qddot = rhs(t, q, qdot), with the metric,
    schedule and loss it was built from, by which integrate_rk4_lockstep
    stacks it with others."""

    metric: Metric
    schedule: BregmanSchedule
    loss: Loss
    rhs: Callable[[float, np.ndarray, np.ndarray], np.ndarray]

    @property
    def parameters(self) -> dict:
        """{"metric": metric.name}, by which a tracer that wraps rhs times it
        per metric; a lockstep pass never calls rhs (its solo runs do)."""
        return {"metric": self.metric.name}


def grid_steps(t0: float, t1: float, dt: float) -> int:
    """How many steps of size dt > 0 tile [t0, t1], ending within
    1e-9 (t1 - t0) of t1; ValueError if no count of at least 1 does."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    ratio = (t1 - t0) / dt
    steps = round(ratio) if math.isfinite(ratio) else 0
    if steps < 1 or abs(t0 + steps * dt - t1) > 1e-9 * (t1 - t0):
        raise ValueError(f"step {dt:g} does not tile the interval [{t0:g}, {t1:g}]")
    return steps


def _grid(t0: float, t1: float, dt: float) -> np.ndarray:
    """The times of the RK4 grid of step dt on [t0, t1]."""
    return t0 + dt * np.arange(grid_steps(t0, t1, dt) + 1)


def _rk4_step(f, y0, split: int, dt, grids: int = 1):
    """rk4_solve's step, in place: returns (state, advance), with state the
    flat state vector, loaded with y0, and advance(t, t_mid, t_end) the RK4
    step that overwrites it with the state one step of dt on, calling f at
    t, t_mid (twice) and t_end.  dt is one step for every entry, or a vector
    of one per entry.

    Each stage lives in one buffer [y_j, f_j] of 2n - split entries, made
    once, so its derivative is the view buffer[n - split:]; f's result is
    copied into f_j, and every combination writes into a buffer with a
    constant vector operand.  Each value is the same expression as
    y + (dt / 2) * k1 and y + (dt / 6) * (k1 + 2 k2 + 2 k3 + k4), bit for bit.
    With grids > 1, each part of y that f gets, and f's result, has shape
    (grids, -1).
    """
    n = y0.size
    buffers = np.empty((4, 2 * n - split))
    y1, y2, y3, y4 = buffers[:, :n]
    k1, k2, k3, k4 = buffers[:, n - split:]
    shape = (grids, -1) if grids > 1 else (-1,)
    f1, f2, f3, f4 = (x.reshape(shape) for x in buffers[:, n:])
    args1, args2, args3, args4 = [
        (y.reshape(shape),) if split == 0
        else (y[:n - split].reshape(shape), y[n - split:].reshape(shape))
        for y in (y1, y2, y3, y4)]
    whole = np.full(n, dt, dtype=float)
    half, sixth, two = 0.5 * whole, whole / 6.0, np.full(n, 2.0)
    product = np.empty(n)
    total = np.empty(n)
    y1[...] = y0

    # the ufuncs are default arguments, fast locals, and take out positionally:
    # each call costs less than np.add(..., out=...), for the same op
    def advance(t, t_mid, t_end, add=np.add, multiply=np.multiply):
        f1[...] = f(t, *args1)
        add(y1, multiply(half, k1, product), y2)
        f2[...] = f(t_mid, *args2)
        add(y1, multiply(half, k2, product), y3)
        f3[...] = f(t_mid, *args3)
        add(y1, multiply(whole, k3, product), y4)
        f4[...] = f(t_end, *args4)
        add(k1, multiply(two, k2, product), total)
        add(total, multiply(two, k3, product), total)
        add(total, k4, total)
        add(y1, multiply(sixth, total, total), y1)

    return y1, advance


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
    Each step is _rk4_step's, copied into its row of the result.
    """
    times = _grid(t0, t1, dt)
    y0 = np.asarray(y0, dtype=float)
    if not np.isfinite(y0).all():
        raise IntegrationError("initial state is not finite", time=t0)
    out = np.empty((times.size, y0.size))
    out[0] = y0
    state, advance = _rk4_step(f, y0, split, dt)
    zero = np.zeros(y0.size)
    mid = 0.5 * dt
    # the stage times as Python floats: a sum of numpy scalars costs more
    for i, t in enumerate(times[:-1].tolist()):
        try:
            advance(t, t + mid, t + dt)
        except DomainError as exc:
            raise IntegrationError(f"rhs left its domain: {exc}", time=t) from exc
        if not math.isfinite(np.dot(zero, state)):  # 0 * y sums to NaN iff y has inf or NaN
            raise IntegrationError("state is no longer finite", time=times[i + 1])
        out[i + 1] = state
    return times, out


def _start(system: BregmanSystem, q0, qdot0) -> list:
    """[q0, qdot0] as float arrays; ValueError unless both are one point of
    the system's dim."""
    start = [np.asarray(q0, dtype=float), np.asarray(qdot0, dtype=float)]
    dim = system.metric.dim
    if any(x.shape != (dim,) for x in start):
        raise ValueError(f"q0 and qdot0 must be points of dim {dim}, not of shapes "
                         f"{start[0].shape} and {start[1].shape}")
    return start


def integrate_rk4(system: BregmanSystem, q0, qdot0, t0: float, t1: float,
                  dt: float) -> Trajectory:
    """Integrate an eom_bregman system on the first-order reduction
    (q, qdot), from q0 and qdot0, each one point of the system's dim."""
    q0, qdot0 = _start(system, q0, qdot0)
    d = q0.size
    times, ys = rk4_solve(system.rhs, np.concatenate((q0, qdot0)), t0, t1, dt, split=d)
    return Trajectory(times=times, q=ys[:, :d], q_dot=ys[:, d:])


def integrate_rk4_lockstep(problems, t0: float, t1: float, dt: float) -> tuple:
    """integrate_rk4 for several independent eom_bregman systems on two
    grids, of step dt and dt / 2, in one pass with one stacked rhs
    (_bregman_rhs).

    `problems` holds (system, q0, qdot0) triples.  Returns (coarse, fine):
    per grid, one outcome per problem, the Trajectory that integrate_rk4
    gives that system alone on that grid, or the exception it raises for it.

    Layout.  One grid's flat state is [q_1 ... q_m, qdot_1 ... qdot_m] with
    the systems grouped by metric group and, within a group, by loss object,
    so that each metric group's rows are one slice and each loss's rows one
    view at a constant step.  A metric group is one metric object, but every
    metric of a non-flat elementwise class (Metric.elementwise) is one
    group, whatever its dim: in noether-residual the four NegativeEntropy
    systems, of dims 3 and 2, are one slice of 9 entries.  The pass steps
    both grids at once on [q_coarse, q_fine, qdot_coarse, qdot_fine], where
    the kernel sees a leading grid axis: coarse step k, on [t_k, t_k + dt],
    runs with fine step 2k, one kernel call per RK4 stage for both grids'
    rows, each grid at its own stage times and with its own step in every
    combination.  Fine step 2k + 1 then runs alone, on a one-grid kernel,
    from the fine state copied out of the pass and back.  Every trajectory
    is a view of its grid's one result, and a grid's trajectories share one
    times array.  At noether-residual's acceptance config a pass makes 8,000
    kernel calls (1,000 paired and 1,000 fine-only steps of 4 stages), each
    with 3 metric grad, 3 hessian_solve and 4 loss grad calls.

    What runs alone.  Each RK4 combination and each step of the rhs is
    elementwise or row by row, so a pass that ends gives every system the
    bits of its solo runs.  A pass that raises, and a set of problems it
    cannot take (two schedule objects, a start that _start refuses, or a
    grid of dt / 2 that does not make twice the steps of dt's), instead
    integrates each system alone on each grid, so each failure keeps the
    message and time of its solo run, and the runs that do not fail keep
    their trajectories.
    """
    try:
        systems = [system for system, _, _ in problems]
        if len({id(system.schedule) for system in systems}) > 1:
            raise ValueError("lockstep stacks systems of one schedule object")
        starts = [_start(*problem) for problem in problems]
        # index of each metric group's and each loss's first system
        first = {}
        for i, system in enumerate(systems):
            first.setdefault(_group(system.metric), i)
            first.setdefault(id(system.loss), i)
        order = sorted(range(len(systems)), key=lambda i: (first[_group(systems[i].metric)],
                                                           first[id(systems[i].loss)]))
        offsets = [0] * len(systems)
        split = 0
        for i in order:
            offsets[i] = split
            split += systems[i].metric.dim
        times = _grid(t0, t1, dt)
        fine_dt = dt / 2.0
        fine_times = _grid(t0, t1, fine_dt)
        steps = times.size - 1
        if fine_times.size - 1 != 2 * steps:
            raise ValueError("the grid of dt / 2 does not make twice the steps of dt's")
        y0 = np.concatenate([starts[i][0] for i in order] + [starts[i][1] for i in order])
        if not np.isfinite(y0).all():
            raise ValueError("initial state is not finite")
        ys = np.empty((times.size, 2, split))
        fine_ys = np.empty((fine_times.size, 2, split))
        ys[0] = fine_ys[0] = y0.reshape(2, split)
        schedule = systems[0].schedule
        members = [(systems[i].metric, systems[i].loss) for i in order]
        pair, advance_pair = _rk4_step(
            _bregman_rhs(schedule, members, grids=2), np.repeat(ys[0], 2, axis=0).ravel(),
            2 * split, np.repeat([dt, fine_dt, dt, fine_dt], split), grids=2)
        fine, advance_fine = _rk4_step(_bregman_rhs(schedule, members), y0, split, fine_dt)
        both = pair.reshape(2, 2, split)  # [q, qdot] x [coarse, fine]
        fine_rows = fine.reshape(2, split)
        zero = np.zeros(pair.size)
        mid, fine_mid = 0.5 * dt, 0.5 * fine_dt
        for k in range(steps):
            t, s = times[k], fine_times[2 * k]
            advance_pair((t, s), (t + mid, s + fine_mid), (t + dt, s + fine_dt))
            ys[k + 1] = both[:, 0]
            fine_ys[2 * k + 1] = both[:, 1]
            fine_rows[...] = both[:, 1]
            s = fine_times[2 * k + 1]
            advance_fine(s, s + fine_mid, s + fine_dt)
            fine_ys[2 * k + 2] = fine_rows
            both[:, 1] = fine_rows
            # a state that is not finite stays so, so this covers fine step 2k + 1 too
            if not math.isfinite(np.dot(zero, pair)):
                raise IntegrationError("state is no longer finite")
    except Exception:
        outcomes = ([], [])
        for grid, step in zip(outcomes, (dt, dt / 2.0)):
            for system, q0, qdot0 in problems:
                try:
                    grid.append(integrate_rk4(system, q0, qdot0, t0, t1, step))
                except Exception as exc:
                    grid.append(exc)
        return outcomes
    return tuple([Trajectory(times=grid_times, q=grid_ys[:, 0, a:a + system.metric.dim],
                             q_dot=grid_ys[:, 1, a:a + system.metric.dim])
                  for a, system in zip(offsets, systems)]
                 for grid_times, grid_ys in ((times, ys), (fine_times, fine_ys)))


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


def _group(metric: Metric):
    """The key of the metric's group in the stacked rhs: the class of a
    non-flat elementwise metric, whose rows one call of any of its objects
    serves, else the metric object.  A flat metric makes no call, and
    grouping its objects by class would cut each loss's rows in two."""
    return type(metric) if metric.elementwise and not metric.flat else id(metric)


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


def _bregman_rhs(schedule: BregmanSchedule, members, grids: int = 1):
    """eom_bregman's qddot for several systems under one schedule, on one
    flat state: q and qdot hold each system's entries in turn, members[i] =
    (metric, loss) is the i-th system's.

    The elementwise steps run once over the whole state.  Each run of
    adjacent systems of one non-flat metric group (_group) makes one grad
    call on the stack [u; q] of its rows and one hessian_solve (a flat
    metric makes none: Delta_h is u - q).  One system of a flat metric, as
    each of modified-eq's, has no stack to build: it takes u - q and its
    loss gradient from q itself, with no copy.  An elementwise group's call
    takes its slice of the state as it is, whatever dims its systems have;
    any other group's takes its rows as (..., k, dim).  Each loss makes one grad
    call per run of its systems' rows at a constant step.  So when the
    systems are grouped by metric group and, within one, ordered by loss,
    each group and each loss makes one call: in noether-residual 3 grad
    and 3 hessian_solve calls (QuadraticForm(3), QuadraticForm(2) and the
    NegativeEntropy group) and 4 loss grad calls.  By the metric and loss
    contracts each row of a stack gets the bits it gets alone.

    With grids > 1 the rhs takes that many copies of the systems at once, one
    per grid: q, qdot and the result have shape (grids, n), t holds one time
    per grid, and each call still makes one grad (and hessian_solve) per
    metric group and loss, on the rows of every grid.  A stationary
    schedule's coefficients serve every time; another's are evaluated at
    each grid's.
    """
    if any(loss.dim != metric.dim for metric, loss in members):
        raise ValueError("a Bregman system's loss and metric must share one dim")
    metrics = [metric for metric, _ in members]
    offsets = list(itertools.accumulate((metric.dim for metric in metrics), initial=0))
    n = offsets.pop()
    shape = (grids, n) if grids > 1 else (n,)
    unit_inverse = unit_force = unit_scale = unit_drag = False
    if schedule.stationary:
        scalars = _coefficients(schedule, 0.0)
        unit_inverse, unit_force, unit_scale, unit_drag = (
            c == 1.0 for c in scalars[:1] + scalars[2:])
        # as vectors: an array operand costs less than a float, for the same bits
        fixed = tuple(np.full(shape, c) for c in scalars)

        def coefficients(t):
            return fixed

    elif grids > 1:
        def coefficients(t):
            # one column per grid, each at its own time: shape (5, grids, 1)
            return np.array([_coefficients(schedule, s) for s in t]).T[..., None]

    else:
        coefficients = functools.partial(_coefficients, schedule)
    # u and q stacked for the metrics' grad calls; q is copied in so that
    # every view below is made once
    pair = np.empty((2, *shape))
    u, at_q = pair
    delta, gradient, drive = np.empty((3, *shape))
    any_flat = any(metric.flat for metric in metrics)
    # one system of a flat metric reads q itself: no copy into at_q
    solo_loss = members[0][1] if len(members) == 1 and any_flat else None
    solves = []
    for _, block in itertools.groupby(zip(metrics, offsets), key=lambda member: _group(member[0])):
        block = list(block)
        metric, start = block[0]
        if metric.flat:
            continue
        if metric.elementwise:
            stop = block[-1][1] + block[-1][0].dim
            views = (x[..., start:stop] for x in (pair, u, delta, drive))
        else:
            views = (_rows(x, [offset for _, offset in block], metric.dim)
                     for x in (pair, u, delta, drive))
        solves.append((metric, *views))
    losses = [(loss, *(_rows(x, run, loss.dim) for x in (at_q, gradient)))
              for loss, run in _runs([loss for _, loss in members], offsets)]

    # as in _rk4_step: the ufuncs are fast locals and take out positionally
    def rhs(t, q, q_dot, add=np.add, subtract=np.subtract):
        inverse, damping, force, scale, drag = coefficients(t)
        add(q, q_dot if unit_inverse else inverse * q_dot, u)
        if solo_loss is not None:
            subtract(u, q, delta)
            solo_loss.grad(q, gradient)
        else:
            at_q[...] = q
            if any_flat:
                subtract(u, at_q, delta)
            for metric, stack, _, delta_rows, _ in solves:
                grad_u, grad_q = metric.grad(stack)
                subtract(grad_u, grad_q, delta_rows)
            for loss, rows, gradient_rows in losses:
                loss.grad(rows, gradient_rows)
        # not in place: out= an operand costs twice as much at dim 1
        subtract(damping * delta, gradient if unit_force else force * gradient, drive)
        for metric, _, u_rows, _, drive_rows in solves:
            drive_rows[...] = metric.hessian_solve(u_rows, drive_rows)
        return (drive if unit_scale else scale * drive) - (q_dot if unit_drag else drag * q_dot)

    return rhs


def eom_bregman(metric: Metric, schedule: BregmanSchedule, loss) -> BregmanSystem:
    """Euler-Lagrange system of the full Lagrangian for any metric, as the
    one system type that both integrators take.

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
    return BregmanSystem(metric, schedule, loss, _bregman_rhs(schedule, [(metric, loss)]))
