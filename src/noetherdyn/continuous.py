"""Fixed-step RK4 integration of the continuous-time optimizer models.

Everything integrates on a uniform grid: uniform grids keep the
finite-difference charge derivatives and channel alignment trivial, and
none of the systems is stiff at the parameters we test.
"""

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, IntegrationError
from .geometry import BregmanSchedule, Metric


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
    # labels for outside tools: eom_bregman records {"metric": name}, which
    # the benchmark tracer uses to time the rhs per metric
    parameters: dict = field(default_factory=dict)


def _grid(t0: float, t1: float, dt: float) -> np.ndarray:
    if dt <= 0:
        raise ValueError("dt must be positive")
    if not t0 < t1:
        raise ValueError("need t0 < t1")
    steps = int(round((t1 - t0) / dt))
    if steps < 1 or abs(t0 + steps * dt - t1) > 1e-9 * max(1.0, abs(t1)):
        raise ValueError(f"step {dt:g} does not tile the interval [{t0:g}, {t1:g}]")
    return t0 + dt * np.arange(steps + 1)


def rk4_solve(f, y0, t0: float, t1: float, dt: float):
    """Classical 4th-order Runge-Kutta on a flat state vector.

    Returns (times, states) with states[i] the solution at times[i].
    Domain violations raised by f abort with the offending time attached,
    and so does the first state that is not finite (checked once per step).
    """
    times = _grid(t0, t1, dt)
    y = np.asarray(y0, dtype=float).copy()
    if not np.isfinite(y).all():
        raise IntegrationError("initial state is not finite", time=t0)
    out = np.empty((times.size, y.size))
    out[0] = y
    for i in range(times.size - 1):
        t = times[i]
        try:
            k1 = f(t, y)
            k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = f(t + dt, y + dt * k3)
        except DomainError as exc:
            raise IntegrationError(f"rhs left its domain: {exc}", time=t) from exc
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationError("state is no longer finite", time=times[i + 1])
        out[i + 1] = y
    return times, out


def integrate_rk4(system: SecondOrderSystem, q0, qdot0, t0: float, t1: float,
                  dt: float) -> Trajectory:
    """Integrate a second-order system on the first-order reduction (q, qdot)."""
    q0 = np.asarray(q0, dtype=float)
    qdot0 = np.asarray(qdot0, dtype=float)
    if q0.shape != qdot0.shape:
        raise ValueError("q0 and qdot0 must share a shape")
    d = q0.size

    def f(t, y):
        dy = np.empty(2 * d)
        dy[:d] = y[d:]
        dy[d:] = system.rhs(t, y[:d], y[d:])
        return dy

    times, ys = rk4_solve(f, np.concatenate((q0, qdot0)), t0, t1, dt)
    return Trajectory(times=times, q=ys[:, :d], q_dot=ys[:, d:])


def eom_modified(eta: float, beta: float, loss) -> SecondOrderSystem:
    """Second-order model of heavy-ball descent at finite learning rate:

        (eta (1+beta) / 2) qddot + (1-beta) qdot + grad f(q) = 0.

    The learning rate plays the role of a small mass; the model collapses
    to rescaled gradient flow (1-beta) qdot = -grad f as eta -> 0.
    Requires eta > 0 and 0 <= beta < 1; the caller checks them.
    """
    mass = eta * (1.0 + beta) / 2.0
    friction = 1.0 - beta

    def rhs(t, q, q_dot):
        return -(friction * q_dot + loss.grad(q)) / mass

    return SecondOrderSystem(name="modified-heavy-ball", rhs=rhs)


def eom_bregman_euclidean(schedule: BregmanSchedule, loss) -> SecondOrderSystem:
    """Euclidean Euler-Lagrange system of the schedule:

        qddot + (gamma_dot - alpha_dot) qdot + e^(2 alpha + beta) grad f(q) = 0.
    """

    def rhs(t, q, q_dot):
        damping = schedule.gamma_dot(t) - schedule.alpha_dot(t)
        force = math.exp(2.0 * schedule.alpha(t) + schedule.beta(t))
        return -damping * q_dot - force * loss.grad(q)

    return SecondOrderSystem(name=f"bregman-euclidean[{schedule.name}]", rhs=rhs)


def _scaled(c: float, v):
    """c * v, with the product skipped when c is exactly 1.0: v * 1.0 is v,
    bit for bit.  There is no such skip at 0: 0 * v carries the signs and
    NaNs of v."""
    return v if c == 1.0 else c * v


def eom_bregman(metric: Metric, schedule: BregmanSchedule, loss) -> SecondOrderSystem:
    """Euler-Lagrange system of the full Lagrangian for any metric.

    With u = q + e^-alpha qdot and H the metric Hessian:

        qddot = e^alpha H(u)^-1 [ (e^alpha - gamma_dot) Delta_h
                                  - e^(alpha+beta) grad f(q) ]
                - (e^alpha - alpha_dot) qdot

    which reduces to the Euclidean form above when H = I.  Under
    natural_schedule(1, mu) every coefficient but e^alpha - gamma_dot = 1 - mu
    is exactly 1.0, and _scaled skips those products.
    """

    def rhs(t, q, q_dot):
        a = schedule.alpha(t)
        ea = math.exp(a)
        u = q + _scaled(math.exp(-a), q_dot)
        delta = metric.grad(u) - metric.grad(q)
        drive = (ea - schedule.gamma_dot(t)) * delta \
            - _scaled(math.exp(a + schedule.beta(t)), loss.grad(q))
        return _scaled(ea, metric.hessian_solve(u, drive)) \
            - _scaled(ea - schedule.alpha_dot(t), q_dot)

    return SecondOrderSystem(name=f"bregman[{metric.name},{schedule.name}]", rhs=rhs,
                             parameters={"metric": metric.name})


def eom_noether_radial(m: float, mu: float, k: float, gsq, dt: float) -> SecondOrderSystem:
    """Scalar dynamics of the squared norm u = r^2 driven by a recorded
    gradient-norm channel, gsq[i] at time i * dt:

        m u'' + mu u' = -2 k u + (2 m / (mu^2 u)) gsq(t)

    gsq(t) interpolates the recorded |ghat|^2 samples piecewise-linearly,
    matching the trapezoid convention of the closed forms.
    """
    times = dt * np.arange(gsq.size)

    def rhs(t, u, u_dot):
        if u[0] <= 0.0:
            raise IntegrationError(f"squared norm hit {u[0]:.3e}", time=t)
        drive = float(np.interp(t, times, gsq))
        return (-mu * u_dot - 2.0 * k * u + (2.0 * m / (mu ** 2 * u)) * drive) / m

    return SecondOrderSystem(name="noether-radial", rhs=rhs)
