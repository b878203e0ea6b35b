"""Exact discrete update rules whose continuous-time models we analyze.

Steps are pure state -> state functions over an immutable value type, so
runs are deterministic and trivially replayable; `simulate` is the one loop
that drives a step and records an observable.  The step index times the
learning rate is the continuous time of the matching trajectory sample.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import IntegrationError


@dataclass(frozen=True)
class OptimizerState:
    """Parameter vector plus the optimizer's memory.

    momentum_buffer is the heavy-ball velocity; accumulator is the scalar
    squared-gradient-norm memory of the adaptive rule (must stay positive).
    """

    q: np.ndarray
    momentum_buffer: np.ndarray
    accumulator: float = 1.0
    step_index: int = 0

    @classmethod
    def initial(cls, q0, accumulator: float = 1.0):
        q0 = np.asarray(q0, dtype=float)
        return cls(q=q0.copy(), momentum_buffer=np.zeros_like(q0),
                   accumulator=float(accumulator), step_index=0)


def step_gd_momentum_wd(state: OptimizerState, loss, eta: float, beta: float = 0.0,
                        weight_decay: float = 0.0) -> OptimizerState:
    """Heavy-ball update with the learning rate inside the buffer:

        buffer <- beta * buffer - eta * (grad f(q) + weight_decay * q)
        q      <- q + buffer

    With beta = 0 and no decay this is plain gradient descent.  Its
    second-order continuous model is eom_bregman with the Euclidean metric
    under natural_schedule(eta (1+beta)/2, 1-beta): mass eta (1+beta)/2 and
    friction 1-beta.  Requires eta > 0, 0 <= beta < 1 and weight_decay >= 0;
    the caller checks them.
    """
    g = loss.grad(state.q)
    if weight_decay != 0.0:
        g = g + weight_decay * state.q
    buffer = beta * state.momentum_buffer - eta * g
    return OptimizerState(state.q + buffer, buffer, state.accumulator, state.step_index + 1)


def step_nesterov(state: OptimizerState, loss, eta: float) -> OptimizerState:
    """Accelerated gradient step with momentum factor (k-1)/(k+2).

    The lookahead point is y = q + ((k-1)/(k+2)) (q - q_prev) where k is the
    number of completed steps; the first step is plain gradient descent.
    The buffer stores q - q_prev.  Requires eta > 0 (unchecked).
    """
    k = state.step_index
    factor = (k - 1.0) / (k + 2.0) if k >= 1 else 0.0
    y = state.q + factor * state.momentum_buffer
    q_new = y - eta * loss.grad(y)
    return OptimizerState(q_new, q_new - state.q, state.accumulator, k + 1)


def step_rmsprop(state: OptimizerState, loss, eta: float, rho: float) -> OptimizerState:
    """Adaptive step scaled by the root of a gradient-norm memory:

        q <- q - (eta / sqrt(G)) * g,   G <- rho * G + (1 - rho) * |g|^2

    The q-update uses the pre-update G.  There is no epsilon guard and no
    check: a positive accumulator at initialization stays positive, and
    math.sqrt or the division raise if it does not.  Requires eta > 0 and
    0 < rho < 1; the caller checks them.
    """
    g = loss.grad(state.q)
    q_new = state.q - (eta / math.sqrt(state.accumulator)) * g
    g_new = rho * state.accumulator + (1.0 - rho) * float(g @ g)
    return OptimizerState(q_new, state.momentum_buffer, g_new, state.step_index + 1)


def centered_velocities(qs: np.ndarray, eta: float) -> np.ndarray:
    """Second-order velocity export (q[n+1] - q[n-1]) / (2 eta) for interior
    samples of a discrete run; matches the accuracy of the modified
    equation the velocities are compared against."""
    if qs.shape[0] < 3:
        raise ValueError("need at least 3 samples for centered velocities")
    return (qs[2:] - qs[:-2]) / (2.0 * eta)


def simulate(step, state: OptimizerState, steps: int, observe, dt: float):
    """Apply `step` (state -> state, worth dt of time) `steps` times,
    recording observe(state) at the initial state and after every step.

    Returns (times, record) with times = dt * np.arange(steps + 1) and
    record[n] the observation after n steps, at times[n]; an observe that
    returns a tuple gives one column per element.  A run whose record stops
    being finite aborts at the first such step n, naming its time times[n];
    the record is checked once, after the loop, so it costs no time per step.
    """
    times = dt * np.arange(steps + 1)
    first = np.asarray(observe(state), dtype=float)
    record = np.empty((steps + 1,) + first.shape)
    record[0] = first
    for n in range(1, steps + 1):
        state = step(state)
        record[n] = observe(state)
    raise_if_diverged(np.isfinite(record).reshape(len(record), -1).all(axis=1), times, 0)
    return times, record


def raise_if_diverged(finite, times, first: int):
    """Abort a run at its first non-finite record: `finite[i]` says whether
    the record of step first + i is finite, and `times` is the run's whole
    grid.  Raises IntegrationError naming that step and its time."""
    if not finite.all():
        n = first + int(np.argmin(finite))
        raise IntegrationError(f"run diverged: recorded value not finite after step {n}",
                               time=times[n])
