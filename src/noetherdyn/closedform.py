"""Exact norm/accumulator schedules and the normalization <-> adaptive map.

Both schedules are the same exponential-kernel convolution of a recorded
gradient-norm history,

    sqrt( prefactor * int_0^t exp(-rate (t - tau)) gsq(tau) dtau
          + exp(-rate t) * initial ),

differing only in how (prefactor, rate, initial) derive from their
hyperparameters; the adaptive rule ties prefactor = rate, which is what
makes the correspondence a one-parameter family rather than a bijection.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class GradNormHistory:
    """Uniformly sampled |ghat(tau)|^2 record."""

    times: np.ndarray
    gsq: np.ndarray

    def __post_init__(self):
        times = np.asarray(self.times, dtype=float)
        gsq = np.asarray(self.gsq, dtype=float)
        if times.ndim != 1 or times.shape != gsq.shape:
            raise ValueError("times and gsq must be matching 1-d arrays")
        if times.size < 2:
            raise ValueError("history needs at least two samples")
        dt = times[1] - times[0]
        if dt <= 0 or not np.allclose(np.diff(times), dt, rtol=0.0, atol=1e-12 * max(1.0, dt)):
            raise ValueError("history grid must be uniform and increasing")
        if np.any(gsq < 0.0):
            raise ValueError("squared gradient norms must be non-negative")
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "gsq", gsq)

    @property
    def dt(self) -> float:
        return float(self.times[1] - self.times[0])


def exp_kernel_schedule(history: GradNormHistory, rate: float, prefactor: float,
                        initial: float) -> np.ndarray:
    """sqrt of the exponential-kernel convolution plus decaying memory.

    The convolution uses trapezoid quadrature on the history grid, composed
    recursively so the exact kernel carries between samples.
    """
    dt = history.dt
    gsq = history.gsq
    decay = math.exp(-rate * dt)
    conv = np.empty_like(gsq)
    conv[0] = 0.0
    for i in range(1, gsq.size):
        conv[i] = decay * conv[i - 1] + 0.5 * dt * (decay * gsq[i - 1] + gsq[i])
    memory = initial * np.exp(-rate * (history.times - history.times[0]))
    return np.sqrt(prefactor * conv + memory)


def r2_schedule(history: GradNormHistory, eta: float, beta: float, k: float,
                r0: float) -> np.ndarray:
    """Squared-norm schedule induced by scale symmetry at finite step size:

        r^2(t) = sqrt( (2 eta (1+beta) / (1-beta)^3)
                         * int_0^t e^(-4k(t-tau)/(1-beta)) |ghat(tau)|^2 dtau
                       + e^(-4kt/(1-beta)) r^4(0) ).

    With k = 0 every gradient is accumulated and the norm grows without
    bound; positive weight decay turns the memory into a moving window.
    """
    if r0 <= 0:
        raise ValueError("initial norm must be positive")
    if eta <= 0 or not 0.0 <= beta < 1.0 or k < 0:
        raise ValueError("invalid hyperparameters")
    rate = 4.0 * k / (1.0 - beta)
    prefactor = 2.0 * eta * (1.0 + beta) / (1.0 - beta) ** 3
    return exp_kernel_schedule(history, rate, prefactor, r0 ** 4)


def g_schedule(history: GradNormHistory, eta: float, rho: float, g0: float) -> np.ndarray:
    """Adaptive scaling factor sqrt(G(t)) of the recursive-memory rule:

        sqrt(G(t)) = sqrt( ((1-rho)/eta)
                             * int_0^t e^(-(1-rho)(t-tau)/eta) |g(tau)|^2 dtau
                           + e^(-(1-rho)t/eta) G(0) ).
    """
    if g0 <= 0:
        raise ValueError("initial accumulator must be positive")
    if eta <= 0 or not 0.0 < rho <= 1.0:
        raise ValueError("invalid hyperparameters")
    rate = (1.0 - rho) / eta
    return exp_kernel_schedule(history, rate, rate, g0)


def steady_angular_speed(eta: float, beta: float, k: float) -> float:
    """Per-step angular displacement sqrt(2 eta k / (1+beta)) at the steady norm."""
    if eta <= 0 or k <= 0 or not 0.0 <= beta < 1.0:
        raise ValueError("parameters must be positive (with 0 <= beta < 1)")
    return math.sqrt(2.0 * eta * k / (1.0 + beta))


def steady_radius(eta: float, beta: float, k: float, gnorm: float) -> float:
    """Steady norm (eta(1+beta) / (2k(1-beta)^2))^(1/4) sqrt(|ghat|)."""
    if k <= 0:
        raise ValueError("no steady norm without weight decay")
    if eta <= 0 or not 0.0 <= beta < 1.0 or gnorm < 0:
        raise ValueError("invalid parameters")
    return (eta * (1.0 + beta) / (2.0 * k * (1.0 - beta) ** 2)) ** 0.25 * math.sqrt(gnorm)


@dataclass(frozen=True)
class KernelMap:
    """Identification between the norm schedule and the adaptive schedule.

    Matching decay rates at the same step size fixes rho; the prefactor
    then agrees only when prefactor_ratio = 1, since the adaptive rule's
    prefactor always equals its rate.  g0 must equal r0^4 for the memory
    terms to coincide.
    """

    eta: float
    rho: float
    prefactor_ratio: float


def bn_rmsprop_map(eta: float, beta: float, k: float) -> KernelMap:
    """Map norm-schedule hyperparameters onto the adaptive rule's kernel.

    Keeps the step size and matches decay rates: (1 - rho) / eta =
    4 k / (1 - beta).  Reports the residual ratio between the norm
    schedule's prefactor and the matched kernel rate; the two closed forms
    are the same function of the history exactly when that ratio is 1 (and
    g0 = r0^4).
    """
    if eta <= 0 or not 0.0 <= beta < 1.0 or k < 0:
        raise ValueError("invalid hyperparameters")
    rate = 4.0 * k / (1.0 - beta)
    prefactor = 2.0 * eta * (1.0 + beta) / (1.0 - beta) ** 3
    rho = 1.0 - rate * eta
    if rho < 0.0:
        raise ValueError("decay-rate match needs a smaller eta: rho would be negative")

    ratio = math.inf if rate == 0.0 else prefactor / rate
    return KernelMap(eta=eta, rho=rho, prefactor_ratio=ratio)
