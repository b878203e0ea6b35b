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

SCHEDULE_CHUNK = 4096  # record samples per Python list in exp_kernel_schedule


def exp_kernel_schedule(gsq: np.ndarray, dt: float, rate: float, prefactor: float,
                        initial: float) -> np.ndarray:
    """sqrt of the exponential-kernel convolution plus decaying memory.

    gsq[i] is the record at time i * dt.  The convolution uses trapezoid
    quadrature on that grid, composed recursively so the exact kernel
    carries between samples.  The recursion runs on Python floats, a chunk
    of the record at a time: a Python loop over numpy scalars costs several
    times as much, and a list of the whole record would hold over 10 MB for
    a 200,001-sample run.
    """
    decay = math.exp(-rate * dt)
    conv = np.empty_like(gsq)
    conv[0] = c = 0.0
    prev = float(gsq[0])
    for lo in range(1, gsq.size, SCHEDULE_CHUNK):
        chunk = []
        append = chunk.append
        for x in gsq[lo:lo + SCHEDULE_CHUNK].tolist():
            c = decay * c + 0.5 * dt * (decay * prev + x)
            prev = x
            append(c)
        conv[lo:lo + len(chunk)] = chunk
    memory = initial * np.exp(-rate * (dt * np.arange(gsq.size)))
    return np.sqrt(prefactor * conv + memory)


def _norm_kernel(eta: float, beta: float, k: float):
    """The norm schedule's kernel: rate 4k / (1-beta), prefactor 2 eta (1+beta) / (1-beta)^3."""
    return 4.0 * k / (1.0 - beta), 2.0 * eta * (1.0 + beta) / (1.0 - beta) ** 3


def r2_schedule(gsq: np.ndarray, dt: float, eta: float, beta: float, k: float,
                r0: float) -> np.ndarray:
    """Squared-norm schedule induced by scale symmetry at finite step size:

        r^2(t) = sqrt( (2 eta (1+beta) / (1-beta)^3)
                         * int_0^t e^(-4k(t-tau)/(1-beta)) |ghat(tau)|^2 dtau
                       + e^(-4kt/(1-beta)) r^4(0) ).

    With k = 0 every gradient is accumulated and the norm grows without
    bound; positive weight decay turns the memory into a moving window.
    Requires eta > 0, 0 <= beta < 1 and k >= 0, which the caller checks;
    r0 enters only as r0^4.
    """
    rate, prefactor = _norm_kernel(eta, beta, k)
    return exp_kernel_schedule(gsq, dt, rate, prefactor, r0 ** 4)


def g_schedule(gsq: np.ndarray, dt: float, eta: float, rho: float, g0: float) -> np.ndarray:
    """Adaptive scaling factor sqrt(G(t)) of the recursive-memory rule:

        sqrt(G(t)) = sqrt( ((1-rho)/eta)
                             * int_0^t e^(-(1-rho)(t-tau)/eta) |g(tau)|^2 dtau
                           + e^(-(1-rho)t/eta) G(0) ).

    Requires eta > 0, 0 < rho <= 1 and g0 > 0; the caller checks them.
    """
    rate = (1.0 - rho) / eta
    return exp_kernel_schedule(gsq, dt, rate, rate, g0)


def steady_angular_speed(eta: float, beta: float, k: float) -> float:
    """Per-step angular displacement sqrt(2 eta k / (1+beta)) at the steady norm.

    Requires eta > 0, 0 <= beta < 1 and k > 0; the caller checks them.
    """
    return math.sqrt(2.0 * eta * k / (1.0 + beta))


def steady_radius(eta: float, beta: float, k: float, gnorm: float) -> float:
    """Steady norm (eta(1+beta) / (2k(1-beta)^2))^(1/4) sqrt(|ghat|).

    Requires eta > 0, 0 <= beta < 1 and k > 0 (no steady norm without weight
    decay), which the caller checks; math.sqrt rejects a negative gnorm.  A
    denominator 2k(1-beta)^2 that underflows to 0 gives inf, as numpy divides.
    """
    den = 2.0 * k * (1.0 - beta) ** 2
    ratio = eta * (1.0 + beta) / den if den else math.inf
    return ratio ** 0.25 * math.sqrt(gnorm)


@dataclass(frozen=True)
class KernelMap:
    """Identification between the norm schedule and the adaptive schedule.

    Matching decay rates at the same step size fixes rho; the prefactor
    then agrees only when prefactor_ratio = 1, since the adaptive rule's
    prefactor always equals its rate.  g0 must equal r0^4 for the memory
    terms to coincide.
    """

    rho: float
    prefactor_ratio: float


def bn_rmsprop_map(eta: float, beta: float, k: float) -> KernelMap:
    """Map norm-schedule hyperparameters onto the adaptive rule's kernel.

    Keeps the step size and matches decay rates: (1 - rho) / eta =
    4 k / (1 - beta).  Reports the residual ratio between the norm
    schedule's prefactor and the matched kernel rate; the two closed forms
    are the same function of the history exactly when that ratio is 1 (and
    g0 = r0^4).  Requires eta > 0, 0 <= beta < 1 and k >= 0, which the
    caller checks; a match that makes rho negative is rejected here.
    """
    rate, prefactor = _norm_kernel(eta, beta, k)
    rho = 1.0 - rate * eta
    if rho < 0.0:
        raise ValueError("decay-rate match needs a smaller eta: rho would be negative")

    ratio = math.inf if rate == 0.0 else prefactor / rate
    return KernelMap(rho=rho, prefactor_ratio=ratio)
