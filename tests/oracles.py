"""Reference implementations the tests compare the library against.

None of these is used by an experiment, so they live with the tests rather
than in the package: the Lagrangian the Euler-Lagrange systems derive from,
the finite-step heavy-ball schedule, the Noether charge and its Euclidean
closed-form asymmetry, the exact constant-drive norm solution, and
finite-difference gradients and Hessians.
"""

import math

import numpy as np

from noetherdyn import GradNormHistory, r2_schedule
from noetherdyn.geometry import BregmanSchedule, bregman_divergence
from noetherdyn.symmetry import _FD_STEP, delta_h


# ---------------------------------------------------------------------------
# geometry

def sgdm_schedule(eta: float, momentum: float) -> BregmanSchedule:
    """Finite-step heavy-ball schedule; its effective mass is eta(1+momentum)/2."""
    if eta <= 0:
        raise ValueError("learning rate must be positive")
    if not 0.0 <= momentum < 1.0:
        raise ValueError("momentum must lie in [0, 1)")
    m = eta * (1.0 + momentum) / 2.0
    log_m = math.log(m)
    rate = 2.0 * (1.0 - momentum) / (eta * (1.0 + momentum))
    return BregmanSchedule(
        name=f"sgdm(eta={eta:g},beta={momentum:g})",
        alpha=lambda t: -log_m,
        beta=lambda t: log_m,
        gamma=lambda t: rate * t,
        alpha_dot=lambda t: 0.0,
        gamma_dot=lambda t: rate,
    )


def lagrangian(metric, schedule: BregmanSchedule, loss, q, q_dot, t: float) -> float:
    """e^(alpha+gamma) * (D_h(q + e^-alpha qdot, q) - e^beta f(q))."""
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)
    a = schedule.alpha(t)
    displaced = q + math.exp(-a) * q_dot
    kinetic = bregman_divergence(metric, displaced, q)
    potential = math.exp(schedule.beta(t)) * loss.value(q)
    return math.exp(a + schedule.gamma(t)) * (kinetic - potential)


# ---------------------------------------------------------------------------
# symmetry

def noether_charge(metric, transform, q, q_dot, alpha_t: float) -> float:
    """Inner product of the generalized momentum with the transform generator."""
    return float(delta_h(metric, q, q_dot, alpha_t) @ transform.generator(q))


def kinetic_asymmetry_euclidean(transform, q_dot, alpha_t: float = 0.0) -> float:
    """Closed form e^-alpha <qdot, d(Qdot)/ds> valid under the Euclidean metric."""
    q_dot = np.asarray(q_dot, dtype=float)
    return math.exp(-alpha_t) * float(q_dot @ transform.velocity_generator(q_dot))


# ---------------------------------------------------------------------------
# closedform

def constant_history(value: float, t1: float, dt: float) -> GradNormHistory:
    """History holding |ghat|^2 = value on the uniform grid 0, dt, ..., t1."""
    n = int(round(t1 / dt))
    times = dt * np.arange(n + 1)
    return GradNormHistory(times=times, gsq=np.full(n + 1, float(value)))


def solve_bernoulli_check(m: float, mu: float, k: float, gsq: float, r0: float,
                          times) -> np.ndarray:
    """Exact over-damped squared-norm solution for a constant drive,

        r^2(t) = sqrt( (m gsq / (k mu^2)) (1 - e^(-4kt/mu)) + e^(-4kt/mu) r^4(0) ),

    degenerating to sqrt((4m/mu^3) gsq t + r^4(0)) at k = 0.  Cross-checks
    the quadrature schedule on the same constant history (<= 1e-8 relative)
    before returning.
    """
    if m <= 0 or mu <= 0 or k < 0 or gsq < 0 or r0 <= 0:
        raise ValueError("invalid parameters")
    times = np.asarray(times, dtype=float)
    if k == 0.0:
        exact = np.sqrt((4.0 * m / mu ** 3) * gsq * times + r0 ** 4)
    else:
        decay = np.exp(-4.0 * k * times / mu)
        exact = np.sqrt((m * gsq / (k * mu ** 2)) * (1.0 - decay) + decay * r0 ** 4)

    beta = 1.0 - mu
    if not 0.0 <= beta < 1.0:
        raise ValueError("friction must lie in (0, 1] to invert the step-size map")
    eta = 2.0 * m / (1.0 + beta)
    history = GradNormHistory(times=times, gsq=np.full(times.size, float(gsq)))
    quadrature = r2_schedule(history, eta, beta, k, r0)
    worst = float(np.max(np.abs(quadrature - exact) / np.abs(exact)))
    if worst > 1e-8:
        raise AssertionError(
            f"quadrature schedule deviates from the exact solution by {worst:.3e}")
    return exact


# ---------------------------------------------------------------------------
# finite differences

def fd_gradient(f, x):
    """Central-difference gradient of a scalar function."""
    x = np.asarray(x, dtype=float)
    h = _FD_STEP * np.maximum(1.0, np.abs(x))  # componentwise, scaled by magnitude
    g = np.empty_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h[i]
        xm[i] -= h[i]
        g[i] = (f(xp) - f(xm)) / (2.0 * h[i])
    return g


def fd_hessian(f, x):
    """Central-difference Hessian via second differences of f."""
    x = np.asarray(x, dtype=float)
    # eps^(1/4) balances truncation against rounding for second differences
    h = float(np.finfo(float).eps) ** 0.25 * np.maximum(1.0, np.abs(x))
    n = x.size
    hess = np.empty((n, n))
    f0 = f(x)
    for i in range(n):
        for j in range(i, n):
            if i == j:
                xp = x.copy()
                xm = x.copy()
                xp[i] += h[i]
                xm[i] -= h[i]
                hess[i, i] = (f(xp) - 2.0 * f0 + f(xm)) / h[i] ** 2
            else:
                xpp = x.copy()
                xpm = x.copy()
                xmp = x.copy()
                xmm = x.copy()
                xpp[i] += h[i]
                xpp[j] += h[j]
                xpm[i] += h[i]
                xpm[j] -= h[j]
                xmp[i] -= h[i]
                xmp[j] += h[j]
                xmm[i] -= h[i]
                xmm[j] -= h[j]
                hess[i, j] = (f(xpp) - f(xpm) - f(xmp) + f(xmm)) / (4.0 * h[i] * h[j])
                hess[j, i] = hess[i, j]
    return hess
