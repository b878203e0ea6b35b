"""Metric spaces, Bregman divergence, kinetic energy, and the schedules of the
Lagrangian e^(alpha+gamma) (D_h(q + e^-alpha qdot, q) - e^beta f(q)).

A metric here is a strictly convex distance-generating function h on an
open subset of R^n, exposed through its value, gradient, and Hessian.
"""

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.linalg import cho_factor, get_lapack_funcs

from .errors import DomainError

_ENTROPY_FLOOR = 1e-12


class Metric:
    """Distance-generating function h with value, gradient, and Hessian."""

    dim: int
    name: str

    def value(self, x):
        raise NotImplementedError

    def grad(self, x):
        raise NotImplementedError

    def hessian(self, x):
        raise NotImplementedError

    def hessian_solve(self, x, v):
        """Solve hessian(x) @ u = v."""
        raise NotImplementedError

    def check_domain(self, x):
        """Raise DomainError if x is outside the domain of h."""
        x = np.asarray(x, dtype=float)
        if x.shape != (self.dim,):
            raise DomainError(f"{self.name}: expected dimension {self.dim}, got shape {x.shape}")
        return x

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class Euclidean(Metric):
    """h(x) = |x|^2 / 2; the geometry of plain gradient descent."""

    name = "euclidean"

    def __init__(self, dim):
        self.dim = int(dim)

    def value(self, x):
        x = self.check_domain(x)
        return 0.5 * float(x @ x)

    def grad(self, x):
        return self.check_domain(x).copy()

    def hessian(self, x):
        self.check_domain(x)
        return np.eye(self.dim)

    def hessian_solve(self, x, v):
        self.check_domain(x)
        return np.asarray(v, dtype=float).copy()


class QuadraticForm(Metric):
    """h(x) = <x, A x> / 2 for a symmetric positive-definite A."""

    name = "quadratic-form"

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("matrix must be square")
        if not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("matrix must be symmetric")
        try:
            self._cho = cho_factor(a)
        except np.linalg.LinAlgError as exc:
            raise ValueError("matrix must be positive definite") from exc
        # the LAPACK solve behind scipy.linalg.cho_solve, called without that
        # wrapper's per-call validation (its cost dwarfs a 3x3 solve); the
        # integrator checks the state for finiteness once per step instead
        (self._potrs,) = get_lapack_funcs(("potrs",), (self._cho[0],))
        self.matrix = a
        self.dim = a.shape[0]

    def value(self, x):
        x = self.check_domain(x)
        return 0.5 * float(x @ self.matrix @ x)

    def grad(self, x):
        x = self.check_domain(x)
        return self.matrix @ x

    def hessian(self, x):
        self.check_domain(x)
        return self.matrix.copy()

    def hessian_solve(self, x, v):
        self.check_domain(x)
        c, lower = self._cho
        u, info = self._potrs(c, np.asarray(v, dtype=float), lower=lower)
        if info != 0:
            raise ValueError(f"illegal value in {-info}th argument of internal potrs")
        return u


class NegativeEntropy(Metric):
    """h(x) = sum_i x_i log x_i on the strictly positive orthant."""

    name = "negative-entropy"

    def __init__(self, dim):
        self.dim = int(dim)

    def check_domain(self, x):
        x = super().check_domain(x)
        # never clamp: silently projected points would corrupt positivity checks;
        # the negated comparison rejects a NaN coordinate too.  minimum.reduce
        # is x.min() without its Python-level wrapper (this runs every stage)
        lowest = np.minimum.reduce(x)
        if not lowest > _ENTROPY_FLOOR:
            raise DomainError(
                f"negative-entropy domain violation: min coordinate {lowest:.3e} <= {_ENTROPY_FLOOR:g}"
            )
        return x

    def value(self, x):
        x = self.check_domain(x)
        return float(np.sum(x * np.log(x)))

    def grad(self, x):
        x = self.check_domain(x)
        return np.log(x) + 1.0

    def hessian(self, x):
        x = self.check_domain(x)
        return np.diag(1.0 / x)

    def hessian_solve(self, x, v):
        x = self.check_domain(x)
        return np.asarray(v, dtype=float) * x


def bregman_divergence(metric: Metric, y, x) -> float:
    """D_h(y, x) = h(y) - h(x) - <grad h(x), y - x>.

    Strictly positive for y != x; the generalized squared distance of the
    metric's geometry (exactly |x - y|^2 / 2 in the Euclidean case).
    """
    y = metric.check_domain(y)
    x = metric.check_domain(x)
    return metric.value(y) - metric.value(x) - float(metric.grad(x) @ (y - x))


def kinetic_energy(metric: Metric, q, q_dot, alpha_t: float) -> float:
    """Kinetic energy e^alpha * D_h(q + e^-alpha qdot, q) of a learning rule.

    Non-negative, and zero exactly when the velocity vanishes.  Under the
    Euclidean metric it reduces to e^-alpha |qdot|^2 / 2.
    """
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)
    displaced = q + math.exp(-alpha_t) * q_dot
    return math.exp(alpha_t) * bregman_divergence(metric, displaced, q)


@dataclass(frozen=True)
class BregmanSchedule:
    """Time functions (alpha, beta, gamma) selecting a learning rule.

    alpha sets the velocity scale of the kinetic energy, beta the weighting
    of the potential, gamma the dissipation.  alpha_dot and gamma_dot are
    the analytic derivatives (checked against finite differences in tests).
    """

    name: str
    alpha: Callable[[float], float]
    beta: Callable[[float], float]
    gamma: Callable[[float], float]
    alpha_dot: Callable[[float], float]
    gamma_dot: Callable[[float], float]


def natural_schedule(m: float, mu: float) -> BregmanSchedule:
    """Massive particle with friction: alpha = -log m, beta = log m, gamma = (mu/m) t."""
    if m <= 0:
        raise ValueError("mass must be positive")
    log_m = math.log(m)
    return BregmanSchedule(
        name=f"natural(m={m:g},mu={mu:g})",
        alpha=lambda t: -log_m,
        beta=lambda t: log_m,
        gamma=lambda t: (mu / m) * t,
        alpha_dot=lambda t: 0.0,
        gamma_dot=lambda t: mu / m,
    )


def nesterov_schedule(n: float = 2.0, c: float = 0.25) -> BregmanSchedule:
    """Accelerated-gradient schedule; singular at t = 0."""
    if n <= 0 or c <= 0:
        raise ValueError("n and c must be positive")
    log_n = math.log(n)
    log_c = math.log(c)

    def _check(t):
        if t <= 0.0:
            raise DomainError(f"nesterov schedule is singular at t={t:g} (requires t > 0)")
        return t

    return BregmanSchedule(
        name=f"nesterov(n={n:g},c={c:g})",
        alpha=lambda t: log_n - math.log(_check(t)),
        beta=lambda t: n * math.log(_check(t)) + log_c,
        gamma=lambda t: n * math.log(_check(t)),
        alpha_dot=lambda t: -1.0 / _check(t),
        gamma_dot=lambda t: n / _check(t),
    )
