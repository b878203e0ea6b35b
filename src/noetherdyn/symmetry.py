"""One-parameter symmetry transforms and the dynamics of their charges.

Every transform is a differentiable family Q(q, s) with Q(q, 0) = q.  The
charge conjugate to a transform is <Delta_h, dQ/ds|_0>, where Delta_h is
the metric's generalized momentum.  Along a trajectory of the Bregman
Euler-Lagrange equations the charge obeys an exact balance law:

    d/dt charge + dissipation = dynamic asymmetry + non-Euclidean term

whose terms this module measures individually, together with the residual
of the balance (zero up to integrator order on valid trajectories).
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import expm

from .geometry import Metric, kinetic_energy

# cbrt(machine epsilon): optimal step for second-order central differences.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))

# a table cell is symmetric iff its largest |kinetic asymmetry| is at most this
SYMMETRIC_TOL = 1e-8


class SymmetryTransform:
    """Differentiable family Q(q, s), identity at s = 0."""

    name: str

    def apply(self, q, s):
        raise NotImplementedError

    def generator(self, q):
        """dQ/ds at s = 0."""
        raise NotImplementedError

    def velocity_generator(self, q_dot):
        """d(Qdot)/ds at s = 0, for the transported velocity Qdot.

        The tangent lift of a linear transform is the transform itself, so
        the default is the generator applied to the velocity.
        """
        return self.generator(q_dot)

    def velocity_apply(self, q_dot, s):
        """Velocity transported by the transform at finite s (linear default)."""
        return self.apply(q_dot, s)

    def __repr__(self):
        return f"{type(self).__name__}()"


class Translation(SymmetryTransform):
    """Q = q + s n for a fixed unit direction n.

    Affine rather than linear: the shift leaves velocities untouched, so this
    is the one transform that overrides the velocity methods.
    """

    name = "translation"

    def __init__(self, direction):
        d = np.asarray(direction, dtype=float)
        norm = np.linalg.norm(d)
        if norm == 0.0:
            raise ValueError("translation direction must be nonzero")
        self.direction = d / norm

    def apply(self, q, s):
        return np.asarray(q, dtype=float) + s * self.direction

    def generator(self, q):
        return self.direction.copy()

    def velocity_generator(self, q_dot):
        return np.zeros_like(self.direction)

    def velocity_apply(self, q_dot, s):
        return np.asarray(q_dot, dtype=float).copy()


class Rotation(SymmetryTransform):
    """Q = exp(s A) q for a skew-symmetric generator A."""

    name = "rotation"

    def __init__(self, generator_matrix):
        a = np.asarray(generator_matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("rotation generator must be square")
        if not np.allclose(a, -a.T, atol=1e-12):
            raise ValueError("rotation generator must be skew-symmetric")
        self.matrix = a

    def apply(self, q, s):
        # scaling-and-squaring matrix exponential; generators alone would do
        # for the balance law, apply() only feeds finite-s differences
        return expm(s * self.matrix) @ np.asarray(q, dtype=float)

    def generator(self, q):
        return self.matrix @ np.asarray(q, dtype=float)


class Scale(SymmetryTransform):
    """Q = (1 + s) q; the symmetry that normalization layers give a loss."""

    name = "scale"

    def apply(self, q, s):
        return (1.0 + s) * np.asarray(q, dtype=float)

    def generator(self, q):
        return np.asarray(q, dtype=float).copy()


class Rescale(SymmetryTransform):
    """Q = ((1+s) q1, q2 / (1+s)) on the block split q = (q1, q2).

    The two-block form covers the layer-pair rescaling freedom that ReLU
    chains leave in a network.
    """

    name = "rescale"

    def __init__(self, split):
        if split < 1:
            raise ValueError("split index must be >= 1")
        self.split = int(split)

    def _blocks(self, q):
        q = np.asarray(q, dtype=float)
        if q.size <= self.split:
            raise ValueError(f"rescale split {self.split} needs dimension > {self.split}")
        return q[: self.split], q[self.split:]

    def apply(self, q, s):
        q1, q2 = self._blocks(q)
        return np.concatenate(((1.0 + s) * q1, q2 / (1.0 + s)))

    def generator(self, q):
        q1, q2 = self._blocks(q)
        return np.concatenate((q1, -q2))


def fd_scalar_derivative(f, s0=0.0):
    """Central-difference d/ds f(s) at s0 for a scalar argument."""
    h = _FD_STEP * max(1.0, abs(s0))
    return (f(s0 + h) - f(s0 - h)) / (2.0 * h)


def time_derivative(values, dt):
    """Fourth-order finite-difference time derivative on a uniform grid.

    Interior points use the five-point centered stencil; the two points at
    each end use one-sided five-point stencils of the same order.  Fourth
    order keeps differentiation error at the order of the RK4 trajectories
    the derivative is taken along.
    """
    values = np.asarray(values, dtype=float)
    n = values.shape[0]
    if n < 5:
        raise ValueError("time derivative needs at least 5 samples")
    d = np.empty_like(values)
    v = values
    d[2:-2] = (-v[4:] + 8.0 * v[3:-1] - 8.0 * v[1:-3] + v[:-4]) / (12.0 * dt)
    # one-sided 4th-order stencils at the boundary
    d[0] = (-25.0 * v[0] + 48.0 * v[1] - 36.0 * v[2] + 16.0 * v[3] - 3.0 * v[4]) / (12.0 * dt)
    d[1] = (-3.0 * v[0] - 10.0 * v[1] + 18.0 * v[2] - 6.0 * v[3] + v[4]) / (12.0 * dt)
    d[-2] = (3.0 * v[-1] + 10.0 * v[-2] - 18.0 * v[-3] + 6.0 * v[-4] - v[-5]) / (12.0 * dt)
    d[-1] = (25.0 * v[-1] - 48.0 * v[-2] + 36.0 * v[-3] - 16.0 * v[-4] + 3.0 * v[-5]) / (12.0 * dt)
    return d


def delta_h(metric: Metric, q, q_dot, alpha_t: float):
    """Generalized momentum grad h(q + e^-alpha qdot) - grad h(q).

    Reduces to e^-alpha qdot under the Euclidean metric.
    """
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)
    displaced = q + math.exp(-alpha_t) * q_dot
    return metric.grad(displaced) - metric.grad(q)


def kinetic_asymmetry(metric: Metric, transform: SymmetryTransform, q, q_dot,
                      alpha_t: float = 0.0) -> float:
    """d/ds of the kinetic energy along the transform, at s = 0.

    Computed by central finite differences in s, transporting both the
    point and the velocity.  Zero means the learning rule's kinetic energy
    shares the symmetry; nonzero values drive charge motion.
    """
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)

    def energy(s):
        return kinetic_energy(metric, transform.apply(q, s),
                              transform.velocity_apply(q_dot, s), alpha_t)

    return fd_scalar_derivative(energy, 0.0)


@dataclass
class Table2Cell:
    metric: str
    transform: str
    label: str  # "symmetric" | "asymmetric"
    max_abs: float


def _sample_state(metric: Metric, rng):
    if metric.name == "negative-entropy":
        q = rng.uniform(0.6, 1.6, size=metric.dim)
        q_dot = rng.uniform(-0.35, 0.35, size=metric.dim) * q
        return q, q_dot
    q = rng.standard_normal(metric.dim)
    q_dot = rng.standard_normal(metric.dim)
    return q, q_dot


def table2_report(metrics, transforms, samples: int = 16, seed: int = 0):
    """Classify each (metric, transform) pair as symmetric or asymmetric.

    A cell is symmetric iff |kinetic asymmetry| <= SYMMETRIC_TOL at every
    sampled random state.  `_sample_state` keeps every state, and its
    finite-s neighbours, inside the metric's domain.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    rng = np.random.default_rng(seed)
    rows = []
    for metric in metrics:
        row = []
        for transform in transforms:
            max_abs = max(abs(kinetic_asymmetry(metric, transform, *_sample_state(metric, rng)))
                          for _ in range(samples))
            label = "symmetric" if max_abs <= SYMMETRIC_TOL else "asymmetric"
            row.append(Table2Cell(metric.name, transform.name, label, max_abs))
        rows.append(row)
    return rows


@dataclass
class NoetherObservables:
    """Per-sample terms of the charge balance law along a trajectory.

    residual = d(charge)/dt + dissipation - dynamic_asymmetry - noneuclid_term,
    which vanishes (to integrator order) when the trajectory solves the
    Euler-Lagrange equations and the loss is invariant under the transform.
    """

    times: np.ndarray
    charge: np.ndarray
    charge_rate: np.ndarray
    dissipation: np.ndarray
    dynamic_asymmetry: np.ndarray
    noneuclid_term: np.ndarray
    residual: np.ndarray


def noether_residual(metric: Metric, schedule, transform: SymmetryTransform,
                     trajectory) -> NoetherObservables:
    """Measure every term of the charge balance law on a sampled trajectory.

    The charge derivative uses finite differences on the stored grid rather
    than any analytic expression, so the residual is a genuine cross-check
    of the integrated dynamics.  Needs at least 5 uniform samples.
    """
    times = np.asarray(trajectory.times, dtype=float)
    n = times.shape[0]
    if n < 5:
        raise ValueError("noether_residual needs a trajectory of at least 5 samples")
    dt = times[1] - times[0]
    if not np.allclose(np.diff(times), dt, rtol=0.0, atol=1e-12 * max(1.0, abs(dt))):
        raise ValueError("trajectory grid must be uniform")

    charge = np.empty(n)
    dissipation = np.empty(n)
    dynamic = np.empty(n)
    noneuclid = np.empty(n)
    for i in range(n):
        t = times[i]
        q = trajectory.q[i]
        q_dot = trajectory.q_dot[i]
        a = schedule.alpha(t)
        delta = delta_h(metric, q, q_dot, a)
        gen = transform.generator(q)
        charge[i] = delta @ gen
        dissipation[i] = schedule.gamma_dot(t) * charge[i]
        dynamic[i] = delta @ transform.velocity_generator(q_dot)
        # evaluated generically: for the Euclidean metric the mismatch is an
        # exact cancellation, which the invariant tests rely on observing
        mismatch = delta - math.exp(-a) * (metric.hessian(q) @ q_dot)
        noneuclid[i] = math.exp(a) * float(mismatch @ gen)

    rate = time_derivative(charge, dt)
    residual = rate + dissipation - dynamic - noneuclid
    return NoetherObservables(times, charge, rate, dissipation, dynamic, noneuclid, residual)
