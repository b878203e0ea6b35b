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
    """Differentiable family Q(q, s), identity at s = 0.  A point is a float
    array of shape (dim,) that the caller builds.

    generator and velocity_generator also take a stack of points, shape
    (..., dim), and give each point the bits it gets alone."""

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
        return q + s * self.direction

    def generator(self, q):
        return np.broadcast_to(self.direction, np.shape(q)).copy()

    def velocity_generator(self, q_dot):
        return np.zeros(np.shape(q_dot))

    def velocity_apply(self, q_dot, s):
        return q_dot.copy()


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
        return expm(s * self.matrix) @ q

    def generator(self, q):
        return np.matvec(self.matrix, q)


class Scale(SymmetryTransform):
    """Q = (1 + s) q; the symmetry that normalization layers give a loss."""

    name = "scale"

    def apply(self, q, s):
        return (1.0 + s) * q

    def generator(self, q):
        return q.copy()


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
        return q[..., :self.split], q[..., self.split:]

    def apply(self, q, s):
        q1, q2 = self._blocks(q)
        return np.concatenate(((1.0 + s) * q1, q2 / (1.0 + s)), axis=-1)

    def generator(self, q):
        q1, q2 = self._blocks(q)
        return np.concatenate((q1, -q2), axis=-1)


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


def kinetic_asymmetry(metric: Metric, transform: SymmetryTransform, q, q_dot,
                      alpha_t: float = 0.0) -> float:
    """d/ds of the kinetic energy along the transform, at s = 0.

    Computed by central finite differences in s, transporting both the
    point and the velocity.  Zero means the learning rule's kinetic energy
    shares the symmetry; nonzero values drive charge motion.
    """
    def energy(s):
        return kinetic_energy(metric, transform.apply(q, s),
                              transform.velocity_apply(q_dot, s), alpha_t)

    return fd_scalar_derivative(energy, 0.0)


def _sample_state(metric: Metric, rng):
    if metric.name == "negative-entropy":
        q = rng.uniform(0.6, 1.6, size=metric.dim)
        q_dot = rng.uniform(-0.35, 0.35, size=metric.dim) * q
        return q, q_dot
    q = rng.standard_normal(metric.dim)
    q_dot = rng.standard_normal(metric.dim)
    return q, q_dot


def table2_report(metrics, transforms, samples: int = 16, seed: int = 0) -> np.ndarray:
    """The metric x transform array of the largest |kinetic asymmetry| over
    `samples` random states; a cell is symmetric iff its entry is at most
    SYMMETRIC_TOL.

    `_sample_state` keeps every state, and its finite-s neighbours, inside
    the metric's domain.  Requires samples >= 1 (unchecked).
    """
    rng = np.random.default_rng(seed)
    max_abs = np.empty((len(metrics), len(transforms)))
    for i, metric in enumerate(metrics):
        for j, transform in enumerate(transforms):
            max_abs[i, j] = max(abs(kinetic_asymmetry(metric, transform,
                                                      *_sample_state(metric, rng)))
                                for _ in range(samples))
    return max_abs


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
    of the integrated dynamics.  Needs at least 5 samples on a uniform grid,
    as integrate_rk4 builds: fewer raise time_derivative's ValueError
    before any term is computed.

    A stationary schedule (BregmanSchedule.stationary) has its alpha and
    gamma_dot read once per call, at the first sample, and its e^-alpha,
    e^alpha and gamma_dot enter each product as one float: a product by
    the same double has the same bits, whether the double comes alone or
    as an array of copies.  Any other schedule's are read at every sample,
    as the per-sample loop reads them.
    """
    times, q, q_dot = trajectory.times, trajectory.q, trajectory.q_dot
    n = times.shape[0]
    if n < 5:
        raise ValueError("time derivative needs at least 5 samples")
    dt = times[1] - times[0]

    # every term on all samples at once; vecdot and matvec make the same
    # BLAS call per sample as a per-sample `@`, so the bits agree
    # (einsum and sum-of-products reduce in another order).  A schedule that
    # is not stationary makes one alpha, two math.exp and one gamma_dot
    # call per sample.  fromiter (no list of floats) and the in-place
    # mismatch keep the peak memory at the per-sample loop's
    if schedule.stationary:
        alpha = schedule.alpha(times[0])
        e_minus, e_plus = math.exp(-alpha), math.exp(alpha)
        gamma_dot = float(schedule.gamma_dot(times[0]))
    else:
        alphas = [schedule.alpha(t) for t in times]
        e_minus = np.fromiter((math.exp(-a) for a in alphas), float, n)[:, None]
        e_plus = np.fromiter(map(math.exp, alphas), float, n)
        gamma_dot = np.fromiter(map(schedule.gamma_dot, times), float, n)
    # the generalized momentum Delta_h = grad h(q + e^-alpha qdot) - grad h(q)
    delta = metric.grad(q + e_minus * q_dot) - metric.grad(q)
    gen = transform.generator(q)
    charge = np.vecdot(delta, gen)
    dissipation = gamma_dot * charge
    dynamic = np.vecdot(delta, transform.velocity_generator(q_dot))
    # evaluated generically: for the Euclidean metric the mismatch is an
    # exact cancellation, which the invariant tests rely on observing
    mismatch = np.matvec(metric.hessian(q), q_dot)
    mismatch *= e_minus
    np.subtract(delta, mismatch, out=mismatch)
    noneuclid = e_plus * np.vecdot(mismatch, gen)

    rate = time_derivative(charge, dt)
    residual = rate + dissipation - dynamic - noneuclid
    return NoetherObservables(times, charge, rate, dissipation, dynamic, noneuclid, residual)
