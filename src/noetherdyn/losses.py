"""Differentiable toy objectives with exact symmetries.

Each loss carries an analytic gradient and is exactly invariant under one
transform family: the Rayleigh quotient under scaling, the two-layer chain
under rescaling, the radial well under rotation, and a degenerate quadratic
under translation along its null directions.  All losses are full-batch
deterministic: the closed-form comparisons elsewhere need exact values, not
noisy estimates.
"""

import math

import numpy as np

from .errors import SingularLossError

_ORIGIN_TOL = 1e-12


class Loss:
    """Objective f(q) with analytic gradient."""

    dim: int
    name: str
    scale_invariant = False

    def value(self, q) -> float:
        raise NotImplementedError

    def grad(self, q) -> np.ndarray:
        raise NotImplementedError

    def _as_point(self, q):
        q = np.asarray(q, dtype=float)
        if self.scale_invariant and math.sqrt(q @ q) <= _ORIGIN_TOL:
            raise SingularLossError("origin is a singular point of scale-invariant losses")
        return q

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class RayleighQuotient(Loss):
    """f(q) = <q, A q> / |q|^2 for symmetric A.

    Exactly scale invariant; its gradient is tangent to the sphere
    (<grad f, q> = 0) and obeys |grad f(a q)| = |grad f(q)| / a.
    """

    name = "rayleigh"
    scale_invariant = True

    def __init__(self, matrix):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("matrix must be square symmetric")
        self.matrix = a
        self.dim = a.shape[0]

    def value(self, q):
        q = self._as_point(q)
        return float(q @ self.matrix @ q) / float(q @ q)

    def grad(self, q):
        q = self._as_point(q)
        r2 = float(q @ q)
        aq = self.matrix @ q
        f = float(q @ aq) / r2
        return 2.0 * (aq - f * q) / r2


class TwoLayerChain(Loss):
    """Scalar linear chain f(q1, q2) = sum_j (q2 q1 x_j - y_j)^2 / 2.

    Invariant under the rescale map (q1, q2) -> (a q1, q2 / a), the smooth
    analogue of the rescaling freedom a ReLU pair leaves in a network.
    """

    name = "two-layer-chain"
    dim = 2

    def __init__(self, x, y):
        self.x = np.atleast_1d(np.asarray(x, dtype=float))
        self.y = np.atleast_1d(np.asarray(y, dtype=float))
        if self.x.shape != self.y.shape:
            raise ValueError("inputs and targets must have matching shapes")

    def value(self, q):
        q1, q2 = np.asarray(q, dtype=float)
        resid = q2 * q1 * self.x - self.y
        return 0.5 * float(resid @ resid)

    def grad(self, q):
        q1, q2 = np.asarray(q, dtype=float)
        resid = q2 * q1 * self.x - self.y
        return np.array([float(resid @ self.x) * q2, float(resid @ self.x) * q1])


class RadialWell(Loss):
    """Rotation-invariant harmonic well f(q) = stiffness (|q| - radius)^2 / 2
    around a preferred norm."""

    name = "radial-well"

    def __init__(self, radius: float, stiffness: float, dim: int):
        self.radius = radius
        self.stiffness = stiffness
        self.dim = int(dim)

    def value(self, q):
        r = np.linalg.norm(np.asarray(q, dtype=float))
        return float(0.5 * self.stiffness * (r - self.radius) ** 2)

    def grad(self, q):
        q = np.asarray(q, dtype=float)
        r = math.sqrt(q @ q)  # np.linalg.norm(q) bit for bit, without its wrapper
        if r <= _ORIGIN_TOL:
            raise SingularLossError("radial gradient is undefined at the origin")
        return (self.stiffness * (r - self.radius) / r) * q


class Quadratic(Loss):
    """f(q) = <q, A q> / 2 + <b, q> for symmetric positive-semidefinite A.

    Translation invariant along any null direction of A orthogonal to b,
    which makes a degenerate quadratic a convenient exactly-invariant
    objective with tunable curvature.
    """

    name = "quadratic"

    def __init__(self, matrix, offset=None):
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-12):
            raise ValueError("matrix must be square symmetric")
        self.matrix = a
        self.dim = a.shape[0]
        self.offset = np.zeros(self.dim) if offset is None else np.asarray(offset, dtype=float)

    def value(self, q):
        q = np.asarray(q, dtype=float)
        return 0.5 * float(q @ self.matrix @ q) + float(self.offset @ q)

    def grad(self, q):
        q = np.asarray(q, dtype=float)
        return self.matrix @ q + self.offset
