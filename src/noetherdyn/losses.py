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

# a 0-d operand costs a ufunc call less than a Python float, for the same bits
_HALF = np.array(0.5)


def _symmetric_matrix(matrix) -> np.ndarray:
    a = np.asarray(matrix, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or not np.allclose(a, a.T, atol=1e-12):
        raise ValueError("matrix must be square symmetric")
    return a


class Loss:
    """Objective f(q) with analytic gradient.  A point is a float array of
    shape (dim,) that the caller builds.  grad also takes a stack of points,
    shape (..., dim), and gives each point the bits it gets alone; a row's
    dot products are np.vecdot, one BLAS dot per row, as a point's `@` is.
    grad(q, out=out) writes the gradient into `out`, an array of q's shape
    that may be a strided view of a larger buffer, and returns it; each
    entry gets the bits it gets without `out`.  A loss with a singular
    point (the Rayleigh quotient and the radial well, at the origin) checks
    for it itself, where it computes |q|, and raises SingularLossError
    there, on a stack if any point is singular."""

    dim: int
    name: str

    def value(self, q) -> float:
        raise NotImplementedError

    def grad(self, q, out=None) -> np.ndarray:
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(dim={self.dim})"


class RayleighQuotient(Loss):
    """f(q) = <q, A q> / |q|^2 for symmetric A.

    Exactly scale invariant; its gradient is tangent to the sphere
    (<grad f, q> = 0) and obeys |grad f(a q)| = |grad f(q)| / a.
    """

    name = "rayleigh"

    def __init__(self, matrix):
        self.matrix = _symmetric_matrix(matrix)
        self.dim = self.matrix.shape[0]
        # the point path's f and |q|^2 / 2, as ufunc operands (see grad)
        self._f, self._half_norm_sq = np.empty(()), np.empty(())

    @staticmethod
    def _norm_sq(q):
        """|q|^2, one per point of a stack."""
        if q.ndim == 1:
            r2 = lowest = q.dot(q)
        else:
            r2 = np.vecdot(q, q)
            lowest = np.fmin.reduce(r2, axis=None)  # fmin skips a NaN
        if math.sqrt(lowest) <= _ORIGIN_TOL:
            raise SingularLossError("origin is a singular point of the Rayleigh quotient")
        return r2

    def value(self, q):
        r2 = self._norm_sq(q)
        return float(q @ self.matrix @ q / r2)

    def grad(self, q, out=None):
        """2 t / |q|^2 for t = A q - f q, computed as t / (|q|^2 / 2): the same
        rounding, since |q|^2 >= 1e-24 halves exactly and 2t is finite while
        |q|^2 is (|t| <= 2 |A| |q|, barring an |A| near 1e154).  Past
        |q| = 1.3e154, |q|^2 is inf and 2t may overflow where t does not, so
        2t / |q|^2 is kept there: NaN, where t / inf would be 0.

        A point takes its own path: the stack path's extra calls would
        about double the cost of a discrete step's gradient.  It stores f
        and |q|^2 / 2 by item assignment into two 0-d arrays that the loss
        object owns, and the ufuncs take those as operands: a ufunc call
        costs about 0.15 us with a 0-d array operand against 0.28 us with a
        numpy scalar.  The ufunc multiplies or divides by the double the
        array holds with the same IEEE op, so the bits are those of the
        scalars; the result is a new array or `out`, never one of the two,
        and one object's point calls are not for two threads at once.
        q.dot, a point's faster dot, can give -0.0 where np.vecdot gives
        +0.0, but only for <q, Aq> at dim 1, and only where A q is +0.0
        (A q is never -0.0), so t is the same.  Only the last division
        writes into `out`: A q stays numpy's own matvec result."""
        r2 = self._norm_sq(q)
        if q.ndim > 1:
            aq = np.matvec(self.matrix, q)
            t = aq - (np.vecdot(q, aq) / r2)[..., None] * q
            r2 = r2[..., None]
            # Python's max is inf or NaN if any entry is inf; a NaN entry with
            # no inf may take either branch, and both give each row the same
            # t / (|q|^2 / 2)
            if not max(r2.ravel().tolist()) < math.inf:
                at_inf = r2 == math.inf
                return np.divide(np.where(at_inf, 2.0 * t, t), np.where(at_inf, r2, r2 * _HALF),
                                 t if out is None else out)
            return np.divide(t, r2 * _HALF, t if out is None else out)
        aq = self.matrix @ q
        f, half_norm_sq = self._f, self._half_norm_sq
        f[()] = q.dot(aq) / r2
        t = np.multiply(f, q)
        np.subtract(aq, t, t)
        if r2 == math.inf:
            return np.divide(2.0 * t, r2, out)
        half_norm_sq[()] = r2 * 0.5
        return np.divide(t, half_norm_sq, t if out is None else out)


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
        q1, q2 = q
        resid = q2 * q1 * self.x - self.y
        return 0.5 * float(resid @ resid)

    def grad(self, q, out=None):
        # not resid.dot(x): where every product is a zero of sign -, dot sums
        # them to -0.0, the matmul sum and np.vecdot (from +0.0) to +0.0
        if q.ndim > 1:
            resid = (q[..., 1:] * q[..., :1]) * self.x - self.y
            return np.multiply(np.vecdot(resid, self.x)[..., None], q[..., ::-1], out)
        # a point on Python floats: about 3/4 of the stack path's cost
        q1, q2 = q.tolist()
        resid = q2 * q1 * self.x - self.y
        c = resid @ self.x
        if out is None:
            return np.array([c * q2, c * q1])
        out[0], out[1] = c * q2, c * q1
        return out


class RadialWell(Loss):
    """Rotation-invariant harmonic well f(q) = stiffness (|q| - radius)^2 / 2
    around a preferred norm."""

    name = "radial-well"

    def __init__(self, radius: float, stiffness: float, dim: int):
        # 0-d arrays: as grad's operands they cost a ufunc call less than floats
        self.radius = np.array(radius, dtype=float)
        self.stiffness = np.array(stiffness, dtype=float)
        self.dim = int(dim)

    def value(self, q):
        r = np.linalg.norm(q)
        return float(0.5 * self.stiffness * (r - self.radius) ** 2)

    def grad(self, q, out=None):
        r = np.sqrt(np.vecdot(q, q))  # np.linalg.norm(q) bit for bit, per row
        if np.fmin.reduce(r, axis=None) <= _ORIGIN_TOL:  # fmin skips a NaN
            raise SingularLossError("radial gradient is undefined at the origin")
        return np.multiply((self.stiffness * (r - self.radius) / r)[..., None], q, out)


class Quadratic(Loss):
    """f(q) = <q, A q> / 2 for symmetric positive-semidefinite A.

    Translation invariant along any null direction of A, which makes a
    degenerate quadratic a convenient exactly-invariant objective with
    tunable curvature.
    """

    name = "quadratic"

    def __init__(self, matrix):
        self.matrix = _symmetric_matrix(matrix)
        self.dim = self.matrix.shape[0]

    def value(self, q):
        return 0.5 * float(q @ self.matrix @ q)

    def grad(self, q, out=None):
        return np.matvec(self.matrix, q, out)  # a point or a stack
