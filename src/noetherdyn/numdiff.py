"""Central finite differences used for cross-checks and derivative oracles."""

import numpy as np

# cbrt(machine epsilon): optimal step for second-order central differences.
_FD_STEP = float(np.cbrt(np.finfo(float).eps))


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
