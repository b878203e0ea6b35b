"""Exact discrete update rules whose continuous-time models we analyze.

Each step_* writes in place: it reads a point and writes the gradient it
takes and the next point into rows that `simulate` owns.  The optimizer's
memory stays with the caller: a momentum buffer the step updates in place,
the step count, or an adaptive accumulator the step returns.  Every
elementwise op keeps the operands and the order of the value-returning
textbook update, so a run is deterministic and replays bit for bit.
`simulate` is the one loop that drives a step and records observables, a
block of steps at a time.  The step index times the learning rate is the
continuous time of the matching trajectory sample.
"""

import math

import numpy as np

from .errors import IntegrationError

BLOCK = 1024  # points per block of simulate's rows


def step_gd_momentum_wd(q, g, q_next, buffer, loss, eta: float, beta: float = 0.0,
                        weight_decay: float = 0.0):
    """Heavy-ball update with the learning rate inside the buffer:

        buffer <- beta * buffer - eta * (grad f(q) + weight_decay * q)
        q      <- q + buffer

    writing grad f(q) into g, the new buffer into `buffer` (zeros at the
    start) and the next point into q_next.  With beta = 0 and no decay this
    is plain gradient descent; with no decay the term weight_decay * q is
    not formed.  Its second-order continuous model is eom_bregman with the
    Euclidean metric under natural_schedule(eta (1+beta)/2, 1-beta): mass
    eta (1+beta)/2 and friction 1-beta.  Requires eta > 0, 0 <= beta < 1 and
    weight_decay >= 0; the caller checks them.

    Each constant is a float or a 0-d float64 array, with the same bits:
    a ufunc multiplies by the double a 0-d array holds with the same IEEE
    op, and converts a Python float on every call, which costs more.  So a
    caller that takes many steps builds the three arrays once.  The decay
    is skipped where `weight_decay` is false: +-0.0 skip it and NaN does
    not, as under == 0.0, which costs a 0-d array more than its operands
    save.
    """
    multiply = np.multiply
    loss.grad(q, out=g)
    # q_next serves as scratch until the last op; out= is positional, which
    # costs less than the keyword
    drive = np.add(g, multiply(weight_decay, q, q_next), q_next) if weight_decay else g
    multiply(beta, buffer, buffer)
    np.subtract(buffer, multiply(eta, drive, q_next), buffer)
    np.add(q, buffer, q_next)


def step_nesterov(q, g, q_next, buffer, k: int, loss, eta: float):
    """Accelerated gradient step with momentum factor (k-1)/(k+2), where k
    is the number of completed steps; the first step is plain gradient
    descent.

    The lookahead point is y = q + ((k-1)/(k+2)) buffer, with buffer
    q - q_prev (zeros at the start); g receives grad f(y), q_next the point
    y - eta grad f(y), and buffer q_next - q.  eta is a float or a 0-d
    float64 array, with the same bits (see step_gd_momentum_wd).  Requires
    eta > 0 (unchecked).
    """
    factor = (k - 1.0) / (k + 2.0) if k >= 1 else 0.0
    y = np.add(q, np.multiply(factor, buffer, buffer), buffer)  # the buffer holds y
    loss.grad(y, out=g)
    np.subtract(y, np.multiply(eta, g, q_next), q_next)
    np.subtract(q_next, q, buffer)


def step_rmsprop(q, g, q_next, accumulator: float, loss, eta: float, rho: float) -> float:
    """Adaptive step scaled by the root of a gradient-norm memory G:

        q <- q - (eta / sqrt(G)) * g,   G <- rho * G + (1 - rho) * |g|^2

    writing g = grad f(q) into g and the next point into q_next, and
    returning the next G; the q-update uses the pre-update G.  There is no
    epsilon guard and no check: a positive accumulator at initialization
    stays positive, and math.sqrt or the division raise if it does not.
    eta is a float or a 0-d float64 array, with the same bits; but a 0-d
    eta divided by a zero accumulator's root is inf, with numpy's warning,
    not a ZeroDivisionError.  Requires eta > 0 and 0 < rho < 1; the caller
    checks them.
    """
    loss.grad(q, out=g)
    np.subtract(q, np.multiply(eta / math.sqrt(accumulator), g, q_next), q_next)
    return rho * accumulator + (1.0 - rho) * float(g @ g)


def centered_velocities(qs: np.ndarray, eta: float) -> np.ndarray:
    """Second-order velocity export (q[n+1] - q[n-1]) / (2 eta) for interior
    samples of a discrete run; matches the accuracy of the modified
    equation the velocities are compared against."""
    if qs.shape[0] < 3:
        raise ValueError("need at least 3 samples for centered velocities")
    return (qs[2:] - qs[:-2]) / (2.0 * eta)


def simulate(step, q0, steps: int, observe, dt: float, grad=None):
    """Take `steps` steps of a discrete rule from q0, each worth dt of time,
    recording observe on the start point and on the point after every step.

    The run's points and gradients are rows of (BLOCK + 1, dim) arrays that
    simulate owns.  step(n, q, g, q_next) takes step n: it reads the point q
    and writes the gradient it takes into the row g and the next point into
    the row q_next; a library step_* does both.  At the end of each block,
    observe(n, qs, gs) records the block's points qs (the points after n,
    n + 1, ... steps) and their gradient rows gs, and returns one value per
    point: an array of leading length len(qs), or a tuple of such columns,
    one column each.  The rows are reused for the next block.  The last
    point's gradient row is grad(q, out=g) when `grad` is given, and NaN
    otherwise: a run that observes its gradients passes the loss's grad,
    and one that does not takes no gradient past its last step.

    Returns (times, record) with times = dt * np.arange(steps + 1) and
    record[n] the observation after n steps, at times[n].  A run whose
    record stops being finite aborts at the first such step n, naming its
    time times[n]; the record is checked once per block, so no step runs
    past the block that holds step n.
    """
    times = dt * np.arange(steps + 1)
    points = np.empty((BLOCK + 1, len(q0)))
    grads = np.empty((BLOCK, len(q0)))
    point_rows, grad_rows = list(points), list(grads)
    points[0] = q0
    record = None
    for lo in range(0, steps + 1, BLOCK):
        rows = min(BLOCK, steps + 1 - lo)
        for i in range(min(rows, steps - lo)):
            step(lo + i, point_rows[i], grad_rows[i], point_rows[i + 1])
        if lo + rows > steps:  # the block holds the run's last point
            if grad is None:
                grads[rows - 1] = math.nan
            else:
                grad(point_rows[rows - 1], out=grad_rows[rows - 1])
        block = observe(lo, points[:rows], grads[:rows])
        if isinstance(block, tuple):
            block = np.stack(block, axis=-1)
        if record is None:
            record = np.empty((steps + 1,) + np.shape(block)[1:])
        written = record[lo:lo + rows]
        written[...] = block
        finite = np.isfinite(written).reshape(rows, -1).all(axis=1)
        if not finite.all():
            n = lo + int(np.argmin(finite))
            raise IntegrationError(f"run diverged: recorded value not finite after step {n}",
                                   time=times[n])
        points[0] = points[rows]  # the next block's first point
    return times, record

