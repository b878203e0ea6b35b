"""Reference implementations the tests compare the library against.

None of these is used by an experiment, so they live with the tests rather
than in the package: the Rayleigh-quotient and two-layer-chain gradients as
first written, the discrete optimizer steps as value-returning functions of
an immutable state, the flagship's fused run one point at a time, the
Lagrangian the Euler-Lagrange systems derive from,
eom_bregman's right-hand side with every product written out, an RK4
loop that allocates every stage, the generalized momentum at one point, the
Noether charge and its Euclidean closed-form asymmetry, the charge balance
law measured one sample at a time, the direct quadrature of the
exponential-kernel schedule and its recursion run one numpy sample at a
time, the exact constant-drive norm solution, an SVG polyline's points
formatted one at a time, finite-difference gradients and Hessians, and a
bit-for-bit array comparison.
"""

import math
from dataclasses import dataclass

import numpy as np

from noetherdyn import IntegrationError, r2_schedule
from noetherdyn.continuous import grid_steps
from noetherdyn.errors import DomainError
from noetherdyn.geometry import BregmanSchedule, bregman_divergence
from noetherdyn.symmetry import _FD_STEP, NoetherObservables, time_derivative


# ---------------------------------------------------------------------------
# losses

def rayleigh_grad(matrix, q):
    """RayleighQuotient.grad as first written: 2 (A q - f q) / |q|^2, with
    f and |q|^2 as Python floats (the origin check left out)."""
    r2 = float(q @ q)
    aq = matrix @ q
    f = float(q @ aq) / r2
    return 2.0 * (aq - f * q) / r2


def chain_grad(x, y, q):
    """TwoLayerChain.grad as first written: q unpacked into numpy scalars, and
    the inner product with the inputs a Python float."""
    q1, q2 = q
    resid = q2 * q1 * x - y
    c = float(resid @ x)
    return np.array([c * q2, c * q1])


# ---------------------------------------------------------------------------
# discrete steps: the library's steppers as first written, state -> state

@dataclass(frozen=True)
class OptimizerState:
    """Parameter vector plus the optimizer's memory: the heavy-ball or
    Nesterov buffer, the adaptive accumulator and the completed step count."""

    q: np.ndarray
    momentum_buffer: np.ndarray
    accumulator: float = 1.0
    step_index: int = 0

    @classmethod
    def initial(cls, q0, accumulator: float = 1.0):
        q0 = np.asarray(q0, dtype=float)
        return cls(q=q0.copy(), momentum_buffer=np.zeros_like(q0),
                   accumulator=float(accumulator), step_index=0)


def gd_momentum_wd_step(state, loss, eta, beta=0.0, weight_decay=0.0):
    g = loss.grad(state.q)
    if weight_decay != 0.0:
        g = g + weight_decay * state.q
    buffer = beta * state.momentum_buffer - eta * g
    return OptimizerState(state.q + buffer, buffer, state.accumulator, state.step_index + 1)


def nesterov_step(state, loss, eta):
    k = state.step_index
    factor = (k - 1.0) / (k + 2.0) if k >= 1 else 0.0
    y = state.q + factor * state.momentum_buffer
    q_new = y - eta * loss.grad(y)
    return OptimizerState(q_new, q_new - state.q, state.accumulator, k + 1)


def rmsprop_step(state, loss, eta, rho):
    g = loss.grad(state.q)
    q_new = state.q - (eta / math.sqrt(state.accumulator)) * g
    g_new = rho * state.accumulator + (1.0 - rho) * float(g @ g)
    return OptimizerState(q_new, state.momentum_buffer, g_new, state.step_index + 1)


def flagship_fused_run(spectrum, q0, eta, beta, weight_decay, steps):
    """flagship_run's fused heavy-ball step taken one point at a time, with
    no blocks: the spectrum held doubled, the Rayleigh gradient as one
    division by |q|^2, and the update with decay.  Records |q|^2,
    |q|^2 |g|^2 and the angular step at each point, and raises
    IntegrationError at the first point whose record is not finite."""
    lam2 = 2.0 * np.asarray(spectrum, dtype=float)
    q = np.array(q0, dtype=float)
    buffer = np.zeros_like(q)
    unit_before = None
    records = []
    for n in range(steps + 1):
        rr = q @ q
        aq = lam2 * q
        g = (aq - (q @ aq / rr) * q) / rr
        unit = q / np.sqrt(rr)
        d = unit - (unit if unit_before is None else unit_before)
        record = (rr, rr * (g @ g), np.sqrt(d @ d))
        if not np.isfinite(record).all():
            raise IntegrationError(f"run diverged: recorded value not finite after step {n}",
                                   time=eta * n)
        records.append(record)
        buffer = beta * buffer - eta * (g + weight_decay * q)
        q = q + buffer
        unit_before = unit
    return np.array(records)


# ---------------------------------------------------------------------------
# geometry

def lagrangian(metric, schedule: BregmanSchedule, loss, q, q_dot, t: float) -> float:
    """e^(alpha+gamma) * (D_h(q + e^-alpha qdot, q) - e^beta f(q))."""
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)
    a = schedule.alpha(t)
    displaced = q + math.exp(-a) * q_dot
    kinetic = bregman_divergence(metric, displaced, q)
    potential = math.exp(schedule.beta(t)) * loss.value(q)
    return math.exp(a + schedule.gamma(t)) * (kinetic - potential)


def bregman_rhs(metric, schedule: BregmanSchedule, loss, t: float, q, q_dot):
    """eom_bregman's qddot with every coefficient multiplied in, 1.0 or not."""
    a = schedule.alpha(t)
    ea = math.exp(a)
    u = q + math.exp(-a) * q_dot
    delta = metric.grad(u) - metric.grad(q)
    drive = (ea - schedule.gamma_dot(t)) * delta \
        - math.exp(a + schedule.beta(t)) * loss.grad(q)
    return ea * metric.hessian_solve(u, drive) - (ea - schedule.alpha_dot(t)) * q_dot


# ---------------------------------------------------------------------------
# continuous

def rk4_reference(f, y0, t0: float, t1: float, dt: float, split: int = 0):
    """rk4_solve as a loop that allocates each stage, its derivative and each
    new state, with f's calling convention turned into a full dy/dt."""
    y = np.asarray(y0, dtype=float).copy()
    n = y.size
    if split:
        rest = f

        def f(t, y):
            dy = np.empty(n)
            dy[:split] = y[n - split:]
            dy[split:] = rest(t, y[:n - split], y[n - split:])
            return dy

    times = t0 + dt * np.arange(grid_steps(t0, t1, dt) + 1)
    if not np.isfinite(y).all():
        raise IntegrationError("initial state is not finite", time=t0)
    out = np.empty((times.size, y.size))
    out[0] = y
    for i in range(times.size - 1):
        t = times[i]
        try:
            k1 = f(t, y)
            k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
            k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
            k4 = f(t + dt, y + dt * k3)
        except DomainError as exc:
            raise IntegrationError(f"rhs left its domain: {exc}", time=t) from exc
        y = y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(y).all():
            raise IntegrationError("state is no longer finite", time=times[i + 1])
        out[i + 1] = y
    return times, out


# ---------------------------------------------------------------------------
# symmetry

def delta_h(metric, q, q_dot, alpha_t: float):
    """Generalized momentum grad h(q + e^-alpha qdot) - grad h(q) at one point.

    Reduces to e^-alpha qdot under the Euclidean metric.
    """
    q = np.asarray(q, dtype=float)
    q_dot = np.asarray(q_dot, dtype=float)
    displaced = q + math.exp(-alpha_t) * q_dot
    return metric.grad(displaced) - metric.grad(q)


def noether_charge(metric, transform, q, q_dot, alpha_t: float) -> float:
    """Inner product of the generalized momentum with the transform generator."""
    return float(delta_h(metric, q, q_dot, alpha_t) @ transform.generator(q))


def noether_residual_per_sample(metric, schedule, transform, trajectory) -> NoetherObservables:
    """noether_residual with each term measured one sample at a time, on one
    point, in Python."""
    times = np.asarray(trajectory.times, dtype=float)
    n = times.shape[0]
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
        mismatch = delta - math.exp(-a) * (metric.hessian(q) @ q_dot)
        noneuclid[i] = math.exp(a) * float(mismatch @ gen)

    rate = time_derivative(charge, times[1] - times[0])
    residual = rate + dissipation - dynamic - noneuclid
    return NoetherObservables(times, charge, rate, dissipation, dynamic, noneuclid, residual)


def kinetic_asymmetry_euclidean(transform, q_dot, alpha_t: float = 0.0) -> float:
    """Closed form e^-alpha <qdot, d(Qdot)/ds> valid under the Euclidean metric."""
    q_dot = np.asarray(q_dot, dtype=float)
    return math.exp(-alpha_t) * float(q_dot @ transform.velocity_generator(q_dot))


# ---------------------------------------------------------------------------
# closedform

def constant_history(value: float, t1: float, dt: float) -> np.ndarray:
    """Record holding |ghat|^2 = value on the uniform grid 0, dt, ..., t1."""
    return np.full(int(round(t1 / dt)) + 1, float(value))


def exp_kernel_quadrature(gsq: np.ndarray, dt: float, rate: float, prefactor: float,
                          initial: float) -> np.ndarray:
    """Direct trapezoid quadrature of the exponential-kernel schedule,

        sqrt( prefactor * int_0^t_i exp(-rate (t_i - tau)) gsq(tau) dtau
              + exp(-rate (t_i - t_0)) * initial ),

    summed afresh over every interval up to each sample: O(n^2), with no
    recursion carrying the kernel from one sample to the next.
    """
    times = dt * np.arange(gsq.size)
    out = np.empty(times.size)
    for i in range(times.size):
        weighted = np.exp(-rate * (times[i] - times[:i + 1])) * gsq[:i + 1]
        integral = float(np.sum(0.5 * (weighted[:-1] + weighted[1:]) * np.diff(times[:i + 1])))
        memory = initial * math.exp(-rate * (times[i] - times[0]))
        out[i] = math.sqrt(prefactor * integral + memory)
    return out


def exp_kernel_recurrence(gsq: np.ndarray, dt: float, rate: float, prefactor: float,
                          initial: float) -> np.ndarray:
    """exp_kernel_schedule's recursion written one numpy sample at a time,
    reading each step's accumulator back from the array it writes."""
    decay = math.exp(-rate * dt)
    conv = np.empty_like(gsq)
    conv[0] = 0.0
    for i in range(1, gsq.size):
        conv[i] = decay * conv[i - 1] + 0.5 * dt * (decay * gsq[i - 1] + gsq[i])
    memory = initial * np.exp(-rate * (dt * np.arange(gsq.size)))
    return np.sqrt(prefactor * conv + memory)


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
    quadrature = r2_schedule(np.full(times.size, float(gsq)), times[1] - times[0],
                             eta, beta, k, r0)
    worst = float(np.max(np.abs(quadrature - exact) / np.abs(exact)))
    if worst > 1e-8:
        raise AssertionError(
            f"quadrature schedule deviates from the exact solution by {worst:.3e}")
    return exact


# ---------------------------------------------------------------------------
# chart emission

def polyline_points(x, y, px, py):
    """report._polyline_points as first written: each point of the
    decimated series mapped and formatted on its own."""
    step = max(1, x.size // 2000)  # cap polyline length
    return " ".join(f"{px(a):.2f},{py(b):.2f}" for a, b in zip(x[::step], y[::step])
                    if math.isfinite(b))


# ---------------------------------------------------------------------------
# bit-for-bit comparison

def assert_same_bits(actual, expected):
    """Same shape, dtype and bytes: unlike ==, tells -0.0 from 0.0 and
    matches a NaN with the same NaN."""
    actual = np.ascontiguousarray(actual)
    expected = np.ascontiguousarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


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
