"""Discrete update rules against hand-rolled oracles, and the `simulate` loop."""

import math
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies
from hypothesis.extra.numpy import arrays

from noetherdyn import (
    IntegrationError,
    Loss,
    Quadratic,
    RadialWell,
    RayleighQuotient,
    SingularLossError,
    TwoLayerChain,
    centered_velocities,
    simulate,
    step_gd_momentum_wd,
    step_nesterov,
    step_rmsprop,
)
from noetherdyn import discrete
from oracles import (OptimizerState, assert_same_bits, gd_momentum_wd_step, nesterov_step,
                     rmsprop_step)

U = 2.0 ** -53  # unit round-off of float64


def points(n, qs, gs):
    return qs.copy()


def squared_norms(n, qs, gs):
    return np.vecdot(qs, qs)


def gd_step(q, loss, eta, beta=0.0, weight_decay=0.0, buffer=None):
    """One step_gd_momentum_wd from q: (next point, buffer, gradient row)."""
    q = np.array(q, dtype=float)
    g, q_next = np.empty_like(q), np.empty_like(q)
    buffer = np.zeros_like(q) if buffer is None else buffer
    step_gd_momentum_wd(q, g, q_next, buffer, loss, eta, beta, weight_decay)
    return q_next, buffer, g


def run_gd(loss, q0, steps, eta, beta=0.0, weight_decay=0.0, observe=points, **kwargs):
    buffer = np.zeros(len(q0))
    return simulate(lambda n, q, g, q_next: step_gd_momentum_wd(q, g, q_next, buffer, loss, eta,
                                                                beta, weight_decay),
                    q0, steps, observe, eta, **kwargs)


class TestHeavyBall:
    def test_single_gd_step(self):
        q1, _, g = gd_step([1.0], Quadratic(np.eye(1)), 0.1)
        assert q1[0] == pytest.approx(0.9)
        assert g[0] == 1.0

    def test_stationary_point_is_fixed(self):
        q1, buffer, _ = gd_step([0.0, 0.0], Quadratic(np.eye(2)), 0.1, beta=0.5)
        np.testing.assert_array_equal(q1, [0.0, 0.0])
        np.testing.assert_array_equal(buffer, [0.0, 0.0])

    def test_two_momentum_steps_hand_rolled(self):
        # buffer: -0.1, then 0.5*(-0.1) - 0.1*0.9 = -0.14
        loss = Quadratic(np.eye(1))
        q1, buffer, _ = gd_step([1.0], loss, 0.1, beta=0.5)
        assert q1[0] == pytest.approx(0.9)
        q2, buffer, _ = gd_step(q1, loss, 0.1, beta=0.5, buffer=buffer)
        assert buffer[0] == pytest.approx(-0.14)
        assert q2[0] == pytest.approx(0.76)

    def test_weight_decay_enters_the_buffer(self):
        q1, buffer, g = gd_step([2.0], Quadratic(np.zeros((1, 1))), 0.1, weight_decay=0.5)
        assert q1[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)
        assert buffer[0] == pytest.approx(-0.1)
        assert g[0] == 0.0  # the gradient row holds grad f alone


def nesterov_run(loss, q0, steps, eta, dt, observe=points):
    buffer = np.zeros(len(q0))
    return simulate(lambda n, q, g, q_next: step_nesterov(q, g, q_next, buffer, n, loss, eta),
                    q0, steps, observe, dt)


class TestNesterov:
    def test_zero_gradient_is_fixed_point(self):
        _, qs = nesterov_run(Quadratic(np.zeros((2, 2))), [1.0, -1.0], 3, 0.1, 1.0)
        np.testing.assert_array_equal(qs, [[1.0, -1.0]] * 4)

    def test_first_step_is_plain_gradient_descent(self):
        _, qs = nesterov_run(Quadratic(np.eye(1)), [1.0], 1, 0.1, 1.0)
        assert qs[1, 0] == pytest.approx(0.9)

    def test_momentum_kicks_in_at_third_step(self):
        # lookahead uses (k-1)/(k+2): zero for k = 0, 1; 1/4 at k = 2
        _, qs = nesterov_run(Quadratic(np.eye(1)), [1.0], 3, 0.1, np.sqrt(0.1))
        x0, x1 = 1.0, 0.9
        x2 = x1 - 0.1 * x1
        y2 = x2 + 0.25 * (x2 - x1)
        x3 = y2 - 0.1 * y2
        np.testing.assert_allclose(qs[:, 0], [x0, x1, x2, x3], rtol=1e-14)


def rmsprop_run(loss, q0, steps, eta, rho, accumulator, observe=None):
    """simulate with step_rmsprop; the record is (|g|^2, accumulator) by default."""
    memory = np.empty(steps + 1)
    memory[0] = accumulator

    def step(n, q, g, q_next):
        memory[n + 1] = step_rmsprop(q, g, q_next, memory[n], loss, eta, rho)

    if observe is None:
        def observe(n, qs, gs):
            return np.vecdot(gs, gs), memory[n:n + len(qs)]
    return simulate(step, q0, steps, observe, eta, grad=loss.grad)


class TestRmsprop:
    def test_hand_rolled_step(self):
        _, record = rmsprop_run(Quadratic(np.eye(1)), [1.0], 1, 0.1, 0.9, 1.0,
                                lambda n, qs, gs: qs[:, 0])
        assert record[1] == pytest.approx(0.9)
        q, g, q_next = np.array([1.0]), np.empty(1), np.empty(1)
        accumulator = step_rmsprop(q, g, q_next, 1.0, Quadratic(np.eye(1)), 0.1, 0.9)
        assert accumulator == pytest.approx(1.0)  # 0.9*1 + 0.1*1

    def test_constant_gradient_norm_fixes_accumulator(self):
        class Slope:  # f(q) = 3 q1 + 4 q2: |g| = 5 everywhere
            def grad(self, q, out=None):
                out[:] = 3.0, 4.0
                return out

        _, record = rmsprop_run(Slope(), [0.0, 0.0], 10, 0.01, 0.9, 25.0)
        np.testing.assert_allclose(record[:, 1], 25.0)

    def test_zero_gradient_decays_accumulator_geometrically(self):
        loss = Quadratic(np.zeros((1, 1)))
        _, qs = rmsprop_run(loss, [1.0], 4, 0.01, 0.5, 8.0, points)
        np.testing.assert_array_equal(qs, 1.0)
        _, record = rmsprop_run(loss, [1.0], 4, 0.01, 0.5, 8.0)
        np.testing.assert_allclose(record[:, 1], 8.0 * 0.5 ** np.arange(5))


class TestDeterminism:
    def test_bitwise_identical_replays(self):
        loss = RayleighQuotient(np.diag([1.0, 2.0, 3.0]))
        q0 = np.random.default_rng(123).standard_normal(3)
        a = run_gd(loss, q0, 200, 1e-3, beta=0.5)[1]
        b = run_gd(loss, q0, 200, 1e-3, beta=0.5)[1]
        assert a.tobytes() == b.tobytes()


# ---------------------------------------------------------------------------
# each stepper against its value-returning oracle step, bit for bit

SIGNED = strategies.one_of(strategies.sampled_from([0.0, -0.0]), strategies.floats(-3.0, 3.0))


def draw_loss(data, family):
    if family == "two-layer-chain":
        samples = data.draw(arrays(np.float64, (data.draw(strategies.integers(1, 3)), 2),
                                   elements=SIGNED))
        return TwoLayerChain(samples[:, 0], samples[:, 1])
    dim = data.draw(strategies.integers(1, 4))
    if family == "radial-well":
        return RadialWell(data.draw(strategies.floats(0.0, 2.0)),
                          data.draw(strategies.floats(0.0, 5.0)), dim)
    a = data.draw(arrays(np.float64, (dim, dim), elements=SIGNED))
    return (RayleighQuotient if family == "rayleigh" else Quadratic)(a + a.T)


def oracle_run(step, state, steps):
    """The states of `steps` oracle steps from `state`, the start included."""
    states = [state]
    for _ in range(steps):
        states.append(step(states[-1]))
    return states


def first_nonfinite(record):
    """The first step whose row of an expected record is not finite, or None.
    simulate aborts a run there, so a run whose points stay finite but whose
    last gradient overflows is expected to raise, not to match."""
    finite = np.isfinite(record).reshape(len(record), -1).all(axis=1)
    return None if finite.all() else int(np.argmin(finite))


class TestSteppersMatchOracles:
    """simulate running a library stepper gives, at every step, the point
    (signed zeros included), the gradient and the memory of the oracle's
    value-returning step, across block boundaries."""

    FAMILIES = ["rayleigh", "two-layer-chain", "radial-well", "quadratic"]

    def draw_run(self, data, family):
        loss = draw_loss(data, family)
        q0 = data.draw(arrays(np.float64, loss.dim, elements=SIGNED))
        if family in ("rayleigh", "radial-well"):
            assume(np.linalg.norm(q0) > 1e-3)
        return (loss, q0, data.draw(strategies.integers(0, 12)),
                data.draw(strategies.sampled_from([1, 2, 5, 1024])))

    @settings(max_examples=300, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(FAMILIES),
           beta=strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 0.99)),
           weight_decay=strategies.one_of(strategies.just(0.0), strategies.floats(0.0, 1.0)),
           eta=strategies.floats(1e-3, 0.5))
    def test_heavy_ball(self, data, family, beta, weight_decay, eta):
        loss, q0, steps, block = self.draw_run(data, family)
        with np.errstate(all="ignore"):
            try:
                states = oracle_run(lambda s: gd_momentum_wd_step(s, loss, eta, beta, weight_decay),
                                    OptimizerState.initial(q0), steps)
                expected_grads = [loss.grad(s.q) for s in states]
            except SingularLossError:
                assume(False)
            assume(all(np.isfinite(s.q).all() for s in states))
            buffers = []
            buffer = np.zeros(loss.dim)

            def step(n, q, g, q_next):
                step_gd_momentum_wd(q, g, q_next, buffer, loss, eta, beta, weight_decay)
                buffers.append(buffer.copy())

            def run():
                return simulate(step, q0, steps,
                                lambda n, qs, gs: np.concatenate([qs, gs], axis=1), eta,
                                grad=loss.grad)

            expected = np.concatenate([[s.q for s in states], expected_grads], axis=1)
            diverged = first_nonfinite(expected)
            with mock.patch.object(discrete, "BLOCK", block):
                if diverged is not None:
                    with pytest.raises(IntegrationError, match=rf"after step {diverged} "):
                        run()
                    return
                _, record = run()
        dim = loss.dim
        assert_same_bits(record, expected)
        assert_same_bits(np.array(buffers).reshape(steps, dim),
                         np.array([s.momentum_buffer for s in states[1:]]).reshape(steps, dim))

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(FAMILIES),
           eta=strategies.floats(1e-3, 0.5))
    def test_nesterov(self, data, family, eta):
        loss, q0, steps, block = self.draw_run(data, family)
        with np.errstate(all="ignore"):
            try:
                states = oracle_run(lambda s: nesterov_step(s, loss, eta),
                                    OptimizerState.initial(q0), steps)
            except SingularLossError:
                assume(False)
            assume(all(np.isfinite(s.q).all() for s in states))
            buffer = np.zeros(loss.dim)
            lookahead_grads = []

            def step(n, q, g, q_next):
                step_nesterov(q, g, q_next, buffer, n, loss, eta)
                lookahead_grads.append(g.copy())

            with mock.patch.object(discrete, "BLOCK", block):
                _, record = simulate(step, q0, steps, points, eta)
        assert_same_bits(record, np.array([s.q for s in states]))
        for k, (state, g) in enumerate(zip(states, lookahead_grads)):
            factor = (k - 1.0) / (k + 2.0) if k >= 1 else 0.0
            assert_same_bits(g, loss.grad(state.q + factor * state.momentum_buffer))

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(FAMILIES),
           eta=strategies.floats(1e-3, 0.5), rho=strategies.floats(0.01, 0.99),
           accumulator=strategies.floats(1e-3, 10.0))
    def test_rmsprop(self, data, family, eta, rho, accumulator):
        loss, q0, steps, block = self.draw_run(data, family)
        with np.errstate(all="ignore"):
            try:
                states = oracle_run(lambda s: rmsprop_step(s, loss, eta, rho),
                                    OptimizerState.initial(q0, accumulator), steps)
                expected_gsq = [loss.grad(s.q) @ loss.grad(s.q) for s in states]
            except (SingularLossError, ValueError, ZeroDivisionError):
                assume(False)
            assume(all(np.isfinite(s.q).all() and np.isfinite(s.accumulator) for s in states))
            diverged = first_nonfinite(np.array(expected_gsq))
            with mock.patch.object(discrete, "BLOCK", block):
                if diverged is not None:
                    with pytest.raises(IntegrationError, match=rf"after step {diverged} "):
                        rmsprop_run(loss, q0, steps, eta, rho, accumulator)
                    return
                _, record = rmsprop_run(loss, q0, steps, eta, rho, accumulator)
                _, qs = rmsprop_run(loss, q0, steps, eta, rho, accumulator, points)
        assert_same_bits(qs, np.array([s.q for s in states]))
        assert_same_bits(record[:, 0], np.array(expected_gsq))
        assert_same_bits(record[:, 1], np.array([s.accumulator for s in states]))


# a step constant: zeros of both signs, subnormals and values near overflow
# among ordinary ones
CONSTANT = strategies.one_of(
    strategies.sampled_from([0.0, -0.0, 5e-324, 2.0 ** -1040, 1e300, 1.7976931348623157e308]),
    strategies.floats(0.0, 2.0))


class DrawnGradient(Loss):
    """A loss whose gradient is one drawn array wherever it is taken, so a
    step's gradient can hold zeros of either sign at any point."""

    name = "drawn-gradient"

    def __init__(self, g):
        self.g = g
        self.dim = len(g)

    def grad(self, q, out=None):
        if out is None:
            return self.g.copy()
        out[...] = self.g
        return out


class TestZeroDimConstants:
    """A stepper given its constants as 0-d float64 arrays writes the bits
    it writes given them as Python floats, and those of the oracle's step.
    A drawn gradient with -0.0 entries beside a buffer with -0.0 entries
    tells a skipped decay from g + 0 q: -0.0 + 0.0 is +0.0, and the buffer
    beta b - eta g then keeps a zero of the other sign."""

    def draw_start(self, data):
        family = data.draw(strategies.sampled_from(TestSteppersMatchOracles.FAMILIES
                                                   + ["drawn"]))
        if family == "drawn":
            loss = DrawnGradient(data.draw(arrays(np.float64, data.draw(strategies.integers(1, 4)),
                                                  elements=SIGNED)))
        else:
            loss = draw_loss(data, family)
        q = data.draw(arrays(np.float64, loss.dim, elements=SIGNED))
        if family in ("rayleigh", "radial-well"):
            assume(np.linalg.norm(q) > 1e-3)
        return loss, q, data.draw(arrays(np.float64, loss.dim, elements=SIGNED))

    @staticmethod
    def take(step, q, buffer):
        """(g, q_next, buffer, result) of step(q, g, q_next, buffer) on fresh
        rows and a copy of the buffer."""
        g, q_next, buffer = np.empty_like(q), np.empty_like(q), buffer.copy()
        result = step(q, g, q_next, buffer)
        return g, q_next, buffer, result

    @settings(max_examples=300, deadline=None)
    @given(data=strategies.data(), eta=CONSTANT, beta=CONSTANT, weight_decay=CONSTANT)
    def test_heavy_ball(self, data, eta, beta, weight_decay):
        loss, q, buffer = self.draw_start(data)
        with np.errstate(all="ignore"):
            floats, zero_dim = (
                self.take(lambda q, g, q_next, b: step_gd_momentum_wd(q, g, q_next, b, loss,
                                                                      *constants), q, buffer)
                for constants in ((eta, beta, weight_decay),
                                  tuple(np.array(c) for c in (eta, beta, weight_decay))))
            expected = gd_momentum_wd_step(OptimizerState(q, buffer), loss, eta, beta,
                                           weight_decay)
        for got, want in zip(zero_dim[:3], floats[:3]):
            assert_same_bits(got, want)
        assert_same_bits(zero_dim[1], expected.q)
        assert_same_bits(zero_dim[2], expected.momentum_buffer)

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), eta=CONSTANT, k=strategies.integers(0, 5))
    def test_nesterov(self, data, eta, k):
        loss, q, buffer = self.draw_start(data)
        with np.errstate(all="ignore"):
            floats, zero_dim = (
                self.take(lambda q, g, q_next, b: step_nesterov(q, g, q_next, b, k, loss, lr),
                          q, buffer)
                for lr in (eta, np.array(eta)))
            expected = nesterov_step(OptimizerState(q, buffer, step_index=k), loss, eta)
        for got, want in zip(zero_dim[:3], floats[:3]):
            assert_same_bits(got, want)
        assert_same_bits(zero_dim[1], expected.q)
        assert_same_bits(zero_dim[2], expected.momentum_buffer)

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), eta=CONSTANT, rho=strategies.floats(0.0, 1.0),
           accumulator=strategies.one_of(strategies.sampled_from([5e-324, 1e300]),
                                         strategies.floats(1e-3, 10.0)))
    def test_rmsprop(self, data, eta, rho, accumulator):
        loss, q, buffer = self.draw_start(data)
        with np.errstate(all="ignore"):
            floats, zero_dim = (
                self.take(lambda q, g, q_next, _: step_rmsprop(q, g, q_next, accumulator, loss,
                                                               lr, rho), q, buffer)
                for lr in (eta, np.array(eta)))
            expected = rmsprop_step(OptimizerState(q, buffer, accumulator), loss, eta, rho)
        for got, want in zip(zero_dim, floats):
            assert_same_bits(got, want)
        assert_same_bits(zero_dim[1], expected.q)
        assert_same_bits(zero_dim[3], expected.accumulator)


# ---------------------------------------------------------------------------
# the exact discrete balance laws, to round-off
#
# Each check evaluates the law exactly, in rationals, on the floats a run
# produced, so the only error left is the stepper's own rounding.  Its bound
# is derived from the standard model fl(a op b) = (a op b)(1 + d), |d| <= u,
# and |fl(x . y) - x . y| <= dim u sum |x_i y_i| (1 + O(u)) for a dot
# product in any summation order; the factor 1.01 covers the O(u) terms.

def exact(v):
    return [Fraction(x) for x in np.asarray(v, dtype=float).ravel()]


def dot(x, y):
    return sum((a * b for a, b in zip(x, y)), Fraction(0))


def rayleigh_tangency_bound(loss, q):
    """A bound on |<q, g>| for the computed Rayleigh gradient g at q.

    With a = fl(A q), the error terms of fl(q . a), of f = fl(q . a) / fl(|q|^2),
    of fl(f q_i), of a_i - f q_i and of the division by |q|^2 / 2 give
    |sum q_i t_i| <= (2 dim + 6) u |q| |a|, so |<q, g>| <= 2 (2 dim + 6) u |a| / |q|."""
    dim = loss.dim
    a = loss.matrix @ q
    return 2.0 * (2 * dim + 6) * U * np.linalg.norm(a) / np.linalg.norm(q)


def rounding_of_step(w, eta_g):
    """A bound on |e| for the rounding e of q_next = fl(q - fl(eta g)) against
    w = q - eta g: per entry u |eta g_i| (1 + u) + u |w_i|."""
    return U * (1.0 + U) * np.abs(eta_g) + U * np.abs(w)


def gd_history(loss, q0, steps, eta, beta=0.0, weight_decay=0.0):
    """Points, gradient rows and buffers of a library heavy-ball run."""
    buffers = [np.zeros(loss.dim)]
    buffer = np.zeros(loss.dim)

    def step(n, q, g, q_next):
        step_gd_momentum_wd(q, g, q_next, buffer, loss, eta, beta, weight_decay)
        buffers.append(buffer.copy())

    _, record = simulate(step, q0, steps, lambda n, qs, gs: np.concatenate([qs, gs], axis=1),
                         eta, grad=loss.grad)
    return record[:, :loss.dim], record[:, loss.dim:], buffers


def random_rayleigh(data):
    dim = data.draw(strategies.integers(2, 5))
    a = data.draw(arrays(np.float64, (dim, dim), elements=strategies.floats(-10.0, 10.0)))
    q0 = data.draw(arrays(np.float64, dim, elements=strategies.floats(-2.0, 2.0)))
    assume(np.linalg.norm(q0) > 0.1)
    return RayleighQuotient(a + a.T), q0


class TestExactDiscreteLaws:
    @settings(max_examples=60, deadline=None)
    @given(data=strategies.data(), eta=strategies.floats(1e-4, 0.1),
           steps=strategies.integers(1, 40))
    def test_gd_keeps_the_scale_law(self, data, eta, steps):
        """Plain descent on a scale-invariant loss: <q, g> = 0 makes
        |q_{n+1}|^2 = |q_n|^2 + eta^2 |g_n|^2 (Arora, Li & Lyu 2019)."""
        loss, q0 = random_rayleigh(data)
        qs, gs, _ = gd_history(loss, q0, steps, eta)
        for q, g, q_next in zip(qs, gs, qs[1:]):
            residual = (dot(exact(q_next), exact(q_next)) - dot(exact(q), exact(q))
                        - Fraction(eta) ** 2 * dot(exact(g), exact(g)))
            w = q - eta * g
            e = np.linalg.norm(rounding_of_step(w, eta * g))
            bound = (2.0 * eta * rayleigh_tangency_bound(loss, q)
                     + 2.0 * np.linalg.norm(w) * e + e * e)
            assert abs(float(residual)) <= 1.01 * bound

    @settings(max_examples=60, deadline=None)
    @given(data=strategies.data(), eta=strategies.floats(1e-4, 0.05),
           steps=strategies.integers(1, 40))
    def test_gd_moves_the_rescale_balance_by_its_gradient(self, data, eta, steps):
        """Plain descent on a rescale-invariant chain, g = c (q2, q1): the
        balance q1^2 - q2^2 changes by exactly eta^2 (g1^2 - g2^2)."""
        samples = data.draw(arrays(np.float64, (data.draw(strategies.integers(1, 3)), 2),
                                   elements=strategies.floats(-2.0, 2.0)))
        loss = TwoLayerChain(samples[:, 0], samples[:, 1])
        q0 = data.draw(arrays(np.float64, 2, elements=strategies.floats(-2.0, 2.0)))
        with np.errstate(all="ignore"):
            try:
                qs, gs, _ = gd_history(loss, q0, steps, eta)
            except IntegrationError:
                assume(False)
        for q, g, q_next in zip(qs, gs, qs[1:]):
            (q1, q2), (g1, g2), (n1, n2) = exact(q), exact(g), exact(q_next)
            residual = (n1 ** 2 - n2 ** 2) - (q1 ** 2 - q2 ** 2) - Fraction(eta) ** 2 * (
                g1 ** 2 - g2 ** 2)
            # g_i = fl(c q_j): q1 g1 - q2 g2 = c q1 q2 (d1 - d2), |.| <= 2 u |c q1 q2|
            w = q - eta * g
            e = rounding_of_step(w, eta * g)
            bound = (4.0 * U * eta * max(abs(q[0] * g[0]), abs(q[1] * g[1])) * (1.0 + U)
                     + 2.0 * float(np.abs(w) @ e) + float(e @ e))
            assert abs(float(residual)) <= 1.01 * bound

    @settings(max_examples=60, deadline=None)
    @given(data=strategies.data(), eta=strategies.floats(1e-3, 0.1),
           beta=strategies.floats(0.0, 0.99), k=strategies.floats(1e-4, 0.1),
           steps=strategies.integers(2, 40))
    def test_heavy_ball_with_decay_follows_the_charge_recursion(self, data, eta, beta, k, steps):
        """Heavy ball with weight decay k on a scale-invariant loss, buffer b
        and c_n = <q_n, b_{n+1}> (Kunin et al. 2021):

            c_n      = beta (c_{n-1} + |b_n|^2) - eta k |q_n|^2
            r_{n+1}^2 = r_n^2 + 2 c_n + |b_{n+1}|^2
        """
        loss, q0 = random_rayleigh(data)
        qs, gs, bs = gd_history(loss, q0, steps, eta, beta, k)
        for n in range(1, steps):
            q, g, b, b_next, q_next = qs[n], gs[n], bs[n], bs[n + 1], qs[n + 1]
            xq, xb, xb_next = exact(q), exact(b), exact(b_next)
            c_prev = dot(exact(qs[n - 1]), xb)
            c = dot(xq, xb_next)
            residual = c - Fraction(beta) * (c_prev + dot(xb, xb)) + Fraction(eta) * Fraction(
                k) * dot(xq, xq)
            # q_n = fl(q_{n-1} + b_n) is off by at most u |q_n|: beta u |q_n| |b_n|;
            # b_{n+1} = fl(fl(beta b) - fl(eta fl(g + fl(k q)))) puts at most four
            # roundings on each term, against q_n; and eta <q_n, g_n> is tangency
            norm_q = np.linalg.norm(q)
            four = 4.0 * U * (1.0 + 4.0 * U)
            bound = (beta * U * norm_q * np.linalg.norm(b)
                     + eta * rayleigh_tangency_bound(loss, q)
                     + four * norm_q * (beta * np.linalg.norm(b) + eta * np.linalg.norm(g)
                                        + 2.0 * eta * k * norm_q))
            assert abs(float(residual)) <= 1.01 * bound
            # q_{n+1} = fl(q_n + b_{n+1}): |q_{n+1}|^2 = |q_n + b_{n+1}|^2 to 2u + u^2
            moved = (dot(exact(q_next), exact(q_next)) - dot(xq, xq) - 2 * c
                     - dot(xb_next, xb_next))
            assert abs(float(moved)) <= 1.01 * (2.0 * U + U * U) * np.linalg.norm(q + b_next) ** 2


# ---------------------------------------------------------------------------
# simulate

class TestSimulate:
    def test_records_initial_state_and_every_step(self):
        loss = Quadratic(np.eye(2))
        q0 = np.array([1.0, -2.0])
        _, qs = run_gd(loss, q0, 4, 0.1)
        assert qs.shape == (5, 2)
        np.testing.assert_array_equal(qs[0], q0)
        np.testing.assert_allclose(qs[-1], q0 * 0.9 ** 4, rtol=1e-15)

    def test_zero_steps_records_only_the_initial_state(self):
        seen = []

        def observe(n, qs, gs):
            seen.append((n, qs.copy()))
            return qs.copy()

        _, qs = simulate(lambda *rows: pytest.fail("step must not run"), [3.0], 0, observe, 1.0)
        assert len(seen) == 1 and seen[0][0] == 0
        np.testing.assert_array_equal(qs, [[3.0]])

    def test_tuple_observation_gives_one_column_per_element(self):
        loss = Quadratic(np.diag([1.0, 3.0]))
        _, record = rmsprop_run(loss, [1.0, 1.0], 6, 0.01, 0.9, 2.0)
        state = OptimizerState.initial([1.0, 1.0], 2.0)
        for _ in range(6):
            state = rmsprop_step(state, loss, 0.01, 0.9)
        g = loss.grad(state.q)
        assert record.shape == (7, 2)
        assert record[0].tolist() == [10.0, 2.0]
        assert record[-1].tolist() == [g @ g, state.accumulator]

    def test_diverging_run_aborts_at_its_first_non_finite_step(self):
        # q_n = (-2)^n, so |q_n|^2 = 4^n first overflows at n = 512, at t = 512 * 3
        loss = Quadratic(np.eye(1))
        with pytest.raises(IntegrationError, match=r"after step 512 \(t=1536\)$") as caught, \
                np.errstate(over="ignore"):
            run_gd(loss, [1.0], 600, 3.0, observe=squared_norms)
        assert caught.value.time == 1536.0

    @pytest.mark.parametrize("block, last_step", [(1024, 1023), (100, 599), (513, 512),
                                                  (512, 1023), (1, 512)])
    def test_no_step_runs_past_the_block_of_the_first_non_finite_step(self, block, last_step):
        """|q_n|^2 first overflows at step 512; the run stops at the end of the
        block that holds it, with the same step and time in its message."""
        loss = Quadratic(np.eye(1))
        taken = []
        buffer = np.zeros(1)

        def step(n, q, g, q_next):
            taken.append(n)
            step_gd_momentum_wd(q, g, q_next, buffer, loss, 3.0)

        with mock.patch.object(discrete, "BLOCK", block), np.errstate(over="ignore"), \
                pytest.raises(IntegrationError, match=r"after step 512 \(t=1536\)$"):
            simulate(step, [1.0], 10 ** 6, squared_norms, 3.0)
        assert taken == list(range(last_step + 1))

    @pytest.mark.parametrize("block", [1, 2, 3, 4, 1024])
    def test_the_last_gradient_is_taken_only_for_a_run_that_records_gradients(self, block):
        """A run that ends at the origin, the Rayleigh quotient's singular
        point, records it unless the run asks for the gradient there."""
        loss = RayleighQuotient(np.diag([1.0, 2.0]))

        def step(n, q, g, q_next):  # one GD step, then straight to the origin
            loss.grad(q, out=g)
            np.multiply(q, 0.0 if n == 2 else 0.5, q_next)

        with mock.patch.object(discrete, "BLOCK", block):
            _, record = simulate(step, [1.0, 1.0], 3, squared_norms, 1.0)
            assert record.tolist() == [2.0, 0.5, 0.125, 0.0]
            _, record = simulate(step, [1.0, 1.0], 2, lambda n, qs, gs: gs.copy(), 1.0,
                                 grad=loss.grad)
            assert_same_bits(record, np.array([loss.grad(np.array([x, x]))
                                               for x in (1.0, 0.5, 0.25)]))
            with pytest.raises(SingularLossError):
                simulate(step, [1.0, 1.0], 3, squared_norms, 1.0, grad=loss.grad)

    @pytest.mark.parametrize("block", [1, 3, 1024])
    def test_without_grad_the_last_gradient_row_is_nan(self, block):
        rows = []

        def observe(n, qs, gs):
            rows.extend(gs[:, 0].tolist())
            return qs.copy()

        with mock.patch.object(discrete, "BLOCK", block):
            run_gd(Quadratic(np.eye(1)), [1.0], 4, 0.1, observe=observe)
        assert rows[:4] == [1.0, 0.9, 0.81, 0.9 * 0.81]
        assert math.isnan(rows[4])

    @settings(max_examples=50, deadline=None)
    @given(q0=strategies.lists(strategies.floats(-10.0, 10.0), min_size=3, max_size=3),
           eta=strategies.floats(1e-4, 0.5),
           steps=strategies.integers(0, 60), block=strategies.integers(1, 70))
    def test_bit_identical_to_hand_rolled_loop(self, q0, eta, steps, block):
        loss = Quadratic(np.diag([1.0, 2.0, 3.0]))
        state = OptimizerState.initial(q0)
        expected = np.empty(steps + 1)
        expected[0] = state.q @ state.q
        for n in range(steps):
            state = gd_momentum_wd_step(state, loss, eta, beta=0.5, weight_decay=1e-3)
            expected[n + 1] = state.q @ state.q
        with mock.patch.object(discrete, "BLOCK", block):
            _, record = run_gd(loss, q0, steps, eta, 0.5, 1e-3, observe=squared_norms)
            _, qs = run_gd(loss, q0, steps, eta, 0.5, 1e-3)
        assert record.tobytes() == expected.tobytes()
        assert qs[-1].tobytes() == state.q.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(dt=strategies.floats(1e-6, 1e3), steps=strategies.integers(0, 60),
           block=strategies.integers(1, 70), data=strategies.data())
    def test_times_are_the_step_grid_and_an_abort_names_its_row(self, dt, steps, block, data):
        """times is dt * np.arange(steps + 1) bit for bit, and a run whose
        record first stops being finite at row n aborts at times[n]."""
        loss = Quadratic(np.zeros((1, 1)))
        with mock.patch.object(discrete, "BLOCK", block):
            buffer = np.zeros(1)
            step = lambda n, q, g, q_next: step_gd_momentum_wd(  # noqa: E731
                q, g, q_next, buffer, loss, 0.1)
            times, _ = simulate(step, [1.0], steps, points, dt)
            assert times.tobytes() == (dt * np.arange(steps + 1)).tobytes()
            n = data.draw(strategies.integers(0, steps))
            with pytest.raises(IntegrationError) as caught:
                simulate(step, [1.0], steps,
                         lambda lo, qs, gs: np.where(np.arange(lo, lo + len(qs)) >= n,
                                                     np.nan, 1.0), dt)
        assert caught.value.time == times[n]


def test_centered_velocity_export():
    qs = np.array([[0.0], [0.1], [0.4], [0.9]])
    v = centered_velocities(qs, 0.1)
    np.testing.assert_allclose(v[:, 0], [2.0, 4.0])
    with pytest.raises(ValueError):
        centered_velocities(qs[:2], 0.1)
