"""Exact schedules, steady-state formulas, and the kernel identification."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from noetherdyn import (
    bn_rmsprop_map,
    g_schedule,
    r2_schedule,
    steady_angular_speed,
    steady_radius,
)
from noetherdyn.closedform import SCHEDULE_CHUNK, exp_kernel_schedule
from oracles import (assert_same_bits, constant_history, exp_kernel_quadrature,
                     exp_kernel_recurrence, solve_bernoulli_check)


def wiggly_history(t1=50.0, dt=0.01, floor=0.2):
    times = dt * np.arange(int(round(t1 / dt)) + 1)
    return 1.0 + 0.5 * np.sin(0.7 * times) + floor * np.cos(2.3 * times) ** 2


class TestExpKernelSchedule:
    @settings(max_examples=100, deadline=None)
    @given(gsq=strategies.lists(strategies.floats(0.0, 1e3), min_size=2, max_size=200),
           dt=strategies.floats(1e-3, 0.1), rate=strategies.floats(0.0, 20.0),
           prefactor=strategies.floats(1e-3, 1e3), initial=strategies.floats(1e-3, 1e3))
    def test_recursion_matches_direct_quadrature(self, gsq, dt, rate, prefactor, initial):
        """The recursion that carries the exact kernel between samples is the
        trapezoid rule summed afresh at every sample.  rate * t1 < 400 keeps
        the memory term above 1e-177, far from underflow."""
        gsq = np.array(gsq)
        np.testing.assert_allclose(exp_kernel_schedule(gsq, dt, rate, prefactor, initial),
                                   exp_kernel_quadrature(gsq, dt, rate, prefactor, initial),
                                   rtol=1e-12, atol=0.0)

    @settings(max_examples=60, deadline=None)
    @given(chunks=strategies.integers(0, 2), offset=strategies.integers(-2, 2),
           seed=strategies.integers(0, 2 ** 32 - 1), dt=strategies.floats(1e-4, 0.1),
           rate=strategies.floats(0.0, 20.0), prefactor=strategies.floats(1e-3, 1e3),
           initial=strategies.floats(1e-3, 1e3))
    def test_chunked_recursion_matches_per_sample_recursion(self, chunks, offset, seed, dt,
                                                            rate, prefactor, initial):
        """Bit for bit, on records that end at, just before and just after
        the chunk boundaries of the Python-float recursion."""
        size = max(1, chunks * SCHEDULE_CHUNK + offset)
        gsq = np.random.default_rng(seed).exponential(size=size)
        assert_same_bits(exp_kernel_schedule(gsq, dt, rate, prefactor, initial),
                         exp_kernel_recurrence(gsq, dt, rate, prefactor, initial))


class TestR2Schedule:
    def test_initial_condition_exact(self):
        out = r2_schedule(wiggly_history(), 0.01, 0.01, 0.9, 1e-4, 1.7)
        assert out[0] == 1.7 ** 2

    def test_pure_memory_decay(self):
        gsq, dt = constant_history(0.0, 100.0, 0.05), 0.05
        eta, beta, k, r0 = 0.01, 0.5, 1e-3, 2.0
        out = r2_schedule(gsq, dt, eta, beta, k, r0)
        times = dt * np.arange(gsq.size)
        expected = np.exp(-2.0 * k * times / (1.0 - beta)) * r0 ** 2
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_no_decay_accumulates_without_bound(self):
        # k = 0: every gradient accumulates, sqrt-of-linear growth
        c = 0.8
        gsq, dt = constant_history(c, 100.0, 0.01), 0.01
        eta, beta, r0 = 0.01, 0.9, 1.2
        out = r2_schedule(gsq, dt, eta, beta, 0.0, r0)
        prefactor = 2.0 * eta * (1.0 + beta) / (1.0 - beta) ** 3
        expected = np.sqrt(prefactor * c * dt * np.arange(gsq.size) + r0 ** 4)
        np.testing.assert_allclose(out, expected, rtol=1e-6)
        assert np.all(np.diff(out) > 0)

    def test_strict_positivity(self):
        out = r2_schedule(wiggly_history(floor=0.0), 0.01, 0.02, 0.0, 0.05, 0.3)
        assert np.all(out > 0)

    def test_monotone_memory_without_drive(self):
        out = r2_schedule(constant_history(0.0, 10.0, 0.01), 0.01, 0.01, 0.0, 0.01, 1.0)
        assert np.all(np.diff(out) < 0)

    def test_quadrature_is_second_order(self):
        eta, beta, k, r0 = 0.01, 0.5, 0.02, 1.0
        t1 = 20.0
        vals = []
        for dt in (0.1, 0.05, 0.025):
            n = int(round(t1 / dt))
            times = dt * np.arange(n + 1)
            gsq = 1.0 + 0.5 * np.sin(0.7 * times)
            vals.append(r2_schedule(gsq, dt, eta, beta, k, r0)[-1])
        ratio = (vals[0] - vals[1]) / (vals[1] - vals[2])
        assert 3.0 <= ratio <= 5.0


class TestGSchedule:
    def test_fixed_point_history(self):
        g0 = 2.5
        out = g_schedule(constant_history(g0, 10.0, 0.01), 0.01, 0.01, 0.99, g0)
        np.testing.assert_allclose(out, np.sqrt(g0), rtol=1e-4)

    def test_pure_decay(self):
        gsq, dt = constant_history(0.0, 10.0, 0.01), 0.01
        eta, rho, g0 = 0.01, 0.99, 4.0
        out = g_schedule(gsq, dt, eta, rho, g0)
        times = dt * np.arange(gsq.size)
        expected = np.exp(-(1.0 - rho) * times / (2.0 * eta)) * 2.0
        np.testing.assert_allclose(out, expected, rtol=1e-12)

    def test_frozen_memory_limit(self):
        # rho -> 1: the kernel weight vanishes and the memory never updates
        out = g_schedule(wiggly_history(t1=10.0), 0.01, 0.01, 1.0, 9.0)
        np.testing.assert_allclose(out, 3.0, rtol=1e-12)

    def test_strict_positivity(self):
        assert np.all(g_schedule(wiggly_history(floor=0.0), 0.01, 0.05, 0.9, 0.01) > 0)


class TestSteadyFormulas:
    def test_angular_speed_reference_value(self):
        assert steady_angular_speed(0.01, 0.9, 1e-4) == pytest.approx(1.0259783520851543e-3)

    def test_angular_speed_no_momentum_substitution(self):
        # beta = 0: per-step displacement eta sqrt(k / m) with m = eta/2
        eta, k = 0.02, 1e-3
        assert steady_angular_speed(eta, 0.0, k) == pytest.approx(
            eta * math.sqrt(k / (eta / 2.0)))

    def test_steady_radius_reference_value(self):
        assert steady_radius(0.01, 0.0, 1e-4, 1.0) == pytest.approx(50.0 ** 0.25)

    def test_steady_radius_is_infinite_where_its_denominator_underflows(self):
        # 2 k (1-beta)^2 = 2 * 5e-324 * 0.01 rounds to 0
        assert steady_radius(0.3, 0.9, 5e-324, 1.0) == math.inf


class TestKernelMap:
    def test_rate_identity(self):
        eta, beta, k = 0.01, 0.9, 1e-4
        m = bn_rmsprop_map(eta, beta, k)
        assert (1.0 - m.rho) / eta == pytest.approx(4.0 * k / (1.0 - beta))

    def test_zero_decay_maps_to_frozen_rho(self):
        m = bn_rmsprop_map(0.01, 0.9, 0.0)
        assert m.rho == 1.0
        assert math.isinf(m.prefactor_ratio)

    def test_prefactor_ratio_value(self):
        eta, beta, k = 0.01, 0.9, 1e-4
        m = bn_rmsprop_map(eta, beta, k)
        expected = eta * (1.0 + beta) / (2.0 * k * (1.0 - beta) ** 2)
        assert m.prefactor_ratio == pytest.approx(expected)

    @settings(max_examples=100, deadline=None)
    @given(beta=strategies.floats(0.0, 0.95), u=strategies.floats(0.05, 0.99),
           r0=strategies.floats(0.5, 2.0),
           amps=strategies.tuples(strategies.floats(0.0, 0.45), strategies.floats(0.0, 0.45)),
           freqs=strategies.tuples(strategies.floats(0.1, 5.0), strategies.floats(0.1, 5.0)),
           phase=strategies.floats(0.0, 2.0 * math.pi))
    def test_matched_kernels_make_identical_schedules(self, beta, u, r0, amps, freqs, phase):
        """When the prefactor constraint holds, the two closed forms are the
        same function of the history, pointwise.  eta is drawn as the
        fraction u of the largest step that keeps rho = 1 - u^2 in (0, 1)."""
        eta = u * math.sqrt((1.0 - beta) ** 3 / (2.0 * (1.0 + beta)))
        k = eta * (1.0 + beta) / (2.0 * (1.0 - beta) ** 2)
        m = bn_rmsprop_map(eta, beta, k)
        assert 0.0 < m.rho < 1.0
        assert m.prefactor_ratio == pytest.approx(1.0, abs=1e-12)
        times = 0.01 * np.arange(501)
        gsq = (1.0 + amps[0] * np.sin(freqs[0] * times + phase)
               + amps[1] * np.cos(freqs[1] * times))
        a = r2_schedule(gsq, 0.01, eta, beta, k, r0)
        b = g_schedule(gsq, 0.01, eta, m.rho, r0 ** 4)
        np.testing.assert_allclose(a, b, rtol=1e-10)


class TestBernoulliCheck:
    def test_initial_value(self):
        times = np.linspace(0.0, 10.0, 1001)
        out = solve_bernoulli_check(0.005, 1.0, 1e-4, 1.0, 1.3, times)
        assert out[0] == pytest.approx(1.3 ** 2)

    def test_long_time_limit_matches_steady_radius(self):
        # horizon of 20 kernel time constants; grid fine enough for the
        # internal 1e-8 quadrature cross-check
        m, mu, k, gsq = 0.005, 1.0, 0.01, 1.0
        times = np.linspace(0.0, 500.0, 100_001)
        out = solve_bernoulli_check(m, mu, k, gsq, 1.0, times)
        beta = 1.0 - mu
        eta = 2.0 * m / (1.0 + beta)
        r_star = steady_radius(eta, beta, k, math.sqrt(gsq))
        assert out[-1] == pytest.approx(r_star ** 2, rel=1e-6)

    def test_agrees_with_quadrature_schedule(self):
        # the cross-check against r2_schedule runs inside the call
        times = np.linspace(0.0, 100.0, 10001)
        solve_bernoulli_check(0.005, 1.0, 1e-4, 1.0, 2.0 ** 0.5, times)

    def test_no_decay_linear_limit(self):
        m, mu, gsq, r0 = 0.01, 1.0, 2.0, 1.0
        times = np.linspace(0.0, 10.0, 2001)
        out = solve_bernoulli_check(m, mu, 0.0, gsq, r0, times)
        np.testing.assert_allclose(out, np.sqrt(4 * m * gsq * times + 1.0), rtol=1e-12)
