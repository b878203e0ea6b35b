"""Metric, divergence, kinetic-energy, and schedule contracts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies
from scipy.linalg import cho_factor, cho_solve

from noetherdyn import (
    DomainError,
    Euclidean,
    NegativeEntropy,
    Quadratic,
    QuadraticForm,
    bregman_divergence,
    kinetic_energy,
    natural_schedule,
    nesterov_schedule,
)
from noetherdyn.symmetry import fd_scalar_derivative
from oracles import fd_gradient, fd_hessian, lagrangian, sgdm_schedule


def metrics_under_test():
    return [
        Euclidean(3),
        QuadraticForm(np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]])),
        NegativeEntropy(3),
    ]


def sample_point(metric, rng):
    if metric.name == "negative-entropy":
        return rng.uniform(0.3, 2.0, size=metric.dim)
    return rng.standard_normal(metric.dim)


class TestBregmanDivergence:
    def test_euclidean_unit_offset(self):
        e = Euclidean(2)
        assert bregman_divergence(e, np.array([1.0, 0.0]), np.zeros(2)) == pytest.approx(0.5)

    def test_identity_is_zero(self):
        for metric in metrics_under_test():
            x = np.full(metric.dim, 0.7)
            assert bregman_divergence(metric, x, x) == 0.0

    def test_negative_entropy_hand_value(self):
        # h(e) = e, h(1) = 0, grad h(1) = 1  =>  D = e - 0 - (e - 1) = 1
        ne = NegativeEntropy(1)
        assert bregman_divergence(ne, np.array([np.e]), np.array([1.0])) == pytest.approx(1.0)

    def test_euclidean_reduces_to_squared_distance(self):
        rng = np.random.default_rng(0)
        e = Euclidean(4)
        for _ in range(50):
            x, y = rng.standard_normal(4), rng.standard_normal(4)
            d = bregman_divergence(e, y, x)
            assert abs(d - 0.5 * np.sum((x - y) ** 2)) <= 1e-12

    @settings(max_examples=300, deadline=None)
    @given(data=strategies.data(), which=strategies.integers(0, 2))
    def test_positivity_on_random_pairs(self, data, which):
        metric = metrics_under_test()[which]
        low, high = (0.3, 2.0) if metric.name == "negative-entropy" else (-3.0, 3.0)
        coords = strategies.lists(strategies.floats(low, high), min_size=metric.dim,
                                  max_size=metric.dim)
        x = np.array(data.draw(coords))
        y = np.array(data.draw(coords))
        assume(not np.allclose(x, y))
        assert bregman_divergence(metric, y, x) > 0.0

    def test_entropy_domain_error(self):
        ne = NegativeEntropy(2)
        with pytest.raises(DomainError):
            bregman_divergence(ne, np.array([1.0, -0.5]), np.array([1.0, 1.0]))
        with pytest.raises(DomainError):
            ne.value(np.array([1.0, 0.0]))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            bregman_divergence(Euclidean(2), np.ones(3), np.ones(3))

    def test_entropy_rejects_nan_coordinate(self):
        with pytest.raises(DomainError, match="nan"):
            NegativeEntropy(2).check_domain(np.array([1.0, np.nan]))


class TestMetricDerivatives:
    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for metric in metrics_under_test():
            for _ in range(10):
                x = sample_point(metric, rng)
                g = metric.grad(x)
                g_fd = fd_gradient(metric.value, x)
                np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-8)

    def test_hessian_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for metric in metrics_under_test():
            for _ in range(5):
                x = sample_point(metric, rng)
                h = metric.hessian(x)
                h_fd = fd_hessian(metric.value, x)
                np.testing.assert_allclose(h, h_fd, rtol=1e-6, atol=1e-6)

    def test_hessian_solve(self):
        rng = np.random.default_rng(5)
        for metric in metrics_under_test():
            x = sample_point(metric, rng)
            v = rng.standard_normal(metric.dim)
            np.testing.assert_allclose(metric.hessian(x) @ metric.hessian_solve(x, v), v,
                                       rtol=1e-10, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), n=strategies.integers(2, 4))
    def test_quadratic_form_solve_is_cho_solve_bit_for_bit(self, data, n):
        """The direct LAPACK solve returns exactly what scipy's cho_solve does."""
        entries = data.draw(strategies.lists(strategies.floats(-2.0, 2.0),
                                             min_size=n * n, max_size=n * n))
        b = np.array(entries).reshape(n, n)
        a = b @ b.T + 0.1 * np.eye(n)
        a = a + a.T  # exactly symmetric
        v = np.array(data.draw(strategies.lists(strategies.floats(-1e3, 1e3),
                                                min_size=n, max_size=n)))
        solved = QuadraticForm(a).hessian_solve(np.zeros(n), v)
        assert np.array_equal(solved, cho_solve(cho_factor(a), v))

    def test_quadratic_form_must_be_spd(self):
        with pytest.raises(ValueError):
            QuadraticForm(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(ValueError):
            QuadraticForm(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


class TestKineticEnergy:
    def test_euclidean_value(self):
        e = Euclidean(2)
        ke = kinetic_energy(e, np.zeros(2), np.array([2.0, 0.0]), 0.0)
        assert ke == pytest.approx(2.0)

    def test_zero_velocity(self):
        for metric in metrics_under_test():
            q = np.full(metric.dim, 0.8)
            assert kinetic_energy(metric, q, np.zeros(metric.dim), 0.3) == 0.0

    def test_quadratic_form_hand_value(self):
        qf = QuadraticForm(np.diag([2.0, 2.0]))
        ke = kinetic_energy(qf, np.zeros(2), np.array([1.0, 0.0]), 0.0)
        assert ke == pytest.approx(1.0)

    def test_euclidean_alpha_scaling(self):
        e = Euclidean(2)
        rng = np.random.default_rng(6)
        q, qd = rng.standard_normal(2), rng.standard_normal(2)
        for alpha in (-1.0, 0.0, 0.5):
            ke = kinetic_energy(e, q, qd, alpha)
            assert ke == pytest.approx(0.5 * np.exp(-alpha) * qd @ qd)


class TestSchedules:
    def test_natural_preset_values(self):
        s = natural_schedule(2.0, 0.5)
        assert s.alpha(3.0) == pytest.approx(-np.log(2.0))
        assert s.beta(3.0) == pytest.approx(np.log(2.0))
        assert s.gamma(3.0) == pytest.approx(0.25 * 3.0)

    def test_sgdm_preset_values(self):
        eta, b = 0.1, 0.5
        s = sgdm_schedule(eta, b)
        m = eta * (1 + b) / 2
        assert s.alpha(1.0) == pytest.approx(-np.log(m))
        assert s.beta(1.0) == pytest.approx(np.log(m))
        assert s.gamma(2.0) == pytest.approx(2 * (1 - b) * 2.0 / (eta * (1 + b)))

    def test_nesterov_preset_values(self):
        s = nesterov_schedule(2.0, 0.25)
        t = 3.0
        assert s.alpha(t) == pytest.approx(np.log(2.0) - np.log(t))
        assert s.beta(t) == pytest.approx(2.0 * np.log(t) + np.log(0.25))
        assert s.gamma(t) == pytest.approx(2.0 * np.log(t))

    def test_nesterov_singular_at_zero(self):
        s = nesterov_schedule()
        with pytest.raises(DomainError):
            s.alpha(0.0)
        with pytest.raises(DomainError):
            s.gamma(-1.0)

    @pytest.mark.parametrize("schedule", [
        natural_schedule(1.0, 1.0),
        natural_schedule(0.2, 0.7),
        sgdm_schedule(0.1, 0.0),
        sgdm_schedule(0.01, 0.9),
        nesterov_schedule(2.0, 0.25),
        nesterov_schedule(3.0, 0.1),
    ])
    def test_derivatives_match_finite_differences(self, schedule):
        for t in (0.5, 1.0, 2.5):
            g_fd = fd_scalar_derivative(schedule.gamma, t)
            a_fd = fd_scalar_derivative(schedule.alpha, t)
            assert abs(schedule.gamma_dot(t) - g_fd) <= 1e-6 * max(1.0, abs(g_fd))
            assert abs(schedule.alpha_dot(t) - a_fd) <= 1e-6 * max(1.0, abs(a_fd))


class TestLagrangian:
    def test_sgdm_zero_state(self):
        loss = Quadratic(np.zeros((1, 1)))
        val = lagrangian(Euclidean(1), sgdm_schedule(0.1, 0.0), loss,
                         np.zeros(1), np.zeros(1), 0.0)
        assert val == 0.0

    def test_natural_balanced_state(self):
        # kinetic |qdot|^2/2 exactly cancels the potential at this state
        loss = Quadratic(np.eye(1))
        val = lagrangian(Euclidean(1), natural_schedule(1.0, 0.0), loss,
                         np.array([1.0]), np.array([1.0]), 7.0)
        assert val == pytest.approx(0.0, abs=1e-15)

    def test_sgdm_kinetic_only_value(self):
        # e^(alpha+gamma) D_h at t=0: (2/eta) * (eta/2)^2/2 = eta/8 per unit |qdot|^2... fixed 0.025
        loss = Quadratic(np.zeros((1, 1)))
        val = lagrangian(Euclidean(1), sgdm_schedule(0.1, 0.0), loss,
                         np.zeros(1), np.array([1.0]), 0.0)
        assert val == pytest.approx(0.025)

    def test_nesterov_requires_positive_time(self):
        loss = Quadratic(np.eye(1))
        with pytest.raises(DomainError):
            lagrangian(Euclidean(1), nesterov_schedule(), loss,
                       np.array([1.0]), np.array([0.0]), 0.0)
