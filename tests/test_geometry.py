"""Metric, divergence, kinetic-energy, and schedule contracts."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies
from hypothesis.extra.numpy import arrays
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
from oracles import assert_same_bits, fd_gradient, fd_hessian, lagrangian


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

    def test_entropy_rejects_nan_coordinate(self):
        with pytest.raises(DomainError, match="nan"):
            NegativeEntropy(2).check_domain(np.array([1.0, np.nan]))

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), dim=strategies.integers(1, 4),
           bad=strategies.floats(max_value=1e-12) | strategies.just(np.nan))
    def test_entropy_domain_enforced_by_every_method(self, data, dim, bad):
        """A point with one coordinate at or below the 1e-12 floor (zero, a
        negative number or NaN) is rejected by every method and by the
        divergence with the point as either argument."""
        ne = NegativeEntropy(dim)
        coords = strategies.lists(strategies.floats(0.3, 2.0), min_size=dim, max_size=dim)
        good = np.array(data.draw(coords))
        x = good.copy()
        x[data.draw(strategies.integers(0, dim - 1))] = bad
        for call in (lambda: ne.value(x), lambda: ne.grad(x), lambda: ne.hessian(x),
                     lambda: ne.hessian_solve(x, good),
                     lambda: bregman_divergence(ne, x, good),
                     lambda: bregman_divergence(ne, good, x)):
            with pytest.raises(DomainError):
                call()


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

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), n=strategies.integers(1, 6), d=strategies.sampled_from([2, 3]),
           family=strategies.sampled_from(["euclidean", "quadratic-form", "negative-entropy"]))
    def test_stack_gives_each_point_its_own_bits(self, data, n, d, family):
        """grad, hessian and hessian_solve of an (n, d) stack equal the n
        one-point calls bit for bit, on a column slice (the layout of a
        trajectory) and on a contiguous stack."""
        if family == "euclidean":
            metric = Euclidean(d)
        elif family == "quadratic-form":
            b = np.random.default_rng(d).standard_normal((d, d))
            metric = QuadraticForm(b @ b.T + np.eye(d))
        else:
            metric = NegativeEntropy(d)
        low = 1e-3 if family == "negative-entropy" else -1e3
        rows = data.draw(arrays(np.float64, (n, 2 * d), elements=strategies.floats(low, 1e3)))
        for x in (rows[:, :d], np.ascontiguousarray(rows[:, d:])):
            for method in (metric.grad, metric.hessian, lambda p: metric.hessian_solve(p, p)):
                assert_same_bits(method(x), np.array([method(point) for point in x]))

    def test_quadratic_form_must_be_spd(self):
        with pytest.raises(ValueError):
            QuadraticForm(np.array([[1.0, 2.0], [2.0, 1.0]]))  # indefinite
        with pytest.raises(ValueError):
            QuadraticForm(np.array([[1.0, 0.5], [0.0, 1.0]]))  # asymmetric


def spd_metric(d):
    b = np.random.default_rng(d).standard_normal((d, d))
    return QuadraticForm(b @ b.T + np.eye(d))


# one metric of a family per dim; the elementwise contract covers the
# families whose class declares it
FAMILIES = [Euclidean, spd_metric, NegativeEntropy]
ELEMENTWISE = [family for family in FAMILIES if family(2).elementwise]


class TestElementwiseContract:
    def test_negative_entropy_is_the_non_flat_elementwise_metric(self):
        assert [family(2).name for family in ELEMENTWISE if not family(2).flat] == [
            "negative-entropy"]

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(ELEMENTWISE),
           dims=strategies.tuples(strategies.integers(1, 4), strategies.integers(1, 4)),
           lead=strategies.sampled_from([(), (2,), (2, 3)]))
    def test_a_joined_stack_gives_each_part_its_own_bits(self, data, family, dims, lead):
        """Stacks of two dims joined on the last axis: grad and
        hessian_solve of the joined stack, by either part's metric, as a
        whole array or as a column slice of a wider one (the lockstep
        kernel's layout), are the concatenation of each part's own call."""
        metrics = [family(d) for d in dims]
        points = [data.draw(arrays(np.float64, lead + (d,), elements=strategies.floats(1e-3, 1e3)))
                  for d in dims]
        drives = [data.draw(arrays(np.float64, lead + (d,), elements=strategies.floats(-1e3, 1e3)))
                  for d in dims]
        n = sum(dims)
        wide = np.zeros(lead + (n + 3,))
        wide[..., 1:n + 1] = np.concatenate(points, axis=-1)
        grads = np.concatenate([m.grad(x) for m, x in zip(metrics, points)], axis=-1)
        solves = np.concatenate([m.hessian_solve(x, v)
                                 for m, x, v in zip(metrics, points, drives)], axis=-1)
        for joined in (wide[..., 1:n + 1].copy(), wide[..., 1:n + 1]):
            for metric in metrics:
                assert_same_bits(metric.grad(joined), grads)
                assert_same_bits(metric.hessian_solve(joined, np.concatenate(drives, axis=-1)),
                                 solves)

    @settings(max_examples=300, deadline=None)
    @given(data=strategies.data(),
           dims=strategies.tuples(strategies.integers(1, 4), strategies.integers(1, 4)),
           lead=strategies.sampled_from([(), (2,), (2, 3)]))
    def test_a_joined_entropy_stack_leaves_the_domain_iff_a_part_does(self, data, dims, lead):
        """Entries at, just above and below the 1e-12 floor, NaN and inf:
        the joined stack's grad and hessian_solve raise DomainError if and
        only if an entry of a part is at or below the floor, or NaN, which
        is when that part's own calls raise."""
        entries = strategies.one_of(
            strategies.floats(1e-3, 1e3), strategies.floats(max_value=1e-12),
            strategies.sampled_from([1e-12, np.nextafter(1e-12, 1.0), 0.0, -0.0, np.nan,
                                     np.inf, -np.inf]))
        metrics = [NegativeEntropy(d) for d in dims]
        points = [data.draw(arrays(np.float64, lead + (d,), elements=entries)) for d in dims]
        joined = np.concatenate(points, axis=-1)

        def raises(call):
            try:
                call()
            except DomainError:
                return True
            return False

        outside = [not (x > 1e-12).all() for x in points]
        for metric, x, out in zip(metrics, points, outside):
            assert raises(lambda: metric.grad(x)) == out
        for metric in metrics:
            assert raises(lambda: metric.grad(joined)) == any(outside)
            assert raises(lambda: metric.hessian_solve(joined, np.ones_like(joined))) == (
                any(outside))


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
        # heavy ball: mass eta (1 + b) / 2, friction 1 - b
        eta, b = 0.1, 0.5
        s = natural_schedule(eta * (1 + b) / 2, 1 - b)
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
        natural_schedule(0.1 * (1 + 0.0) / 2, 1 - 0.0),  # heavy ball, eta 0.1, beta 0
        natural_schedule(0.01 * (1 + 0.9) / 2, 1 - 0.9),  # heavy ball, eta 0.01, beta 0.9
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
        val = lagrangian(Euclidean(1), natural_schedule(0.05, 1.0), loss,  # heavy ball, eta 0.1
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
        val = lagrangian(Euclidean(1), natural_schedule(0.05, 1.0), loss,  # heavy ball, eta 0.1
                         np.zeros(1), np.array([1.0]), 0.0)
        assert val == pytest.approx(0.025)

    def test_nesterov_requires_positive_time(self):
        loss = Quadratic(np.eye(1))
        with pytest.raises(DomainError):
            lagrangian(Euclidean(1), nesterov_schedule(), loss,
                       np.array([1.0]), np.array([0.0]), 0.0)
