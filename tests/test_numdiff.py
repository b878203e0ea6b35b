"""Finite-difference helpers: accuracy and convergence order."""

import numpy as np
import pytest

from noetherdyn.symmetry import fd_scalar_derivative, time_derivative
from oracles import fd_gradient, fd_hessian


def test_gradient_of_smooth_function():
    def f(x):
        return float(np.sin(x[0]) * np.exp(x[1]))

    x = np.array([0.7, -0.3])
    expected = np.array([np.cos(0.7) * np.exp(-0.3), np.sin(0.7) * np.exp(-0.3)])
    np.testing.assert_allclose(fd_gradient(f, x), expected, rtol=1e-9)


def test_hessian_of_smooth_function():
    def f(x):
        return float(x[0] ** 2 * x[1] + np.cos(x[1]))

    x = np.array([1.2, 0.4])
    expected = np.array([[2 * 0.4, 2 * 1.2], [2 * 1.2, -np.cos(0.4)]])
    np.testing.assert_allclose(fd_hessian(f, x), expected, rtol=1e-6, atol=1e-7)


def test_scalar_derivative():
    assert fd_scalar_derivative(np.exp, 0.0) == pytest.approx(1.0, rel=1e-10)


class TestTimeDerivative:
    def test_exact_on_cubics(self):
        # the five-point stencils differentiate quartics exactly; cubics
        # stay well below any rounding concern
        t = np.linspace(0.0, 1.0, 21)
        values = 2.0 * t ** 3 - t ** 2 + 0.5 * t - 1.0
        expected = 6.0 * t ** 2 - 2.0 * t + 0.5
        np.testing.assert_allclose(time_derivative(values, t[1] - t[0]), expected,
                                   rtol=1e-10, atol=1e-10)

    def test_fourth_order_convergence(self):
        errs = []
        for n in (40, 80):
            t = np.linspace(0.0, 1.0, n + 1)
            d = time_derivative(np.sin(3.0 * t), t[1] - t[0])
            errs.append(np.max(np.abs(d - 3.0 * np.cos(3.0 * t))))
        ratio = errs[0] / errs[1]
        assert 12.0 <= ratio <= 20.0

    def test_boundary_stencils_same_order(self):
        t = np.linspace(0.0, 1.0, 81)
        d = time_derivative(np.exp(t), t[1] - t[0])
        err = np.abs(d - np.exp(t))
        assert err[0] <= 1e-6 and err[-1] <= 1e-6
        assert err[1] <= 1e-7 and err[-2] <= 1e-7

    def test_needs_five_samples(self):
        with pytest.raises(ValueError):
            time_derivative(np.zeros(4), 0.1)
