"""Loss values, analytic gradients, and exact symmetries."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies

from noetherdyn import (
    Quadratic,
    RadialWell,
    RayleighQuotient,
    Rescale,
    Rotation,
    Scale,
    SingularLossError,
    Translation,
    TwoLayerChain,
)
from noetherdyn.harness.experiments import _residual_cases
from oracles import fd_gradient


def all_losses():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    sym = (a + a.T) / 2
    return [
        RayleighQuotient(sym),
        TwoLayerChain([1.0, 2.0], [1.0, 0.5]),
        RadialWell(1.0, 25.0, 3),
        Quadratic(np.diag([1.0, 2.0, 3.0]), [0.1, 0.0, -0.2]),
    ]


def sample_point(loss, rng):
    q = rng.standard_normal(loss.dim)
    if (loss.scale_invariant or loss.name == "radial-well") and np.linalg.norm(q) < 0.3:
        q = q + 1.0
    return q


class TestValues:
    def test_rayleigh_eigenvector_and_scale(self):
        r = RayleighQuotient(np.diag([1.0, 2.0]))
        assert r.value([1.0, 0.0]) == pytest.approx(1.0)
        assert r.value([2.0, 0.0]) == pytest.approx(1.0)

    def test_two_layer_chain_hand_value(self):
        tl = TwoLayerChain([1.0], [1.0])
        assert tl.value([1.5, 0.5]) == pytest.approx(0.5 * (0.75 - 1.0) ** 2)

    def test_origin_singularity(self):
        r = RayleighQuotient(np.eye(2))
        with pytest.raises(SingularLossError):
            r.value([0.0, 0.0])
        with pytest.raises(SingularLossError):
            r.grad([0.0, 1e-13])


class TestGradients:
    @settings(max_examples=300, deadline=None)
    @given(q=strategies.lists(strategies.floats(-1e3, 1e3), min_size=1, max_size=5))
    def test_radial_gradient_is_norm_formula_bit_for_bit(self, q):
        """grad = (v'(r) / r) q with r = np.linalg.norm(q), exactly, for the
        well v(r) = 25 (r - 1)^2 / 2."""
        q = np.array(q)
        r = np.linalg.norm(q)
        assume(r > 1e-12)
        well = RadialWell(1.0, 25.0, q.size)
        assert np.array_equal(well.grad(q), (25.0 * (r - 1.0) / r) * q)

    def test_rayleigh_stationary_at_eigenvector(self):
        r = RayleighQuotient(np.diag([1.0, 2.0]))
        np.testing.assert_allclose(r.grad([1.0, 0.0]), [0.0, 0.0], atol=1e-15)

    def test_quadratic_identity_gradient(self):
        q = Quadratic(np.eye(2))
        np.testing.assert_allclose(q.grad([3.0, 4.0]), [3.0, 4.0])

    def test_all_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for loss in all_losses():
            for _ in range(100):
                q = sample_point(loss, rng)
                g = loss.grad(q)
                g_fd = fd_gradient(loss.value, q)
                np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-7,
                                           err_msg=loss.name)


class TestScaleInvarianceLaws:
    def scale_invariant_losses(self):
        return [loss for loss in all_losses() if loss.scale_invariant]

    def test_gradient_tangency(self):
        rng = np.random.default_rng(2)
        for loss in self.scale_invariant_losses():
            for _ in range(50):
                q = sample_point(loss, rng)
                g = loss.grad(q)
                assert abs(g @ q) <= 1e-10 * (1.0 + np.linalg.norm(g) * np.linalg.norm(q))

    def test_inverse_scaling_of_gradient_norm(self):
        rng = np.random.default_rng(3)
        for loss in self.scale_invariant_losses():
            for _ in range(50):
                q = sample_point(loss, rng)
                n1 = np.linalg.norm(loss.grad(2.0 * q))
                n0 = np.linalg.norm(loss.grad(q))
                assert abs(n1 - 0.5 * n0) <= 1e-10 * (1.0 + n0)

    def test_unit_sphere_gradient_relation(self):
        # grad f(q) = ghat / r where ghat is the gradient at q / |q|
        rng = np.random.default_rng(4)
        for loss in self.scale_invariant_losses():
            q = sample_point(loss, rng)
            r = np.linalg.norm(q)
            ghat = loss.grad(q / r)
            np.testing.assert_allclose(loss.grad(q), ghat / r, rtol=1e-10, atol=1e-12)


def _assert_symmetric(loss, transform, q, s):
    """f(Q(q, s)) = f(q) and <grad f, dQ/ds> = 0, both to 1e-10 (1 + |f(q)|)."""
    f0 = loss.value(q)
    allowed = 1e-10 * (1.0 + abs(f0))
    assert abs(loss.value(transform.apply(q, s)) - f0) <= allowed
    assert abs(float(loss.grad(q) @ transform.generator(q))) <= allowed


def _declared_pairs():
    a = np.random.default_rng(5).standard_normal((3, 3))
    return [
        (RayleighQuotient((a + a.T) / 2), Scale()),
        (TwoLayerChain([1.0], [2.0]), Rescale(1)),
        (RadialWell(1.0, 4.0, 3), Rotation(np.array(
            [[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]]))),
    ]


def _translation_pair():
    nhat = np.ones(3) / np.sqrt(3)
    return Quadratic(5.0 * (np.eye(3) - np.outer(nhat, nhat))), Translation(np.ones(3))


def _check_on_random_states(loss, transform, samples):
    rng = np.random.default_rng(0)
    for _ in range(samples):
        q = rng.standard_normal(loss.dim)
        if np.linalg.norm(q) < 0.1:  # the scale and rotation cases are singular at 0
            q = q + 1.0
        _assert_symmetric(loss, transform, q, rng.uniform(-0.5, 0.5))


class TestCheckSymmetry:
    def test_declared_pairs_pass(self):
        for loss, transform in _declared_pairs():
            _check_on_random_states(loss, transform, samples=100)

    def test_translation_invariant_quadratic(self):
        _check_on_random_states(*_translation_pair(), samples=50)


def _invariant_pairs():
    """(loss, transform) pairs with an exact symmetry: every pair the
    charge-balance experiment integrates, and the pairs above."""
    pairs = [(loss, transform) for _, transform, loss, _, _ in _residual_cases()]
    pairs += _declared_pairs() + [_translation_pair()]
    return list(dict.fromkeys(pairs))


@settings(max_examples=200, deadline=None)
@given(pair=strategies.sampled_from(_invariant_pairs()),
       q=strategies.lists(strategies.floats(-3.0, 3.0), min_size=3, max_size=3),
       s=strategies.floats(-0.5, 0.5))
def test_symmetry_leaves_value_unchanged_and_gradient_orthogonal(pair, q, s):
    """f(Q(q, s)) = f(q), and <grad f, dQ/ds> = 0 at every point."""
    loss, transform = pair
    q = np.array(q[: loss.dim])
    assume(np.linalg.norm(q) >= 0.1)  # the scale and rotation cases are singular at 0
    _assert_symmetric(loss, transform, q, s)
