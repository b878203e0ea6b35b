"""Loss values, analytic gradients, and declared-symmetry contracts."""

import numpy as np
import pytest

from noetherdyn import (
    ContractError,
    Quadratic,
    RadialWell,
    RayleighQuotient,
    Rescale,
    Rotation,
    Scale,
    SingularLossError,
    Translation,
    TwoLayerChain,
    check_symmetry,
)
from noetherdyn.numdiff import fd_gradient


def all_losses():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    sym = (a + a.T) / 2
    return [
        RayleighQuotient(sym),
        TwoLayerChain([1.0, 2.0], [1.0, 0.5]),
        RadialWell.harmonic(1.0, 25.0, 3),
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


class TestCheckSymmetry:
    def test_declared_pairs_pass(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((3, 3))
        pairs = [
            (RayleighQuotient((a + a.T) / 2), Scale()),
            (TwoLayerChain([1.0], [2.0]), Rescale(1)),
            (RadialWell.harmonic(1.0, 4.0, 3), Rotation(np.array(
                [[0.0, 1.0, 0.0], [-1.0, 0.0, 2.0], [0.0, -2.0, 0.0]]))),
        ]
        for loss, tf in pairs:
            report = check_symmetry(loss, tf, samples=100, seed=0)
            assert report.samples == 100

    def test_translation_invariant_quadratic(self):
        nhat = np.ones(3) / np.sqrt(3)
        loss = Quadratic(5.0 * (np.eye(3) - np.outer(nhat, nhat)))
        check_symmetry(loss, Translation(np.ones(3)), samples=50)

    def test_untagged_transform_is_contract_error(self):
        with pytest.raises(ContractError):
            check_symmetry(Quadratic(np.eye(2)), Scale())

    def test_translation_off_axis_is_contract_error(self):
        nhat = np.ones(3) / np.sqrt(3)
        degenerate = Quadratic(np.eye(3) - np.outer(nhat, nhat))  # flat along nhat only
        with pytest.raises(ContractError):
            check_symmetry(degenerate, Translation([1.0, 0.0, 0.0]))

    def test_rescale_split_mismatch_is_contract_error(self):
        tl = TwoLayerChain([1.0], [1.0])
        with pytest.raises(ContractError):
            check_symmetry(tl, Scale())
