"""Transforms, charges, kinetic asymmetry, and the charge balance law."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from noetherdyn import (
    Euclidean,
    NegativeEntropy,
    Quadratic,
    QuadraticForm,
    RayleighQuotient,
    Rescale,
    Rotation,
    Scale,
    Translation,
    TwoLayerChain,
    delta_h,
    eom_bregman,
    eom_bregman_euclidean,
    integrate_rk4,
    kinetic_asymmetry,
    natural_schedule,
    noether_residual,
    table2_report,
)
from noetherdyn.continuous import Trajectory
from oracles import kinetic_asymmetry_euclidean, noether_charge


def skew(dim, rng):
    a = rng.standard_normal((dim, dim))
    return a - a.T


def all_transforms(dim, rng):
    n = rng.standard_normal(dim)
    return [Translation(n), Rotation(skew(dim, rng)), Scale(), Rescale(dim // 2)]


class TestTransforms:
    def test_identity_at_zero(self):
        rng = np.random.default_rng(0)
        q = rng.standard_normal(4)
        for tf in all_transforms(4, rng):
            np.testing.assert_array_equal(tf.apply(q, 0.0), q)

    def test_generator_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        q = rng.standard_normal(4) + 2.0
        eps = 1e-6
        for tf in all_transforms(4, rng):
            fd = (tf.apply(q, eps) - tf.apply(q, -eps)) / (2 * eps)
            np.testing.assert_allclose(tf.generator(q), fd, rtol=1e-6, atol=1e-8)

    @settings(max_examples=50, deadline=None)
    @given(q=strategies.lists(strategies.floats(-3.0, 3.0), min_size=4, max_size=4),
           qd=strategies.lists(strategies.floats(-3.0, 3.0), min_size=4, max_size=4),
           s=strategies.floats(-0.5, 0.5))
    def test_velocity_generator_matches_finite_differences(self, q, qd, s):
        """The tangent lift: d/ds of the transported velocity at s = 0 is the
        velocity generator, and the transported velocity is d/dt of the
        transported path Q(q + t qdot, s) at t = 0."""
        q, qd = np.array(q), np.array(qd)
        eps = 1e-6
        for tf in all_transforms(4, np.random.default_rng(2)):
            fd = (tf.velocity_apply(qd, eps) - tf.velocity_apply(qd, -eps)) / (2 * eps)
            np.testing.assert_allclose(tf.velocity_generator(qd), fd, rtol=1e-6, atol=1e-8)
            fd_t = (tf.apply(q + eps * qd, s) - tf.apply(q - eps * qd, s)) / (2 * eps)
            np.testing.assert_allclose(tf.velocity_apply(qd, s), fd_t, rtol=1e-6, atol=1e-8)

    def test_closed_form_generators(self):
        q = np.array([2.0, 1.0])
        qd = np.array([1.0, 1.0])
        n = np.array([1.0, 0.0])
        np.testing.assert_array_equal(Translation(n).generator(q), n)
        np.testing.assert_array_equal(Translation(n).velocity_generator(qd), np.zeros(2))
        np.testing.assert_array_equal(Scale().generator(q), q)
        np.testing.assert_array_equal(Scale().velocity_generator(qd), qd)
        np.testing.assert_array_equal(Rescale(1).generator(q), np.array([2.0, -1.0]))

    def test_rotation_rejects_non_skew(self):
        with pytest.raises(ValueError):
            Rotation(np.eye(2))

    def test_rotation_generator_skew_product(self):
        rng = np.random.default_rng(3)
        a = skew(5, rng)
        rot = Rotation(a)
        for _ in range(20):
            v = rng.standard_normal(5)
            assert abs(v @ rot.generator(v)) <= 1e-12 * (1 + v @ v)

    def test_rescale_inverse_blocks(self):
        rs = Rescale(2)
        q = np.array([1.0, 2.0, 3.0, 4.0])
        out = rs.apply(q, 0.5)
        np.testing.assert_allclose(out, [1.5, 3.0, 2.0, 8.0 / 3.0])


class TestChargeAndMomentum:
    def test_delta_h_euclidean(self):
        e = Euclidean(2)
        np.testing.assert_allclose(
            delta_h(e, np.zeros(2), np.array([3.0, 0.0]), 0.0), [3.0, 0.0])

    def test_delta_h_zero_velocity(self):
        ne = NegativeEntropy(2)
        np.testing.assert_array_equal(
            delta_h(ne, np.array([0.5, 1.5]), np.zeros(2), 0.7), np.zeros(2))

    def test_delta_h_entropy_hand_value(self):
        ne = NegativeEntropy(1)
        val = delta_h(ne, np.array([1.0]), np.array([1.0]), 0.0)
        assert val[0] == pytest.approx(np.log(2.0))

    def test_delta_h_alpha_scaling_euclidean(self):
        e = Euclidean(3)
        rng = np.random.default_rng(4)
        q, qd = rng.standard_normal(3), rng.standard_normal(3)
        np.testing.assert_allclose(delta_h(e, q, qd, 1.3), np.exp(-1.3) * qd, rtol=1e-12)

    def test_charge_orthogonal_state(self):
        e = Euclidean(2)
        c = noether_charge(e, Scale(), np.array([1.0, 1.0]), np.array([1.0, -1.0]), 0.0)
        assert c == pytest.approx(0.0, abs=1e-15)

    def test_charge_translation_momentum(self):
        e = Euclidean(2)
        c = noether_charge(e, Translation([1.0, 0.0]), np.zeros(2), np.array([2.0, 5.0]), 0.0)
        assert c == pytest.approx(2.0)

    def test_charge_rescale_hand_value(self):
        e = Euclidean(2)
        c = noether_charge(e, Rescale(1), np.array([2.0, 1.0]), np.array([1.0, 1.0]), 0.0)
        assert c == pytest.approx(1.0)


class TestKineticAsymmetry:
    def test_euclidean_translation_and_rotation_vanish(self):
        rng = np.random.default_rng(5)
        e = Euclidean(3)
        for _ in range(20):
            q, qd = rng.standard_normal(3), rng.standard_normal(3)
            assert abs(kinetic_asymmetry(e, Translation(rng.standard_normal(3)), q, qd)) <= 1e-8
            assert abs(kinetic_asymmetry(e, Rotation(skew(3, rng)), q, qd)) <= 1e-8

    def test_euclidean_scale_value(self):
        e = Euclidean(2)
        val = kinetic_asymmetry(e, Scale(), np.array([0.3, -0.2]), np.array([1.0, 1.0]), 0.0)
        assert val == pytest.approx(2.0, rel=1e-6)

    def test_alpha_dependence_is_single_exponent(self):
        # the self-consistent form carries e^-alpha, not e^-2alpha
        e = Euclidean(2)
        qd = np.array([1.0, 1.0])
        v0 = kinetic_asymmetry(e, Scale(), np.zeros(2), qd, 0.0)
        v1 = kinetic_asymmetry(e, Scale(), np.zeros(2), qd, 1.0)
        assert v1 / v0 == pytest.approx(np.exp(-1.0), rel=1e-5)

    def test_analytic_matches_finite_difference(self):
        rng = np.random.default_rng(6)
        e = Euclidean(4)
        for tf in all_transforms(4, rng):
            for _ in range(10):
                q, qd = rng.standard_normal(4), rng.standard_normal(4)
                fd = kinetic_asymmetry(e, tf, q, qd, 0.2)
                an = kinetic_asymmetry_euclidean(tf, qd, 0.2)
                assert abs(fd - an) <= 1e-5 * max(1.0, abs(an))


class TestTable2:
    def metrics(self):
        return [Euclidean(4), NegativeEntropy(4)]

    def transforms(self):
        rng = np.random.default_rng(7)
        return [Translation(np.eye(4)[0]), Rotation(skew(4, rng)), Scale(), Rescale(2)]

    def test_pattern_matches_kinetic_symmetry_table(self):
        rows = table2_report(self.metrics(), self.transforms(), samples=16, seed=0)
        labels = [[c.label for c in row] for row in rows]
        assert labels[0] == ["symmetric", "symmetric", "asymmetric", "asymmetric"]
        assert labels[1] == ["asymmetric"] * 4

    def test_asymmetric_cells_are_macroscopic(self):
        rows = table2_report(self.metrics(), self.transforms(), samples=16, seed=0)
        for row in rows:
            for cell in row:
                if cell.label == "asymmetric":
                    assert cell.max_abs >= 1e-3

    def test_entropy_translation_is_asymmetric(self):
        rows = table2_report([NegativeEntropy(4)], [Translation(np.eye(4)[1])],
                             samples=8, seed=1)
        assert rows[0][0].label == "asymmetric"

    def test_constant_hessian_translation_is_symmetric(self):
        # quadratic-form metrics keep translation symmetry: their kinetic
        # energy depends on position only through a constant Hessian
        qf = QuadraticForm(np.array([[2.0, 0.4, 0, 0], [0.4, 1.0, 0, 0],
                                     [0, 0, 1.5, 0], [0, 0, 0, 3.0]]))
        rows = table2_report([qf], [Translation(np.eye(4)[0]), Scale()], samples=8, seed=2)
        assert rows[0][0].label == "symmetric"
        assert rows[0][1].label == "asymmetric"

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            table2_report(self.metrics(), self.transforms(), samples=0)


def _residual_setup():
    """One EL integration per (metric family, transform) with an invariant loss."""
    rng = np.random.default_rng(8)
    nhat = np.ones(3) / np.sqrt(3)
    cases = []
    quad = Quadratic(25.0 * (np.eye(3) - np.outer(nhat, nhat)))
    cases.append((NegativeEntropy(3), Translation(nhat), quad,
                  np.array([1.2, 0.9, 1.0]), np.array([0.1, -0.2, 0.15])))
    theta = np.pi / 6
    rot_m = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    ray = RayleighQuotient(rot_m @ np.diag([1.0, 21.0]) @ rot_m.T)
    cases.append((QuadraticForm(np.array([[2.0, 0.3], [0.3, 1.2]])), Scale(), ray,
                  np.array([1.034, 0.376]), np.array([0.1, 0.1])))
    cases.append((Euclidean(2), Rescale(1), TwoLayerChain([5.0], [5.0]),
                  np.array([1.4, 0.8]), np.array([0.1, -0.05])))
    return cases


class TestNoetherResidual:
    def test_residual_vanishes_on_el_trajectories(self):
        sched = natural_schedule(1.0, 1.0)
        for metric, tf, loss, q0, qd0 in _residual_setup():
            system = eom_bregman(metric, sched, loss)
            traj = integrate_rk4(system, q0, qd0, 0.0, 1.0, 1e-3)
            obs = noether_residual(metric, sched, tf, traj)
            assert np.max(np.abs(obs.residual)) <= 1e-5
            # halving the step shrinks the residual by roughly the RK4 order
            fine = integrate_rk4(system, q0, qd0, 0.0, 1.0, 5e-4)
            obs_fine = noether_residual(metric, sched, tf, fine)
            assert np.max(np.abs(obs_fine.residual)) <= np.max(np.abs(obs.residual)) / 8.0

    def test_translation_charge_decays_with_dissipation(self):
        # both source terms vanish, so charge(t) = charge(0) e^(-(gamma - gamma0))
        sched = natural_schedule(1.0, 1.0)
        e = Euclidean(3)
        nhat = np.ones(3) / np.sqrt(3)
        loss = Quadratic(4.0 * (np.eye(3) - np.outer(nhat, nhat)))
        tf = Translation(nhat)
        traj = integrate_rk4(eom_bregman_euclidean(sched, loss),
                             np.array([1.0, -0.4, 0.2]), np.array([0.5, 0.1, -0.3]),
                             0.0, 1.0, 1e-3)
        obs = noether_residual(e, sched, tf, traj)
        np.testing.assert_allclose(obs.dynamic_asymmetry, 0.0, atol=1e-14)
        np.testing.assert_allclose(obs.noneuclid_term, 0.0, atol=1e-14)
        expected = obs.charge[0] * np.exp(-(traj.times - traj.times[0]))
        np.testing.assert_allclose(obs.charge, expected, rtol=1e-6)

    def test_noneuclid_term_vanishes_for_euclidean(self):
        sched = natural_schedule(1.0, 1.0)
        e = Euclidean(2)
        loss = TwoLayerChain([5.0], [5.0])
        traj = integrate_rk4(eom_bregman_euclidean(sched, loss),
                             np.array([1.4, 0.8]), np.array([0.1, -0.05]), 0.0, 1.0, 1e-3)
        obs = noether_residual(e, sched, Rescale(1), traj)
        assert np.max(np.abs(obs.noneuclid_term)) <= 1e-10

    def test_resting_trajectory_has_zero_terms(self):
        sched = natural_schedule(1.0, 1.0)
        n = 11
        times = 0.1 * np.arange(n)
        q = np.tile(np.array([0.4, 0.8]), (n, 1))
        traj = Trajectory(times=times, q=q, q_dot=np.zeros_like(q))
        obs = noether_residual(NegativeEntropy(2), sched, Scale(), traj)
        for channel in (obs.charge, obs.dissipation, obs.dynamic_asymmetry,
                        obs.noneuclid_term, obs.residual):
            np.testing.assert_array_equal(channel, np.zeros(n))

    def test_short_trajectory_rejected(self):
        sched = natural_schedule(1.0, 1.0)
        times = 0.1 * np.arange(4)
        q = np.ones((4, 2))
        traj = Trajectory(times=times, q=q, q_dot=np.zeros_like(q))
        with pytest.raises(ValueError):
            noether_residual(Euclidean(2), sched, Scale(), traj)


class TestGradientFlowLimit:
    def test_charge_scales_linearly_with_mass(self):
        """In the small-mass limit the charge itself vanishes linearly."""
        loss = Quadratic(np.diag([1.0, 2.0]), [0.3, -0.2])
        tf = Translation([1.0, 0.0])
        e = Euclidean(2)
        masses = [1e-1, 1e-2, 1e-3]
        averages = []
        for m in masses:
            sched = natural_schedule(m, 1.0)
            traj = integrate_rk4(eom_bregman_euclidean(sched, loss),
                                 [1.0, 0.5], [0.0, 0.0], 0.0, 2.0, 1e-3)
            charges = [noether_charge(e, tf, traj.q[i], traj.q_dot[i], sched.alpha(0.0))
                       for i in range(0, traj.times.size, 10)]
            averages.append(np.mean(np.abs(charges)))
        slope = np.polyfit(np.log(masses), np.log(averages), 1)[0]
        assert abs(slope - 1.0) <= 0.2
