"""Transforms, charges, kinetic asymmetry, and the charge balance law."""

import collections
import dataclasses

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies
from hypothesis.extra.numpy import arrays

from noetherdyn import (
    Euclidean,
    NegativeEntropy,
    Quadratic,
    QuadraticForm,
    Rescale,
    Rotation,
    Scale,
    Translation,
    eom_bregman,
    integrate_rk4,
    kinetic_asymmetry,
    natural_schedule,
    nesterov_schedule,
    noether_residual,
    table2_report,
)
from noetherdyn.continuous import Trajectory
from noetherdyn.harness.config import build_config
from noetherdyn.harness.experiments import _residual_cases, _skew, run_table2
from noetherdyn.symmetry import SYMMETRIC_TOL
from oracles import (assert_same_bits, delta_h, kinetic_asymmetry_euclidean, noether_charge,
                     noether_residual_per_sample)


def all_transforms(dim, rng):
    n = rng.standard_normal(dim)
    return [Translation(n), Rotation(_skew(dim, rng)), Scale(), Rescale(dim // 2)]


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
        a = _skew(5, rng)
        rot = Rotation(a)
        for _ in range(20):
            v = rng.standard_normal(5)
            assert abs(v @ rot.generator(v)) <= 1e-12 * (1 + v @ v)

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), n=strategies.integers(1, 6), d=strategies.sampled_from([2, 3]),
           kind=strategies.integers(0, 3))
    def test_stack_gives_each_point_its_own_bits(self, data, n, d, kind):
        """generator and velocity_generator of an (n, d) stack equal the n
        one-point calls bit for bit, on a column slice (the layout of a
        trajectory) and on a contiguous stack."""
        tf = all_transforms(d, np.random.default_rng(d))[kind]
        rows = data.draw(arrays(np.float64, (n, 2 * d), elements=strategies.floats(-1e3, 1e3)))
        for x in (rows[:, :d], np.ascontiguousarray(rows[:, d:])):
            for method in (tf.generator, tf.velocity_generator):
                assert_same_bits(method(x), np.array([method(point) for point in x]))

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


def triples(bound):
    return strategies.lists(strategies.floats(-bound, bound), min_size=3, max_size=3)


class TestKineticAsymmetry:
    @settings(max_examples=200, deadline=None)
    @given(q=triples(3.0), qd=triples(3.0), alpha=strategies.floats(-1.0, 1.0),
           direction=triples(2.0), upper=triples(2.0))
    def test_euclidean_translation_and_rotation_vanish(self, q, qd, alpha, direction, upper):
        """Table 2's symmetric cells on random states: the Euclidean kinetic
        energy is invariant under translation and rotation, and so is any
        constant-Hessian (quadratic-form) one under translation, each within
        the experiment's own threshold."""
        assume(np.linalg.norm(direction) >= 0.1)
        q, qd = np.array(q), np.array(qd)
        a01, a02, a12 = upper
        translation = Translation(direction)
        rotation = Rotation(np.array([[0.0, a01, a02], [-a01, 0.0, a12], [-a02, -a12, 0.0]]))
        qf = QuadraticForm(np.array([[2.0, 0.3, 0.0], [0.3, 1.5, 0.2], [0.0, 0.2, 1.0]]))
        for metric, tf in ((Euclidean(3), translation), (Euclidean(3), rotation),
                           (qf, translation)):
            assert abs(kinetic_asymmetry(metric, tf, q, qd, alpha)) <= SYMMETRIC_TOL

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
        return [Translation(np.eye(4)[0]), Rotation(_skew(4, rng)), Scale(), Rescale(2)]

    def test_pattern_matches_kinetic_symmetry_table(self):
        max_abs = table2_report(self.metrics(), self.transforms(), samples=16, seed=0)
        symmetric = (max_abs <= SYMMETRIC_TOL).tolist()
        assert symmetric[0] == [True, True, False, False]
        assert symmetric[1] == [False] * 4

    def test_asymmetric_cells_are_macroscopic(self):
        max_abs = table2_report(self.metrics(), self.transforms(), samples=16, seed=0)
        asymmetric = max_abs[max_abs > SYMMETRIC_TOL]
        assert asymmetric.size == 6
        assert np.all(asymmetric >= 1e-3)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    def test_experiment_passes(self, tmp_path, seed):
        # the experiment's own metrics, transforms and seed-drawn rotation
        verdicts = run_table2(build_config("table2", {"seed": seed}), tmp_path)
        assert [v for v in verdicts if not v.passed] == []

    def test_entropy_translation_is_asymmetric(self):
        max_abs = table2_report([NegativeEntropy(4)], [Translation(np.eye(4)[1])],
                                samples=8, seed=1)
        assert max_abs[0, 0] > SYMMETRIC_TOL

    def test_constant_hessian_translation_is_symmetric(self):
        # quadratic-form metrics keep translation symmetry: their kinetic
        # energy depends on position only through a constant Hessian
        qf = QuadraticForm(np.array([[2.0, 0.4, 0, 0], [0.4, 1.0, 0, 0],
                                     [0, 0, 1.5, 0], [0, 0, 0, 3.0]]))
        max_abs = table2_report([qf], [Translation(np.eye(4)[0]), Scale()], samples=8, seed=2)
        assert max_abs[0, 0] <= SYMMETRIC_TOL
        assert max_abs[0, 1] > SYMMETRIC_TOL


def _residual_case(metric_name, transform_name):
    """The charge-balance experiment's case for this metric and transform."""
    return next(case for case in _residual_cases()
                if (case[0].name, case[1].name) == (metric_name, transform_name))


def assert_same_observables(got, expected):
    for name in ("times", "charge", "charge_rate", "dissipation", "dynamic_asymmetry",
                 "noneuclid_term", "residual"):
        assert_same_bits(getattr(got, name), getattr(expected, name))


class TestNoetherResidual:
    def test_residual_vanishes_on_el_trajectories(self):
        sched = natural_schedule(1.0, 1.0)
        # one case per metric family, each with another transform
        for names in [("negative-entropy", "translation"), ("quadratic-form", "scale"),
                      ("euclidean", "rescale")]:
            metric, tf, loss, q0, qd0 = _residual_case(*names)
            system = eom_bregman(metric, sched, loss)
            traj = integrate_rk4(system, q0, qd0, 0.0, 1.0, 1e-3)
            obs = noether_residual(metric, sched, tf, traj)
            assert np.max(np.abs(obs.residual)) <= 1e-5
            # halving the step shrinks the residual by roughly the RK4 order
            fine = integrate_rk4(system, q0, qd0, 0.0, 1.0, 5e-4)
            obs_fine = noether_residual(metric, sched, tf, fine)
            assert np.max(np.abs(obs_fine.residual)) <= np.max(np.abs(obs.residual)) / 8.0

    @settings(max_examples=100, deadline=None)
    @given(case=strategies.sampled_from(_residual_cases()),
           q_scale=strategies.lists(strategies.floats(0.8, 1.2), min_size=3, max_size=3),
           v_scale=strategies.lists(strategies.floats(-1.5, 1.5), min_size=3, max_size=3))
    def test_balance_law_holds_on_random_states(self, case, q_scale, v_scale):
        # every (metric, transform, invariant loss) of the experiment, from a
        # random state near its fixed one; the bound is the acceptance tolerance
        metric, tf, loss, q0, qd0 = case
        q0 = q0 * np.array(q_scale[:q0.size])
        qd0 = qd0 * np.array(v_scale[:qd0.size])
        sched = natural_schedule(1.0, 1.0)
        traj = integrate_rk4(eom_bregman(metric, sched, loss), q0, qd0, 0.0, 0.2, 1e-3)
        obs = noether_residual(metric, sched, tf, traj)
        assert np.max(np.abs(obs.residual)) <= 1e-4

    def test_translation_charge_decays_with_dissipation(self):
        # both source terms vanish, so charge(t) = charge(0) e^(-(gamma - gamma0))
        sched = natural_schedule(1.0, 1.0)
        e = Euclidean(3)
        nhat = np.ones(3) / np.sqrt(3)
        loss = Quadratic(4.0 * (np.eye(3) - np.outer(nhat, nhat)))
        tf = Translation(nhat)
        traj = integrate_rk4(eom_bregman(e, sched, loss),
                             np.array([1.0, -0.4, 0.2]), np.array([0.5, 0.1, -0.3]),
                             0.0, 1.0, 1e-3)
        obs = noether_residual(e, sched, tf, traj)
        np.testing.assert_allclose(obs.dynamic_asymmetry, 0.0, atol=1e-14)
        np.testing.assert_allclose(obs.noneuclid_term, 0.0, atol=1e-14)
        expected = obs.charge[0] * np.exp(-(traj.times - traj.times[0]))
        np.testing.assert_allclose(obs.charge, expected, rtol=1e-6)

    def test_noneuclid_term_vanishes_for_euclidean(self):
        sched = natural_schedule(1.0, 1.0)
        e, tf, loss, q0, qd0 = _residual_case("euclidean", "rescale")
        traj = integrate_rk4(eom_bregman(e, sched, loss), q0, qd0, 0.0, 1.0, 1e-3)
        obs = noether_residual(e, sched, tf, traj)
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

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), case=strategies.sampled_from(_residual_cases()),
           n=strategies.integers(5, 12), t0=strategies.floats(0.1, 2.0),
           dt=strategies.floats(1e-3, 0.1), nesterov=strategies.booleans(),
           m=strategies.floats(0.1, 1.5), mu=strategies.floats(-2.0, 2.0),
           power=strategies.floats(1.0, 4.0), c=strategies.floats(0.1, 1.0))
    def test_matches_the_per_sample_loop_bit_for_bit(self, data, case, n, t0, dt, nesterov,
                                                     m, mu, power, c):
        # random states, not solutions: only the bits of each term are compared.
        # |e^-alpha v| < 1 keeps q (1 + e^-alpha v) in the entropy domain
        metric, tf, _, _, _ = case
        d = metric.dim
        sched = nesterov_schedule(power, c) if nesterov else natural_schedule(m, mu)
        rows = data.draw(arrays(np.float64, (n, 2 * d), elements=strategies.floats(0.05, 5.0)))
        v = data.draw(arrays(np.float64, (n, d), elements=strategies.floats(-0.25, 0.25)))
        rows[:, d:] = rows[:, :d] * v
        traj = Trajectory(times=t0 + dt * np.arange(n), q=rows[:, :d], q_dot=rows[:, d:])
        assert_same_observables(noether_residual(metric, sched, tf, traj),
                                noether_residual_per_sample(metric, sched, tf, traj))

    @pytest.mark.parametrize("nesterov", [False, True], ids=["natural", "nesterov"])
    def test_matches_the_per_sample_loop_on_solutions(self, nesterov):
        # the experiment's 12 cases, integrated: rows are column slices of the RK4 states
        sched = nesterov_schedule(2.0, 0.25) if nesterov else natural_schedule(1.0, 1.0)
        for metric, tf, loss, q0, qd0 in _residual_cases():
            traj = integrate_rk4(eom_bregman(metric, sched, loss), q0, qd0, 0.5, 0.55, 1e-3)
            assert_same_observables(noether_residual(metric, sched, tf, traj),
                                    noether_residual_per_sample(metric, sched, tf, traj))

    @pytest.mark.parametrize("n", range(5))
    @pytest.mark.parametrize("nesterov", [False, True], ids=["natural", "nesterov"])
    def test_short_trajectory_rejected(self, n, nesterov):
        """Fewer than 5 samples raise time_derivative's ValueError before
        any term is computed, 0 and 1 included, for a stationary schedule
        and another."""
        sched = nesterov_schedule(2.0, 0.25) if nesterov else natural_schedule(1.0, 1.0)
        times = 0.1 + 0.1 * np.arange(n)
        q = np.ones((n, 2))
        traj = Trajectory(times=times, q=q, q_dot=np.zeros_like(q))
        with pytest.raises(ValueError, match="at least 5 samples"):
            noether_residual(Euclidean(2), sched, Scale(), traj)

    def test_a_stationary_schedule_is_read_once_per_call(self):
        """noether_residual calls a stationary schedule's alpha and gamma_dot
        once each, whatever the number of samples, and its observables keep
        the bits of the same schedule read at every sample (stationary=False),
        on the experiment's 12 cases."""
        sched = natural_schedule(0.7, 0.4)
        for metric, tf, loss, q0, qd0 in _residual_cases():
            traj = integrate_rk4(eom_bregman(metric, sched, loss), q0, qd0, 0.0, 0.02, 1e-3)
            calls = collections.Counter()

            def counted(name):
                read = getattr(sched, name)

                def wrapper(t):
                    calls[name] += 1
                    return read(t)
                return wrapper

            counting = dataclasses.replace(sched, alpha=counted("alpha"),
                                           gamma_dot=counted("gamma_dot"))
            obs = noether_residual(metric, counting, tf, traj)
            assert calls == {"alpha": 1, "gamma_dot": 1}
            assert_same_observables(obs, noether_residual(
                metric, dataclasses.replace(sched, stationary=False), tf, traj))


class TestGradientFlowLimit:
    def test_charge_scales_linearly_with_mass(self):
        """In the small-mass limit the charge itself vanishes linearly."""
        loss = Quadratic(np.diag([1.0, 2.0]))
        tf = Translation([1.0, 0.0])
        e = Euclidean(2)
        masses = [1e-1, 1e-2, 1e-3]
        averages = []
        for m in masses:
            sched = natural_schedule(m, 1.0)
            traj = integrate_rk4(eom_bregman(e, sched, loss),
                                 [1.0, 0.5], [0.0, 0.0], 0.0, 2.0, 1e-3)
            charges = [noether_charge(e, tf, traj.q[i], traj.q_dot[i], sched.alpha(0.0))
                       for i in range(0, traj.times.size, 10)]
            averages.append(np.mean(np.abs(charges)))
        slope = np.polyfit(np.log(masses), np.log(averages), 1)[0]
        assert abs(slope - 1.0) <= 0.2
