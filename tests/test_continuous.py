"""Integrator order and the continuous-time optimizer models."""

import numpy as np
import pytest

from noetherdyn import (
    IntegrationError,
    OptimizerState,
    Quadratic,
    RayleighQuotient,
    SecondOrderSystem,
    eom_bregman,
    eom_bregman_euclidean,
    eom_modified,
    eom_noether_radial,
    integrate_rk4,
    natural_schedule,
    nesterov_schedule,
    r2_schedule,
    rk4_solve,
    step_gd_momentum_wd,
)
from noetherdyn.symmetry import time_derivative
from oracles import constant_history, lagrangian, sgdm_schedule

HARMONIC = SecondOrderSystem("harmonic", lambda t, q, qd: -q)


class TestRk4:
    def test_free_particle_is_exact(self):
        traj = integrate_rk4(SecondOrderSystem("free", lambda t, q, qd: np.zeros_like(q)),
                             [0.0], [1.0], 0.0, 1.0, 0.01)
        assert traj.q[-1, 0] == pytest.approx(1.0, abs=1e-13)

    def test_harmonic_full_period(self):
        period = 2.0 * np.pi
        dt = period / round(period / 1e-3)
        traj = integrate_rk4(HARMONIC, [1.0], [0.0], 0.0, period, dt)
        assert abs(traj.q[-1, 0] - 1.0) <= 1e-9

    def test_step_halving_order(self):
        # measured mid-phase, where the 4th-order phase error is linear
        errs = []
        for dt in (0.02, 0.01):
            traj = integrate_rk4(HARMONIC, [1.0], [0.0], 0.0, 1.0, dt)
            errs.append(abs(traj.q[-1, 0] - np.cos(1.0)))
        ratio = errs[0] / errs[1]
        assert 13.0 <= ratio <= 19.0

    def test_grid_must_tile_interval(self):
        with pytest.raises(ValueError):
            integrate_rk4(HARMONIC, [1.0], [0.0], 0.0, 1.0, 0.3)

    def test_uniform_grid(self):
        traj = integrate_rk4(HARMONIC, [1.0], [0.0], 0.5, 1.5, 0.01)
        assert np.allclose(np.diff(traj.times), 0.01, atol=1e-12)
        assert traj.times[0] == 0.5 and traj.times[-1] == pytest.approx(1.5)

    def test_rk4_solve_first_order_decay(self):
        times, ys = rk4_solve(lambda t, y: -y, np.array([1.0]), 0.0, 1.0, 0.001)
        assert abs(ys[-1, 0] - np.exp(-1.0)) <= 1e-12

    def test_non_finite_state_aborts_with_its_time(self):
        # the last stage of the step from t = 0.4 turns the state NaN at t = 0.5
        with pytest.raises(IntegrationError, match="no longer finite") as caught:
            rk4_solve(lambda t, y: -y if t < 0.5 else y * np.nan, np.array([1.0]),
                      0.0, 1.0, 0.1)
        assert caught.value.time == pytest.approx(0.5)

    def test_non_finite_initial_state_aborts_at_t0(self):
        with pytest.raises(IntegrationError) as caught:
            rk4_solve(lambda t, y: -y, np.array([np.inf]), 0.25, 1.0, 0.25)
        assert caught.value.time == 0.25


class TestModifiedEquation:
    def test_velocity_decay_without_force(self):
        eta, beta = 0.1, 0.5
        loss = Quadratic(np.zeros((1, 1)))
        system = eom_modified(eta, beta, 0.0, loss)
        rate = 2.0 * (1.0 - beta) / (eta * (1.0 + beta))
        traj = integrate_rk4(system, [0.0], [1.0], 0.0, 0.5, 1e-3)
        np.testing.assert_allclose(traj.q_dot[-1, 0], np.exp(-rate * 0.5), rtol=1e-8)

    def test_small_step_form_without_momentum(self):
        # beta = 0, k = 0 recovers (eta/2) qddot + qdot = -g
        loss = Quadratic(np.eye(2))
        system = eom_modified(0.1, 0.0, 0.0, loss)
        q = np.array([1.0, -2.0])
        qd = np.array([0.3, 0.0])
        expected = (-qd - loss.grad(q)) * (2.0 / 0.1)
        np.testing.assert_allclose(system.rhs(0.0, q, qd), expected, rtol=1e-14)

    def test_tracks_discrete_heavy_ball_better_than_gradient_flow(self):
        """Anchored at the first interior sample with the centered-difference
        velocity, the finite-step model stays at least 5x closer to the
        discrete iterates than rescaled gradient flow does."""
        eta, beta = 0.1, 0.5
        loss = Quadratic(np.eye(1))
        st = OptimizerState.initial([1.0])
        qs = [1.0]
        for _ in range(20):
            st = step_gd_momentum_wd(st, loss, eta, beta=beta)
            qs.append(st.q[0])
        qs = np.array(qs)
        times = eta * np.arange(21)

        q1 = qs[1]
        v1 = (qs[2] - qs[0]) / (2.0 * eta)
        ode = integrate_rk4(eom_modified(eta, beta, 0.0, loss), [q1], [v1],
                            eta, 2.0, eta / 100)
        ode_dev = np.max(np.abs(ode.q[::100, 0] - qs[1:]))
        _, gf = rk4_solve(lambda t, y: -loss.grad(y) / (1.0 - beta),
                          np.array([q1]), eta, 2.0, eta / 100)
        gf_dev = np.max(np.abs(gf[::100, 0] - qs[1:]))
        assert gf_dev >= 5.0 * ode_dev


class TestBregmanEuclidean:
    def test_natural_preset_is_newtonian(self):
        m, mu = 0.5, 0.7
        loss = Quadratic(np.diag([2.0, 1.0]), [0.1, 0.0])
        system = eom_bregman_euclidean(natural_schedule(m, mu), loss)
        rng = np.random.default_rng(0)
        for _ in range(10):
            q, qd = rng.standard_normal(2), rng.standard_normal(2)
            expected = -(mu * qd + loss.grad(q)) / m
            np.testing.assert_allclose(system.rhs(1.3, q, qd), expected, rtol=1e-12)

    def test_nesterov_damping_coefficient(self):
        loss = Quadratic(np.zeros((1, 1)))
        system = eom_bregman_euclidean(nesterov_schedule(2.0, 0.25), loss)
        # damping (n+1)/t = 3/2 at t = 2
        np.testing.assert_allclose(system.rhs(2.0, np.array([1.0]), np.array([1.0])),
                                   [-1.5], rtol=1e-14)

    def test_sgdm_preset_equals_modified_equation(self):
        eta, beta = 0.05, 0.3
        loss = Quadratic(np.diag([1.0, 3.0]), [0.2, -0.1])
        bregman = eom_bregman_euclidean(sgdm_schedule(eta, beta), loss)
        modified = eom_modified(eta, beta, 0.0, loss)
        rng = np.random.default_rng(1)
        for _ in range(20):
            q, qd = rng.standard_normal(2), rng.standard_normal(2)
            np.testing.assert_allclose(bregman.rhs(0.7, q, qd),
                                       modified.rhs(0.7, q, qd), rtol=1e-12)

    def test_general_form_reduces_to_euclidean(self):
        from noetherdyn import Euclidean
        loss = Quadratic(np.diag([1.0, 2.0]), [0.0, 0.3])
        sched = natural_schedule(0.8, 1.1)
        general = eom_bregman(Euclidean(2), sched, loss)
        special = eom_bregman_euclidean(sched, loss)
        rng = np.random.default_rng(2)
        for _ in range(20):
            q, qd = rng.standard_normal(2), rng.standard_normal(2)
            np.testing.assert_allclose(general.rhs(0.4, q, qd), special.rhs(0.4, q, qd),
                                       rtol=1e-12, atol=1e-12)

    @pytest.mark.parametrize("metric_name", ["euclidean", "quadratic-form", "negative-entropy"])
    def test_trajectories_satisfy_the_variational_condition(self, metric_name):
        """Independent oracle for the general system: along its trajectories,
        d/dt of dL/dqdot must equal dL/dq, with both sides taken by finite
        differences of the Lagrangian value itself."""
        from noetherdyn import Euclidean, NegativeEntropy, QuadraticForm

        metric = {"euclidean": Euclidean(2),
                  "quadratic-form": QuadraticForm(np.array([[2.0, 0.3], [0.3, 1.2]])),
                  "negative-entropy": NegativeEntropy(2)}[metric_name]
        sched = natural_schedule(1.0, 1.0)
        theta = np.pi / 6
        rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
        loss = RayleighQuotient(rot @ np.diag([1.0, 21.0]) @ rot.T)
        traj = integrate_rk4(eom_bregman(metric, sched, loss),
                             np.array([1.034, 0.376]), np.array([0.1, 0.1]),
                             0.0, 0.5, 1e-3)

        eps = 1e-6

        def partials(t, q, qd):
            momentum = np.empty(2)
            force = np.empty(2)
            for i in range(2):
                e = np.zeros(2)
                e[i] = eps
                momentum[i] = (lagrangian(metric, sched, loss, q, qd + e, t)
                               - lagrangian(metric, sched, loss, q, qd - e, t)) / (2 * eps)
                force[i] = (lagrangian(metric, sched, loss, q + e, qd, t)
                            - lagrangian(metric, sched, loss, q - e, qd, t)) / (2 * eps)
            return momentum, force

        idx = np.arange(0, traj.times.size, 5)
        ts = traj.times[idx]
        pairs = [partials(t, traj.q[i], traj.q_dot[i]) for t, i in zip(ts, idx)]
        momentum = np.array([p for p, _ in pairs])
        force = np.array([f for _, f in pairs])
        rate = np.stack([time_derivative(momentum[:, j], ts[1] - ts[0])
                         for j in range(2)], axis=1)
        residual = np.abs(rate - force) / np.maximum(1.0, np.abs(force))
        assert residual.max() <= 1e-5

    def test_energy_dissipates_with_friction(self):
        m, mu = 0.5, 1.0
        loss = Quadratic(np.diag([2.0, 1.0]))
        traj = integrate_rk4(eom_bregman_euclidean(natural_schedule(m, mu), loss),
                             [1.0, -0.7], [0.3, 0.1], 0.0, 4.0, 1e-3)
        energy = 0.5 * m * np.sum(traj.q_dot ** 2, axis=1) \
            + np.array([loss.value(q) for q in traj.q])
        assert np.max(np.diff(energy)) <= 1e-9


class TestNoetherRadial:
    def test_constant_drive_reaches_steady_radius(self):
        # dt stays below the RK4 stability bound for the fast rate mu/m = 200
        m, mu, k, c = 0.005, 1.0, 0.01, 1.0
        history = constant_history(c, 400.0, 0.01)
        traj = integrate_rk4(eom_noether_radial(m, mu, k, history), [4.0], [0.0],
                             0.0, 400.0, 0.01)
        steady = np.sqrt(m * c ** 2 / (k * mu ** 2))
        assert traj.q[-1, 0] == pytest.approx(steady, rel=1e-4)

    def test_no_drive_no_decay_keeps_norm(self):
        history = constant_history(0.0, 5.0, 0.01)
        traj = integrate_rk4(eom_noether_radial(0.01, 1.0, 0.0, history), [2.0], [0.0],
                             0.0, 5.0, 0.01)
        np.testing.assert_allclose(traj.q[:, 0], 2.0, rtol=1e-12)

    def test_matches_closed_form_schedule(self):
        m, mu, k = 0.005, 1.0, 1e-4
        history = constant_history(1.0, 100.0, 0.01)
        traj = integrate_rk4(eom_noether_radial(m, mu, k, history), [4.0], [0.0],
                             0.0, 100.0, 0.01)
        sched = r2_schedule(history, 2.0 * m, 0.0, k, 2.0)
        window = history.times >= 20.0
        rel = np.abs(traj.q[window, 0] - sched[window]) / sched[window]
        assert np.max(rel) <= 1e-3

