"""Integrator order and the continuous-time optimizer models."""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies

from noetherdyn import (
    BregmanSchedule,
    DomainError,
    Euclidean,
    IntegrationError,
    NegativeEntropy,
    Quadratic,
    QuadraticForm,
    Trajectory,
    TwoLayerChain,
    eom_bregman,
    integrate_rk4,
    integrate_rk4_lockstep,
    natural_schedule,
    nesterov_schedule,
)
from noetherdyn import continuous
from noetherdyn.continuous import grid_steps, rk4_solve
from noetherdyn.harness.config import MODIFIED_EQ_REFINE, build_config
from noetherdyn.harness.experiments import _residual_cases, run_experiment
from noetherdyn.symmetry import time_derivative
from oracles import assert_same_bits, bregman_rhs, lagrangian, rk4_reference

# qddot = -q, as u - q - q - qdot: its bits need not be -q's
HARMONIC = eom_bregman(Euclidean(1), natural_schedule(1.0, 0.0), Quadratic(np.eye(1)))


class TestRk4:
    def test_free_particle_is_exact(self):
        _, states = rk4_solve(lambda t, q, qd: np.zeros_like(q), [0.0, 1.0], 0.0, 1.0, 0.01)
        assert states[-1, 0] == pytest.approx(1.0, abs=1e-13)

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

    @pytest.mark.parametrize("dt", [0.3, 0.0, 5e-324 / 2.0, 5e-309],
                             ids=["no-tiling", "zero", "underflowed", "uncountable"])
    def test_grid_steps_rejects_a_step_that_does_not_tile(self, dt):
        assert grid_steps(0.0, 1.0, 0.25) == 4
        with pytest.raises(ValueError):  # 1 / 5e-309 overflows to inf: not an OverflowError
            grid_steps(0.0, 1.0, dt)

    def test_uniform_grid(self):
        traj = integrate_rk4(HARMONIC, [1.0], [0.0], 0.5, 1.5, 0.01)
        assert np.allclose(np.diff(traj.times), 0.01, atol=1e-12)
        assert traj.times[0] == 0.5 and traj.times[-1] == pytest.approx(1.5)

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), d=strategies.integers(1, 3),
           t0=strategies.floats(-1.0, 1.0), dt=strategies.floats(1e-4, 0.05),
           steps=strategies.integers(1, 300))
    def test_linear_systems_match_the_allocating_loop_bit_for_bit(self, data, d, t0, dt,
                                                                   steps):
        """qddot = A [q, qdot] + b on the state [q, qdot] of n = 2d entries."""
        n = 2 * d
        entries = strategies.floats(-1.0, 1.0)
        a = np.array(data.draw(strategies.lists(entries, min_size=d * n, max_size=d * n),
                               label="A")).reshape(d, n)
        b = np.array(data.draw(strategies.lists(entries, min_size=d, max_size=d), label="b"))
        y0 = np.array(data.draw(strategies.lists(entries, min_size=n, max_size=n), label="y0"))
        t1 = t0 + steps * dt

        def f(t, q, q_dot):
            return a @ np.concatenate((q, q_dot)) + b

        times, states = rk4_solve(f, y0, t0, t1, dt)
        ref_times, ref_states = rk4_reference(f, y0, t0, t1, dt, split=d)
        assert_same_bits(times, ref_times)
        assert_same_bits(states, ref_states)

    @staticmethod
    def assert_matches_reference(system, q0, qd0, t0, t1, dt):
        traj = integrate_rk4(system, q0, qd0, t0, t1, dt)
        times, states = rk4_reference(system.rhs, np.concatenate((q0, qd0)), t0, t1, dt,
                                      split=len(q0))
        assert_same_bits(traj.times, times)
        assert_same_bits(traj.q, states[:, :len(q0)])
        assert_same_bits(traj.q_dot, states[:, len(q0):])

    def test_harmonic_matches_the_allocating_loop_bit_for_bit(self):
        self.assert_matches_reference(HARMONIC, [1.0], [0.0], 0.0, 2.0, 1e-3)

    @pytest.mark.parametrize("dt", [1e-3, 5e-4])
    @pytest.mark.parametrize("case", range(12))
    def test_residual_cases_match_the_allocating_loop_bit_for_bit(self, case, dt):
        metric, _, loss, q0, qd0 = _residual_cases()[case]
        system = eom_bregman(metric, natural_schedule(1.0, 1.0), loss)
        self.assert_matches_reference(system, q0, qd0, 0.0, 0.05, dt)

    def test_rhs_returning_its_input_or_a_reused_array(self):
        """The stage buffers are reused: a result that is one of f's own
        inputs, a constant, or one array f overwrites on every call, must be
        copied, not aliased."""
        constant = np.array([0.5, -1.0])
        reused = np.empty(2)

        def spring(t, q, q_dot):
            np.negative(q, out=reused)
            reused[1] -= t * q_dot[0]
            return reused

        y0 = np.array([1.0, 2.0, 0.5, -0.5])
        for f in (lambda t, q, qd: q, lambda t, q, qd: qd, lambda t, q, qd: constant, spring):
            _, states = rk4_solve(f, y0, 0.0, 0.1, 0.01)
            _, expected = rk4_reference(f, y0, 0.0, 0.1, 0.01, split=2)
            assert_same_bits(states, expected)
        assert_same_bits(constant, np.array([0.5, -1.0]))

    @pytest.mark.parametrize("stage", [2, 3, 4])
    def test_domain_error_in_a_later_stage_names_the_step_start(self, stage):
        calls = []

        def f(t, q, q_dot):
            calls.append(t)
            if len(calls) == 4 * 3 + stage:  # stage `stage` of the step from times[3]
                raise DomainError("outside")
            return -q

        with pytest.raises(IntegrationError, match="rhs left its domain: outside") as caught:
            rk4_solve(f, [1.0, 0.0], 0.0, 1.0, 0.125)
        assert caught.value.time == 0.375

    def test_nan_after_the_last_stage_names_the_step_end(self):
        calls = []

        def f(t, q, q_dot):
            calls.append(t)
            return -q if len(calls) < 4 * 5 + 4 else np.array([np.nan])

        with pytest.raises(IntegrationError, match="no longer finite") as caught:
            rk4_solve(f, [1.0, 0.0], 0.0, 1.0, 0.125)
        assert caught.value.time == 0.75

    def test_non_finite_state_aborts_with_its_time(self):
        # the last stage of the step from t = 0.4 turns the state NaN at t = 0.5
        with pytest.raises(IntegrationError, match="no longer finite") as caught:
            rk4_solve(lambda t, q, qd: -q if t < 0.5 else q * np.nan, [1.0, 0.0],
                      0.0, 1.0, 0.1)
        assert caught.value.time == pytest.approx(0.5)

    def test_non_finite_initial_state_aborts_at_t0(self):
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(IntegrationError, match="initial state") as caught:
                rk4_solve(lambda t, q, qd: -q, np.array([1.0, bad]), 0.25, 1.0, 0.25)
            assert caught.value.time == 0.25
            with pytest.raises(IntegrationError, match="initial state") as caught:
                integrate_rk4(HARMONIC, [1.0], [bad], 0.25, 1.0, 0.25)
            assert caught.value.time == 0.25

    SHAPES = strategies.lists(strategies.integers(0, 4), max_size=3).map(tuple)

    @settings(max_examples=100, deadline=None)
    @given(case=strategies.integers(0, 11), q_shape=SHAPES, qdot_shape=SHAPES)
    @example(case=0, q_shape=(3,), qdot_shape=(3,))
    @example(case=3, q_shape=(2,), qdot_shape=(3,))
    @example(case=3, q_shape=(1,), qdot_shape=(1,))
    @example(case=0, q_shape=(4,), qdot_shape=(4,))
    @example(case=3, q_shape=(1, 2), qdot_shape=(1, 2))
    @example(case=5, q_shape=(2, 1), qdot_shape=(2, 1))
    @example(case=8, q_shape=(2,), qdot_shape=(2, 1))
    def test_a_start_is_two_points_of_the_systems_dim(self, case, q_shape, qdot_shape):
        """q0 and qdot0 of any shapes: two points of the system's dim
        integrate, and anything else, (1,), (dim + 1,), (1, dim) and (dim, 1)
        among them, is a ValueError that names the dim and both shapes."""
        metric, _, loss, q0, qd0 = _residual_cases()[case]
        system = eom_bregman(metric, natural_schedule(1.0, 0.5), loss)
        q0, qd0 = np.resize(q0, q_shape), np.resize(qd0, qdot_shape)
        if q_shape == qdot_shape == (metric.dim,):
            assert integrate_rk4(system, q0, qd0, 0.0, 0.01, 1e-3).q.shape == (11, metric.dim)
            return
        with pytest.raises(ValueError, match=f"dim {metric.dim}") as caught:
            integrate_rk4(system, q0, qd0, 0.0, 0.01, 1e-3)
        assert f"shapes {q_shape} and {qdot_shape}" in str(caught.value)


class TestLockstep:
    @settings(max_examples=40, deadline=None)
    @given(order=strategies.permutations(range(12)), count=strategies.integers(1, 12),
           mu=strategies.one_of(strategies.floats(-10.0, 2.0),
                                strategies.sampled_from([-200.0, -1000.0, -1e4, -1e5, 1e4])),
           dt=strategies.sampled_from([1e-3, 0.01]), steps=strategies.integers(1, 40))
    @example(order=list(range(12)), count=12, mu=-1000.0, dt=0.01, steps=40)
    # no shared metric or loss object next to another: the kernel regroups them
    @example(order=list(range(11, -1, -1)), count=12, mu=0.5, dt=0.01, steps=40)
    # the pass first fails in a fine-only step: its state turns non-finite
    @example(order=[10] + list(range(10)) + [11], count=1, mu=-1000.0, dt=1e-3, steps=40)
    @example(order=[3, 6, 10, 7] + [0, 1, 2, 4, 5, 8, 9, 11], count=4, mu=1e4, dt=0.01,
             steps=24)
    def test_each_outcome_is_the_systems_solo_run(self, order, count, mu, dt, steps):
        """Any subset of the residual cases, in any order: on each grid, each
        system gets the bits integrate_rk4 gives it alone, and a system that
        leaves its domain or stops being finite gets the exception its solo
        run raises, at the same time, while the others keep their
        trajectories."""
        cases = _residual_cases()
        schedule = natural_schedule(1.0, mu)
        problems = [(eom_bregman(metric, schedule, loss), q0, qd0)
                    for metric, _, loss, q0, qd0 in (cases[i] for i in order[:count])]
        with np.errstate(all="ignore"):  # as the CLI runs it
            lockstep_outcomes(problems, steps * dt, dt)

    @settings(max_examples=20, deadline=None)
    @given(order=strategies.permutations(range(12)), count=strategies.integers(1, 12),
           n=strategies.floats(1.0, 4.0), c=strategies.floats(0.05, 1.0),
           dt=strategies.sampled_from([1e-3, 0.01]), steps=strategies.integers(1, 40))
    def test_each_grid_takes_its_own_stage_times(self, order, count, n, c, dt, steps):
        """Under nesterov_schedule, on [0.5, 0.5 + t1], the coefficients
        change with t, so each grid's rows must see its own stage times."""
        cases = _residual_cases()
        schedule = nesterov_schedule(n, c)
        problems = [(eom_bregman(metric, schedule, loss), q0, qd0)
                    for metric, _, loss, q0, qd0 in (cases[i] for i in order[:count])]
        with np.errstate(all="ignore"):
            lockstep_outcomes(problems, 0.5 + steps * dt, dt, t0=0.5)

    def test_a_grid_that_does_not_tile_fails_every_system_as_alone(self):
        problems = [(HARMONIC, [1.0], [0.0]), (HARMONIC, [0.5], [2.0])]
        grids = integrate_rk4_lockstep(problems, 0.0, 1.0, 0.3)
        for outcomes, dt in zip(grids, (0.3, 0.15)):
            with pytest.raises(ValueError) as caught:
                integrate_rk4(HARMONIC, [1.0], [0.0], 0.0, 1.0, dt)
            assert [(type(o), str(o)) for o in outcomes] == [(ValueError, str(caught.value))] * 2


def lockstep_outcomes(problems, t1, dt, t0=0.0):
    """integrate_rk4_lockstep's outcomes on both grids, each checked against
    the system's solo integrate_rk4 run at dt and at dt / 2: the same bits,
    or the same exception type and text."""
    grids = integrate_rk4_lockstep(problems, t0, t1, dt)
    assert len(grids) == 2
    for outcomes, step in zip(grids, (dt, dt / 2.0)):
        assert len(outcomes) == len(problems)
        for (system, q0, qd0), outcome in zip(problems, outcomes):
            try:
                alone = integrate_rk4(system, q0, qd0, t0, t1, step)
            except Exception as exc:
                assert type(outcome) is type(exc) and str(outcome) == str(exc)
                continue
            assert isinstance(outcome, Trajectory)
            assert_same_bits(outcome.times, alone.times)
            assert_same_bits(outcome.q, alone.q)
            assert_same_bits(outcome.q_dot, alone.q_dot)
    return grids


def stacked(outcomes):
    """Whether the outcomes are views of one lockstep result, not solo runs."""
    return all(outcome.q.base is outcomes[0].q.base for outcome in outcomes)


class TestLockstepGrouping:
    """Problems the stacked rhs merges, and problems it leaves to solo runs."""

    SCHEDULE = natural_schedule(1.0, 0.5)

    def residual_problems(self):
        return [(eom_bregman(metric, self.SCHEDULE, loss), q0, qd0)
                for metric, _, loss, q0, qd0 in _residual_cases()]

    def test_one_system_twice_with_different_starts(self):
        problems = []
        for system, q0, qd0 in self.residual_problems():
            problems += [(system, q0, qd0), (system, 1.1 * q0, -qd0)]
        assert all(stacked(outcomes) for outcomes in lockstep_outcomes(problems, 0.2, 0.01))

    def test_a_second_schedule_object_runs_every_system_alone(self):
        problems = self.residual_problems()
        system, q0, qd0 = problems[7]
        problems[7] = (eom_bregman(system.metric, natural_schedule(1.0, 0.25), system.loss),
                       q0, qd0)
        assert not any(stacked(outcomes) for outcomes in lockstep_outcomes(problems, 0.2, 0.01))

    def test_starts_of_other_dims_run_every_system_alone(self):
        """One start too long, one too short and one a row of the right
        length: the state has the length the systems' dims add up to, yet
        all three fail as they do alone."""
        problems = self.residual_problems()
        for i, cut in ((4, slice(None)), (5, slice(1))):
            system, q0, qd0 = problems[i]
            problems[i] = (system, np.append(q0, 1.0)[cut], np.append(qd0, 0.0)[cut])
        system, q0, qd0 = problems[6]
        problems[6] = (system, q0[None], qd0[None])
        for outcomes in lockstep_outcomes(problems, 0.2, 0.01):
            assert all(isinstance(outcome, ValueError) for outcome in outcomes[4:7])
            assert not stacked(outcomes[:4] + outcomes[7:])

    def test_a_half_step_that_does_not_make_twice_the_steps_runs_every_system_alone(self):
        """dt of 5 subnormal ulps halves to 2 (2.5 rounds to even), so both
        grids tile 20 ulps exactly, in 4 steps and in 10, not 8."""
        ulp = 5e-324
        assert grid_steps(0.0, 20 * ulp, 5 * ulp) == 4
        assert grid_steps(0.0, 20 * ulp, 5 * ulp / 2.0) == 10
        grids = lockstep_outcomes(self.residual_problems(), 20 * ulp, 5 * ulp)
        assert [len(outcome.times) for outcome in grids[1]] == [11] * 12
        assert not any(stacked(outcomes) for outcomes in grids)

    def entropy_problems(self, loss=None):
        """The residual problems and a 13th under a second NegativeEntropy(2)
        object, with the rotation case's start and, by default, its loss."""
        problems = self.residual_problems()
        _, _, rotation_loss, q0, qd0 = _residual_cases()[5]
        system = eom_bregman(NegativeEntropy(2), self.SCHEDULE, loss or rotation_loss)
        return problems + [(system, q0, qd0)]

    def test_every_entropy_system_shares_one_metric_call_per_stage(self, monkeypatch):
        """The three NegativeEntropy objects, of dims 3 and 2, act entry by
        entry, so each kernel call makes one grad and one hessian_solve for
        all their rows, of both grids, and every outcome keeps its solo bits."""
        calls = {"grad": 0, "hessian_solve": 0}
        for method in calls:
            def spy(metric, *args, method=method, original=getattr(NegativeEntropy, method)):
                calls[method] += 1
                return original(metric, *args)
            monkeypatch.setattr(NegativeEntropy, method, spy)
        per_kernel_call = []
        build = continuous._bregman_rhs

        def counted_build(*args, **kwargs):
            rhs = build(*args, **kwargs)

            def counted(*rhs_args):
                before = dict(calls)
                result = rhs(*rhs_args)
                per_kernel_call.append({k: calls[k] - before[k] for k in calls})
                return result

            return counted

        # the systems' own rhs, which the solo runs call, are built before the patch
        problems = self.entropy_problems()
        monkeypatch.setattr(continuous, "_bregman_rhs", counted_build)
        grids = lockstep_outcomes(problems, 0.2, 0.01)
        assert all(stacked(outcomes) for outcomes in grids)
        # 20 paired and 20 fine-only RK4 steps of 4 stages
        assert per_kernel_call == [{"grad": 1, "hessian_solve": 1}] * 160

    def test_one_entropy_system_leaving_its_domain_fails_as_alone(self):
        """Under a steep loss the 13th system leaves its domain, in the first
        coarse step and at t = 0.155 on the fine grid, and the other two
        entropy systems stay inside theirs: each outcome is still its solo
        run's, the exception's type and text included."""
        problems = self.entropy_problems(Quadratic(200.0 * np.eye(2)))
        grids = lockstep_outcomes(problems, 0.2, 0.01)
        for outcomes in grids:
            assert [isinstance(outcome, IntegrationError) for outcome in outcomes] == (
                [False] * 12 + [True])
        assert "(t=0.155)" in str(grids[1][12])


class TestModifiedEquation:
    """Heavy ball's finite-step model as modified-eq builds it: mass
    eta (1+beta) / 2 and friction 1-beta, natural_schedule's m and mu."""

    def test_velocity_decay_without_force(self):
        eta, beta = 0.1, 0.5
        loss = Quadratic(np.zeros((1, 1)))
        system = eom_bregman(Euclidean(1), natural_schedule(eta * (1.0 + beta) / 2.0, 1.0 - beta),
                             loss)
        rate = 2.0 * (1.0 - beta) / (eta * (1.0 + beta))
        traj = integrate_rk4(system, [0.0], [1.0], 0.0, 0.5, 1e-3)
        np.testing.assert_allclose(traj.q_dot[-1, 0], np.exp(-rate * 0.5), rtol=1e-8)

    def test_small_step_form_without_momentum(self):
        # beta = 0 recovers (eta/2) qddot + qdot = -g
        loss = Quadratic(np.eye(2))
        system = eom_bregman(Euclidean(2), natural_schedule(0.1 / 2.0, 1.0), loss)
        q = np.array([1.0, -2.0])
        qd = np.array([0.3, 0.0])
        expected = (-qd - loss.grad(q)) * (2.0 / 0.1)
        np.testing.assert_allclose(system.rhs(0.0, q, qd), expected, rtol=1e-14)

    def test_closed_form_flow_is_the_rk4_flow_on_the_acceptance_grid(self, tmp_path):
        """modified-eq's gradient flow (1-beta) qdot = -q, in closed form from
        the first iterate, is the first-order RK4 run of step eta / 100 at
        every iterate, to 1e-12 relative: RK4's global error there is
        T lambda^5 h^4 / 120, about 5e-13 at lambda = 2, h = 1e-3, T = 1.9."""
        cfg = build_config("modified-eq", {"eta": 0.1}, {"out": str(tmp_path)})
        eta, beta = cfg["eta"], cfg["beta"]
        assert run_experiment(cfg)
        rows = np.loadtxt(tmp_path / "modified_eq.csv", delimiter=",", skiprows=1)
        times, q1, flow = rows[:, 0], rows[:1, 1], rows[:, 3]
        assert (times[0], times[-1], beta) == (0.1, 2.0, 0.5)
        _, rk4 = rk4_reference(lambda t, y: -y / (1.0 - beta), q1, eta, times[-1],
                               eta / MODIFIED_EQ_REFINE)
        np.testing.assert_allclose(flow, rk4[::MODIFIED_EQ_REFINE, 0], rtol=1e-12, atol=0.0)


class TestBregmanEuclidean:
    def test_natural_preset_is_newtonian(self):
        m, mu = 0.5, 0.7
        loss = Quadratic(np.diag([2.0, 1.0]))
        system = eom_bregman(Euclidean(2), natural_schedule(m, mu), loss)
        rng = np.random.default_rng(0)
        for _ in range(10):
            q, qd = rng.standard_normal(2), rng.standard_normal(2)
            expected = -(mu * qd + loss.grad(q)) / m
            np.testing.assert_allclose(system.rhs(1.3, q, qd), expected, rtol=1e-12)

    def test_nesterov_damping_coefficient(self):
        loss = Quadratic(np.zeros((1, 1)))
        system = eom_bregman(Euclidean(1), nesterov_schedule(2.0, 0.25), loss)
        # damping (n+1)/t = 3/2 at t = 2
        np.testing.assert_allclose(system.rhs(2.0, np.array([1.0]), np.array([1.0])),
                                   [-1.5], rtol=1e-14)

    @pytest.mark.parametrize("metric_name", ["euclidean", "quadratic-form", "negative-entropy"])
    def test_trajectories_satisfy_the_variational_condition(self, metric_name):
        """Independent oracle for the general system: along its trajectories,
        d/dt of dL/dqdot must equal dL/dq, with both sides taken by finite
        differences of the Lagrangian value itself.  The problems are the
        charge-balance experiment's scale cases."""
        metric, _, loss, q0, qd0 = next(case for case in _residual_cases()
                                        if (case[0].name, case[1].name) == (metric_name, "scale"))
        sched = natural_schedule(1.0, 1.0)
        traj = integrate_rk4(eom_bregman(metric, sched, loss), q0, qd0, 0.0, 0.5, 1e-3)

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

    METRICS = {"euclidean": Euclidean, "negative-entropy": NegativeEntropy,
               "quadratic-form": lambda dim: QuadraticForm(
                   np.array([[2.0, 0.3, 0.0], [0.3, 1.2, 0.1], [0.0, 0.1, 1.5]])[:dim, :dim])}
    # flat: a zero gradient everywhere, so at zero damping every drive entry
    # is 0 * Delta_h, a zero that carries the sign of Delta_h; the 2-D losses
    # are the charge-balance cases', and a chain fitted to several samples
    LOSSES = {"quadratic": Quadratic(np.diag([1.0, 2.0, 0.5])),
              "flat": Quadratic(np.zeros((3, 3))),
              **{loss.name: loss for _, _, loss, _, _ in _residual_cases() if loss.dim == 2},
              "chain-samples": TwoLayerChain([0.5, 1.0, 2.0], [1.0, -0.5, 0.3])}
    VELOCITY_ENTRY = strategies.one_of(strategies.sampled_from([0.0, -0.0]),
                                       strategies.floats(-0.15, 0.15))

    @settings(max_examples=400, deadline=None)
    @given(metric=strategies.sampled_from(sorted(METRICS)),
           loss=strategies.sampled_from(sorted(LOSSES)),
           schedule=strategies.sampled_from(["zero-damping", "unit-mass", "random-mass",
                                             "nesterov"]),
           m=strategies.floats(0.1, 1.0), mu=strategies.floats(-2.0, 2.0),
           t=strategies.floats(0.05, 1.0), other_t=strategies.floats(0.05, 1.0),
           q=strategies.lists(strategies.floats(0.2, 3.0), min_size=3, max_size=3),
           q_dot=strategies.lists(VELOCITY_ENTRY, min_size=3, max_size=3))
    @example(metric="quadratic-form", loss="flat", schedule="zero-damping", m=1.0, mu=1.0,
             t=0.5, other_t=0.25, q=[1.0, 1.0, 1.0], q_dot=[0.0, -0.1, 0.0])
    # a mass whose e^-alpha = e^(log m) is not 1 / e^alpha to the last bit, seen
    # through u = qdot at q = 0
    @example(metric="euclidean", loss="flat", schedule="random-mass", m=0.6732655185893088,
             mu=0.3, t=0.5, other_t=0.25, q=[0.0, 0.0, 0.0], q_dot=[0.1, -0.13, 0.07])
    # modified-eq's two models: heavy ball at eta 0.1, beta 0.5 (mass eta (1+beta) / 2
    # = 0.075, friction 0.5), and accelerated gradient from its anchor time 0.2
    @example(metric="euclidean", loss="quadratic", schedule="random-mass", m=0.075, mu=0.5,
             t=0.5, other_t=0.25, q=[1.0, 0.6, 0.3], q_dot=[-0.1, 0.05, 0.0])
    @example(metric="euclidean", loss="quadratic", schedule="nesterov", m=1.0, mu=1.0,
             t=0.2, other_t=0.25, q=[1.0, 0.6, 0.3], q_dot=[-0.1, 0.05, 0.0])
    def test_rhs_matches_the_unskipped_products_bit_for_bit(self, metric, loss, schedule,
                                                            m, mu, t, other_t, q, q_dot):
        """eom_bregman computes a stationary schedule's coefficients once,
        skips each product by one that is exactly 1.0, as natural_schedule(1, mu)
        has, takes Delta_h from one metric call on the stack [u, q], and a flat
        metric's as u - q with no Hessian solve; the oracle evaluates the
        coefficients at t, multiplies every one in and calls the metric on
        each point.  e^-alpha <= 1 keeps u = q + e^-alpha qdot in the entropy
        domain."""
        sched = {"zero-damping": natural_schedule(1.0, 1.0),
                 "unit-mass": natural_schedule(1.0, mu),
                 "random-mass": natural_schedule(m, mu),
                 "nesterov": nesterov_schedule(2.0, 0.25)}[schedule]
        loss = self.LOSSES[loss]
        metric = self.METRICS[metric](loss.dim)
        q, q_dot = np.array(q[:loss.dim]), np.array(q_dot[:loss.dim])
        rhs = eom_bregman(metric, sched, loss).rhs
        assert_same_bits(rhs(t, q, q_dot), bregman_rhs(metric, sched, loss, t, q, q_dot))
        if sched.stationary:
            assert_same_bits(rhs(other_t, q, q_dot), rhs(t, q, q_dot))

    @settings(max_examples=300, deadline=None)
    @given(loss=strategies.sampled_from(sorted(LOSSES)),
           schedule=strategies.sampled_from(["zero-damping", "random-mass", "nesterov"]),
           m=strategies.floats(0.1, 1.0), mu=strategies.floats(-2.0, 2.0),
           t=strategies.floats(0.05, 1.0), gap=strategies.integers(1, 3),
           q=strategies.lists(strategies.floats(-3.0, 3.0), min_size=3, max_size=3),
           q_dot=strategies.lists(VELOCITY_ENTRY, min_size=3, max_size=3))
    def test_a_solo_flat_rhs_reads_strided_views_as_copies_and_never_writes_q(
            self, loss, schedule, m, mu, t, gap, q, q_dot):
        """One system of a flat metric takes Delta_h = u - q and its loss
        gradient from q itself, with no copy.  On q and qdot as interleaved
        strided views of a read-only stage buffer, so that any write into
        them raises, the rhs gives the bits it gives on contiguous copies,
        and the oracle's."""
        sched = {"zero-damping": natural_schedule(1.0, 1.0),
                 "random-mass": natural_schedule(m, mu),
                 "nesterov": nesterov_schedule(2.0, 0.25)}[schedule]
        loss = self.LOSSES[loss]
        dim = loss.dim
        assume(math.hypot(*q[:dim]) > 0.1)  # away from the Rayleigh and radial origins
        stage = np.zeros((dim, 2 * gap))
        stage[:, 0], stage[:, gap] = q[:dim], q_dot[:dim]
        stage.flags.writeable = False
        q, q_dot = stage[:, 0], stage[:, gap]
        rhs = eom_bregman(Euclidean(dim), sched, loss).rhs
        assert_same_bits(rhs(t, q, q_dot), rhs(t, q.copy(), q_dot.copy()))
        assert_same_bits(rhs(t, q, q_dot), bregman_rhs(Euclidean(dim), sched, loss, t, q, q_dot))

    @pytest.mark.parametrize("mu", [-6.0, -200.0])
    @pytest.mark.parametrize("case", [case for case, (metric, *_) in enumerate(_residual_cases())
                                      if metric.name == "negative-entropy"])
    def test_entropy_trajectory_aborts_where_one_point_at_a_time_does(self, case, mu):
        """One domain check on the stack [u, q] raises exactly where the
        oracle's checks of u, then q, do: an anti-damped entropy trajectory
        aborts at the same step, for the same reason, as the allocating loop
        on the oracle's rhs.  At mu = -6 the scale case stays in its domain
        until t = 1; at mu = -200 it overflows first."""
        metric, _, loss, q0, qd0 = _residual_cases()[case]
        sched = natural_schedule(1.0, mu)

        def abort(solve):
            try:
                with np.errstate(all="ignore"):  # as the CLI runs it
                    solve()
            except IntegrationError as exc:
                return exc.time, str(exc).split(":")[0]
            return None

        ours = abort(lambda: integrate_rk4(eom_bregman(metric, sched, loss), q0, qd0,
                                           0.0, 1.0, 1e-3))
        oracle = abort(lambda: rk4_reference(
            lambda t, q, q_dot: bregman_rhs(metric, sched, loss, t, q, q_dot),
            np.concatenate((q0, qd0)), 0.0, 1.0, 1e-3, split=q0.size))
        assert ours == oracle
        assert ours is not None or (mu == -6.0 and loss.name == "rayleigh")

    def test_only_natural_schedules_are_stationary(self):
        hand_built = BregmanSchedule("hand-built", alpha=math.sin, beta=math.cos,
                                     gamma=math.exp, alpha_dot=math.cos,
                                     gamma_dot=math.exp)
        assert not hand_built.stationary
        assert not nesterov_schedule(2.0, 0.25).stationary
        assert natural_schedule(0.5, 0.7).stationary

    def test_a_loss_of_another_dim_is_refused(self):
        with pytest.raises(ValueError, match="share one dim"):
            eom_bregman(Euclidean(3), natural_schedule(1.0, 0.5), TwoLayerChain([1.0], [1.0]))

    def test_subnormal_mass_aborts_as_non_finite(self):
        # e^alpha = 1/m is past float range: an inf coefficient, which RK4's
        # finiteness check aborts on, not an OverflowError from building
        system = eom_bregman(Euclidean(1), natural_schedule(5e-311, 0.5), Quadratic(np.eye(1)))
        with np.errstate(all="ignore"), pytest.raises(IntegrationError, match="no longer finite"):
            integrate_rk4(system, [1.0], [0.0], 0.0, 4e-310, 1e-310)

    def test_energy_dissipates_with_friction(self):
        m, mu = 0.5, 1.0
        loss = Quadratic(np.diag([2.0, 1.0]))
        traj = integrate_rk4(eom_bregman(Euclidean(2), natural_schedule(m, mu), loss),
                             [1.0, -0.7], [0.3, 0.1], 0.0, 4.0, 1e-3)
        energy = 0.5 * m * np.sum(traj.q_dot ** 2, axis=1) \
            + np.array([loss.value(q) for q in traj.q])
        assert np.max(np.diff(energy)) <= 1e-9
