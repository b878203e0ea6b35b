"""Discrete update rules against hand-rolled oracles, and the `simulate` loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies

from noetherdyn import (
    IntegrationError,
    OptimizerState,
    Quadratic,
    RayleighQuotient,
    centered_velocities,
    simulate,
    step_gd_momentum_wd,
    step_nesterov,
    step_rmsprop,
)


def iterates(state):
    return state.q


def shown(states, observe=iterates):
    """observe, appending each state it is shown to `states`."""
    def record(state):
        states.append(state)
        return observe(state)
    return record


class TestHeavyBall:
    def test_single_gd_step(self):
        loss = Quadratic(np.eye(1))
        st = step_gd_momentum_wd(OptimizerState.initial([1.0]), loss, 0.1)
        assert st.q[0] == pytest.approx(0.9)
        assert st.step_index == 1

    def test_stationary_point_is_fixed(self):
        loss = Quadratic(np.eye(2))
        st0 = OptimizerState.initial([0.0, 0.0])
        st1 = step_gd_momentum_wd(st0, loss, 0.1, beta=0.5)
        np.testing.assert_array_equal(st1.q, st0.q)
        assert st1.step_index == 1

    def test_two_momentum_steps_hand_rolled(self):
        # buffer: -0.1, then 0.5*(-0.1) - 0.1*0.9 = -0.14
        loss = Quadratic(np.eye(1))
        st = OptimizerState.initial([1.0])
        st = step_gd_momentum_wd(st, loss, 0.1, beta=0.5)
        assert st.q[0] == pytest.approx(0.9)
        st = step_gd_momentum_wd(st, loss, 0.1, beta=0.5)
        assert st.q[0] == pytest.approx(0.76)

    def test_weight_decay_enters_the_buffer(self):
        loss = Quadratic(np.zeros((1, 1)))
        st = step_gd_momentum_wd(OptimizerState.initial([2.0]), loss, 0.1,
                                 weight_decay=0.5)
        assert st.q[0] == pytest.approx(2.0 - 0.1 * 0.5 * 2.0)


class TestNesterov:
    def test_zero_gradient_is_fixed_point(self):
        loss = Quadratic(np.zeros((2, 2)))
        st0 = OptimizerState.initial([1.0, -1.0])
        st1 = step_nesterov(st0, loss, 0.1)
        np.testing.assert_array_equal(st1.q, st0.q)

    def test_first_step_is_plain_gradient_descent(self):
        loss = Quadratic(np.eye(1))
        st = step_nesterov(OptimizerState.initial([1.0]), loss, 0.1)
        assert st.q[0] == pytest.approx(0.9)

    def test_momentum_kicks_in_at_third_step(self):
        # lookahead uses (k-1)/(k+2): zero for k = 0, 1; 1/4 at k = 2
        loss = Quadratic(np.eye(1))
        _, qs = simulate(lambda s: step_nesterov(s, loss, 0.1),
                         OptimizerState.initial([1.0]), 3, iterates, np.sqrt(0.1))
        x0, x1 = 1.0, 0.9
        x2 = x1 - 0.1 * x1
        y2 = x2 + 0.25 * (x2 - x1)
        x3 = y2 - 0.1 * y2
        np.testing.assert_allclose(qs[:, 0], [x0, x1, x2, x3], rtol=1e-14)


class TestRmsprop:
    def test_hand_rolled_step(self):
        loss = Quadratic(np.eye(1))
        st = OptimizerState.initial([1.0], accumulator=1.0)
        st = step_rmsprop(st, loss, 0.1, 0.9)
        assert st.q[0] == pytest.approx(0.9)
        assert st.accumulator == pytest.approx(1.0)  # 0.9*1 + 0.1*1

    def test_constant_gradient_norm_fixes_accumulator(self):
        class Slope:  # f(q) = 3 q1 + 4 q2: |g| = 5 everywhere
            def grad(self, q):
                return np.array([3.0, 4.0])

        st = OptimizerState.initial([0.0, 0.0], accumulator=25.0)
        for _ in range(10):
            st = step_rmsprop(st, Slope(), 0.01, 0.9)
            assert st.accumulator == pytest.approx(25.0)

    def test_zero_gradient_decays_accumulator_geometrically(self):
        loss = Quadratic(np.zeros((1, 1)))
        st = OptimizerState.initial([1.0], accumulator=8.0)
        for n in range(1, 5):
            st = step_rmsprop(st, loss, 0.01, 0.5)
            assert st.q[0] == 1.0
            assert st.accumulator == pytest.approx(8.0 * 0.5 ** n)


class TestDeterminism:
    def test_bitwise_identical_replays(self):
        loss = RayleighQuotient(np.diag([1.0, 2.0, 3.0]))
        rng = np.random.default_rng(123)
        q0 = rng.standard_normal(3)

        def trajectory():
            st = OptimizerState.initial(q0)
            out = []
            for _ in range(200):
                st = step_gd_momentum_wd(st, loss, 1e-3, beta=0.5)
                out.append(st.q.copy())
            return np.array(out)

        a, b = trajectory(), trajectory()
        assert a.tobytes() == b.tobytes()


class TestSimulate:
    def test_records_initial_state_and_every_step(self):
        loss = Quadratic(np.eye(2))
        st0 = OptimizerState.initial([1.0, -2.0])
        states = []
        _, qs = simulate(lambda s: step_gd_momentum_wd(s, loss, 0.1), st0, 4, shown(states), 0.1)
        final = states[-1]
        assert qs.shape == (5, 2)
        np.testing.assert_array_equal(qs[0], st0.q)
        np.testing.assert_array_equal(qs[-1], final.q)
        assert final.step_index == 4

    def test_zero_steps_records_only_the_initial_state(self):
        st0 = OptimizerState.initial([3.0])
        states = []
        _, qs = simulate(lambda s: pytest.fail("step must not run"), st0, 0, shown(states), 1.0)
        assert len(states) == 1 and states[0] is st0
        np.testing.assert_array_equal(qs, [[3.0]])

    def test_tuple_observation_gives_one_column_per_element(self):
        loss = Quadratic(np.diag([1.0, 3.0]))
        states = []
        _, record = simulate(lambda s: step_rmsprop(s, loss, 0.01, 0.9),
                             OptimizerState.initial([1.0, 1.0], accumulator=2.0), 6,
                             shown(states, lambda s: (s.q @ s.q, s.accumulator)), 0.01)
        final = states[-1]
        assert record.shape == (7, 2)
        assert record[0].tolist() == [2.0, 2.0]
        assert record[-1].tolist() == [final.q @ final.q, final.accumulator]

    def test_diverging_run_aborts_at_its_first_non_finite_step(self):
        # q_n = (-2)^n, so |q_n|^2 = 4^n first overflows at n = 512, at t = 512 * 3
        loss = Quadratic(np.eye(1))
        with pytest.raises(IntegrationError, match=r"after step 512 \(t=1536\)$") as caught, \
                np.errstate(over="ignore"):
            simulate(lambda s: step_gd_momentum_wd(s, loss, 3.0),
                     OptimizerState.initial([1.0]), 600, lambda s: s.q @ s.q, 3.0)
        assert caught.value.time == 1536.0

    @settings(max_examples=50, deadline=None)
    @given(q0=strategies.lists(strategies.floats(-10.0, 10.0), min_size=3, max_size=3),
           eta=strategies.floats(1e-4, 0.5),
           steps=strategies.integers(0, 60))
    def test_bit_identical_to_hand_rolled_loop(self, q0, eta, steps):
        loss = Quadratic(np.diag([1.0, 2.0, 3.0]))
        step = lambda s: step_gd_momentum_wd(s, loss, eta, beta=0.5, weight_decay=1e-3)  # noqa: E731
        state = OptimizerState.initial(q0)
        expected = np.empty(steps + 1)
        expected[0] = state.q @ state.q
        for n in range(steps):
            state = step(state)
            expected[n + 1] = state.q @ state.q
        states = []
        _, record = simulate(step, OptimizerState.initial(q0), steps,
                             shown(states, lambda s: s.q @ s.q), eta)
        assert record.tobytes() == expected.tobytes()
        assert states[-1].q.tobytes() == state.q.tobytes()

    @settings(max_examples=50, deadline=None)
    @given(dt=strategies.floats(1e-6, 1e3), steps=strategies.integers(0, 60),
           data=strategies.data())
    def test_times_are_the_step_grid_and_an_abort_names_its_row(self, dt, steps, data):
        """times is dt * np.arange(steps + 1) bit for bit, and a run whose
        record first stops being finite at row n aborts at times[n]."""
        step = lambda s: step_gd_momentum_wd(s, Quadratic(np.zeros((1, 1))), 0.1)  # noqa: E731
        times, _ = simulate(step, OptimizerState.initial([1.0]), steps, iterates, dt)
        assert times.tobytes() == (dt * np.arange(steps + 1)).tobytes()
        n = data.draw(strategies.integers(0, steps))
        with pytest.raises(IntegrationError) as caught:
            simulate(step, OptimizerState.initial([1.0]), steps,
                     lambda s: np.nan if s.step_index >= n else 1.0, dt)
        assert caught.value.time == times[n]


def test_centered_velocity_export():
    qs = np.array([[0.0], [0.1], [0.4], [0.9]])
    v = centered_velocities(qs, 0.1)
    np.testing.assert_allclose(v[:, 0], [2.0, 4.0])
    with pytest.raises(ValueError):
        centered_velocities(qs[:2], 0.1)
