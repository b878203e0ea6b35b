"""Loss values, analytic gradients, and exact symmetries."""

import math
import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies
from hypothesis.extra.numpy import arrays

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
from noetherdyn.continuous import _rows
from noetherdyn.harness.experiments import _residual_cases
from noetherdyn.losses import _ORIGIN_TOL
from oracles import assert_same_bits, chain_grad, fd_gradient, rayleigh_grad


def all_losses():
    rng = np.random.default_rng(0)
    a = rng.standard_normal((3, 3))
    sym = (a + a.T) / 2
    return [
        RayleighQuotient(sym),
        TwoLayerChain([1.0, 2.0], [1.0, 0.5]),
        RadialWell(1.0, 25.0, 3),
        Quadratic(np.diag([1.0, 2.0, 3.0])),
    ]


def sample_point(loss, rng):
    q = rng.standard_normal(loss.dim)
    if isinstance(loss, (RayleighQuotient, RadialWell)) and np.linalg.norm(q) < 0.3:
        q = q + 1.0
    return q


class TestValues:
    def test_rayleigh_eigenvector_and_scale(self):
        r = RayleighQuotient(np.diag([1.0, 2.0]))
        assert r.value(np.array([1.0, 0.0])) == pytest.approx(1.0)
        assert r.value(np.array([2.0, 0.0])) == pytest.approx(1.0)

    def test_two_layer_chain_hand_value(self):
        tl = TwoLayerChain([1.0], [1.0])
        assert tl.value([1.5, 0.5]) == pytest.approx(0.5 * (0.75 - 1.0) ** 2)

    def test_origin_singularity(self):
        r = RayleighQuotient(np.eye(2))
        with pytest.raises(SingularLossError):
            r.value(np.array([0.0, 0.0]))
        with pytest.raises(SingularLossError):
            r.grad(np.array([0.0, 1e-13]))
        for method in (r.value, r.grad):  # singular up to |q| = 1e-12, inclusive
            with pytest.raises(SingularLossError):
                method(np.array([1e-12, 0.0]))
            method(np.array([2e-12, 0.0]))


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
        np.testing.assert_allclose(r.grad(np.array([1.0, 0.0])), [0.0, 0.0], atol=1e-15)

    def test_quadratic_identity_gradient(self):
        q = Quadratic(np.eye(2))
        np.testing.assert_allclose(q.grad(np.array([3.0, 4.0])), [3.0, 4.0])

    def test_all_gradients_match_finite_differences(self):
        rng = np.random.default_rng(1)
        for loss in all_losses():
            for _ in range(100):
                q = sample_point(loss, rng)
                g = loss.grad(q)
                g_fd = fd_gradient(loss.value, q)
                np.testing.assert_allclose(g, g_fd, rtol=1e-6, atol=1e-7,
                                           err_msg=loss.name)


class TestGradientBits:
    """The gradients keep the bits of their first form (tests/oracles.py)."""

    ENTRY = strategies.floats(-10.0, 10.0)
    EXAMPLE = np.array([[1.0, 0.3, 0.0, 0.0], [0.3, -2.0, 0.0, 0.0],
                        [0.0, 0.0, 1.0, 0.0], [0.0, 0.0, 0.0, 1.0]])

    @settings(max_examples=400, deadline=None)
    @given(a=arrays(np.float64, (4, 4), elements=ENTRY),
           direction=arrays(np.float64, 4, elements=ENTRY), dim=strategies.integers(1, 4),
           log_norm=strategies.floats(math.log10(_ORIGIN_TOL) + 1e-9, 308.0))
    @example(a=EXAMPLE, direction=np.array([0.6, 0.8, 0.0, 0.0]), dim=2,
             log_norm=-12.0 + 1e-9)  # just off the origin
    @example(a=EXAMPLE, direction=np.array([0.6, 0.8, 0.0, 0.0]), dim=2,
             log_norm=154.13)  # |q|^2 has just overflowed
    # |q|^2 and q.Aq overflow, f is NaN
    @example(a=EXAMPLE, direction=np.array([0.6, 0.8, 0.0, 0.0]), dim=2, log_norm=300.0)
    # q.Aq is finite, f is 0, and 2t overflows where t does not
    @example(a=np.array([[0.0, 0.5, 0.0, 0.0], [0.5, 0.0, 0.0, 0.0], [0.0] * 4, [0.0] * 4]),
             direction=np.array([10.0, 1e-309, 0.0, 0.0]), dim=2, log_norm=308.0)
    def test_rayleigh_gradient_keeps_its_bits(self, a, direction, dim, log_norm):
        """The gradient against 2 (A q - f q) / |q|^2 with Python floats, for
        |q| from just above the origin tolerance to 1e308, past 1.3e154 where
        |q|^2 overflows to inf and f is NaN or 0."""
        a = a[:dim, :dim] + a[:dim, :dim].T  # exactly symmetric
        direction = direction[:dim]
        length = math.sqrt(direction @ direction)
        assume(length > 0.1)
        q = direction * (10.0 ** log_norm / length)
        with np.errstate(over="ignore", invalid="ignore"):
            assume(math.sqrt(q @ q) > _ORIGIN_TOL)
            assert_same_bits(RayleighQuotient(a).grad(q), rayleigh_grad(a, q))

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), calls=strategies.integers(2, 6))
    def test_rayleigh_objects_called_in_turn_keep_their_bits(self, data, calls):
        """Each point call stores f and |q|^2 / 2 in the loss object's own
        0-d arrays.  Two objects of any dims, called in turn, with and
        without `out`: every result is still the oracle's after all the
        calls, so no call disturbs another object's values and no result
        is an array that a later call writes."""
        objects = []
        for _ in range(2):
            dim = data.draw(strategies.integers(1, 4))
            a = data.draw(arrays(np.float64, (dim, dim), elements=self.ENTRY))
            objects.append(RayleighQuotient(a + a.T))
        results = []
        for i in range(calls):
            loss = objects[i % 2]
            q = data.draw(arrays(np.float64, loss.dim, elements=self.ENTRY))
            assume(math.sqrt(q @ q) > 0.1)
            out = np.empty(loss.dim) if data.draw(strategies.booleans()) else None
            got = loss.grad(q, out=out)
            assert out is None or got is out
            results.append((got, rayleigh_grad(loss.matrix, q)))
        for got, expected in results:
            assert_same_bits(got, expected)

    @settings(max_examples=300, deadline=None)
    @given(samples=strategies.lists(strategies.tuples(strategies.floats(-1e3, 1e3),
                                                      strategies.floats(-1e3, 1e3)),
                                    min_size=1, max_size=8),
           q=strategies.tuples(strategies.floats(-1e3, 1e3), strategies.floats(-1e3, 1e3)))
    def test_chain_gradient_keeps_its_bits(self, samples, q):
        """Several samples, zeros among them: a zero input or target makes
        every product resid_j x_j a signed zero, where dot and matmul sum
        to zeros of different signs."""
        x, y = (np.array(column) for column in zip(*samples))
        q = np.array(q)
        assert_same_bits(TwoLayerChain(x, y).grad(q), chain_grad(x, y, q))


class TestStacks:
    """grad of a (B, dim) stack gives each row the bits of its one-point call,
    on a column slice (integrate_rk4_lockstep passes rows at a step past
    dim) and on a contiguous stack."""

    FAMILIES = ["rayleigh", "two-layer-chain", "radial-well", "quadratic"]
    ENTRY = strategies.floats(-10.0, 10.0)

    def draw_loss(self, data, family):
        if family == "two-layer-chain":
            samples = data.draw(arrays(np.float64, (data.draw(strategies.integers(1, 4)), 2),
                                       elements=strategies.one_of(strategies.just(0.0),
                                                                  self.ENTRY)))
            return TwoLayerChain(samples[:, 0], samples[:, 1])
        dim = data.draw(strategies.integers(1, 4))
        if family == "radial-well":
            return RadialWell(data.draw(self.ENTRY), data.draw(self.ENTRY), dim)
        a = data.draw(arrays(np.float64, (dim, dim), elements=self.ENTRY))
        return (RayleighQuotient if family == "rayleigh" else Quadratic)(a + a.T)

    def draw_rows(self, data, count, dim):
        """(count, 2 dim) rows, each of norm 1e-11 to past float range."""
        rows = data.draw(arrays(np.float64, (count, 2 * dim), elements=self.ENTRY))
        assume((np.abs(rows.reshape(count, 2, dim)) > 0.1).any(axis=2).all())
        log_norms = data.draw(arrays(np.float64, (count, 1),
                                     elements=strategies.floats(-11.0, 308.0)))
        with np.errstate(over="ignore"):
            return rows * 10.0 ** log_norms

    @settings(max_examples=400, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(FAMILIES),
           count=strategies.integers(1, 8))
    def test_stack_gives_each_row_its_own_bits(self, data, family, count):
        loss = self.draw_loss(data, family)
        rows = self.draw_rows(data, count, loss.dim)
        with np.errstate(all="ignore"):
            for q in (rows[:, :loss.dim], np.ascontiguousarray(rows[:, loss.dim:])):
                assert_same_bits(loss.grad(q), np.array([loss.grad(point) for point in q]))

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(["rayleigh", "radial-well"]),
           count=strategies.integers(2, 8), nan_row=strategies.booleans())
    def test_a_stack_with_one_singular_row_raises(self, data, family, count, nan_row):
        """One row of norm under 1e-12 raises, also past a NaN row."""
        loss = self.draw_loss(data, family)
        rows = self.draw_rows(data, count, loss.dim)
        singular, other = data.draw(strategies.permutations(range(count)))[:2]
        rows[singular] = data.draw(arrays(np.float64, 2 * loss.dim, elements=strategies.floats(
            -1.0, 1.0))) * (0.5 * _ORIGIN_TOL / math.sqrt(loss.dim))
        if nan_row:
            rows[other] = math.nan
        with np.errstate(all="ignore"):
            for q in (rows[:, :loss.dim], np.ascontiguousarray(rows[:, loss.dim:])):
                with pytest.raises(SingularLossError):
                    loss.grad(q)

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), family=strategies.sampled_from(FAMILIES),
           grids=strategies.integers(1, 2), count=strategies.integers(1, 4),
           gap=strategies.integers(0, 3))
    def test_out_takes_the_bits_in_a_strided_view(self, data, family, grids, count, gap):
        """grad(q, out=) writes each row's own bits into a view of a larger
        buffer laid out as the lockstep kernel's: rows `dim + gap` apart in
        a (grids, n) state, `_rows` of it, and leaves the rest untouched; a
        point writes them into a row of a (rows, dim) block, as a discrete
        stepper does."""
        loss = self.draw_loss(data, family)
        dim = loss.dim
        run = [1 + i * (dim + gap) for i in range(count)]
        n = run[-1] + dim + 1
        rows = self.draw_rows(data, grids * count, dim)[:, :dim].reshape(grids, count, dim)
        state = np.full((grids, n) if grids > 1 else (n,), 7.0)
        q = _rows(state, run, dim)
        q[...] = rows.reshape(q.shape)
        buffer = np.full_like(state, np.nan)
        out = _rows(buffer, run, dim)
        with np.errstate(all="ignore"):
            expected = loss.grad(q)
            assert loss.grad(q, out=out) is not None
            assert_same_bits(out, expected)
            assert_same_bits(out, np.array([loss.grad(point) for point in
                                            q.reshape(-1, dim)]).reshape(q.shape))
            untouched = np.ones(buffer.shape, dtype=bool)
            _rows(untouched, run, dim)[...] = False
            assert np.isnan(buffer[untouched]).all()
            block = np.full((3, dim), np.nan)
            for point in q.reshape(-1, dim):
                loss.grad(np.ascontiguousarray(point), out=block[1])
                assert_same_bits(block[1], loss.grad(np.ascontiguousarray(point)))
                assert np.isnan(block[[0, 2]]).all()

    @settings(max_examples=200, deadline=None)
    @given(data=strategies.data(), dim=strategies.integers(1, 10),
           count=strategies.integers(1, 8))
    def test_a_block_rows_vecdot_is_its_points_dot(self, data, dim, count):
        """np.vecdot of a (rows, dim) block gives each row the bits of the
        row's own q @ q, which a per-step observer used to take."""
        block = data.draw(arrays(np.float64, (count + 1, dim), elements=strategies.one_of(
            strategies.sampled_from([0.0, -0.0]), strategies.floats(-1e10, 1e10))))
        rows = block[:count]
        assert_same_bits(np.vecdot(rows, rows), np.array([q @ q for q in rows]))

    def test_chain_stack_keeps_the_positive_zero_of_its_matmul_sum(self):
        """Where every product resid_j x_j is -0.0 (here resid_j = +0.0 and
        x_j < 0), the inner product is +0.0, as the matmul sum from +0.0
        gives it; a dot product gives -0.0."""
        chain = TwoLayerChain([-2.0, -0.5], [-2.0, -0.5])
        q = np.array([[1.0, 1.0, 7.0], [-1.0, -1.0, 7.0], [4.0, 0.25, 7.0]])
        for rows in (q[:, :2], np.ascontiguousarray(q[:, :2])):
            gradient = chain.grad(rows)
            assert_same_bits(gradient, 0.0 * rows[:, ::-1])
            assert_same_bits(gradient, np.array([chain_grad(chain.x, chain.y, p) for p in rows]))

    @pytest.mark.parametrize("nan_first", [True, False], ids=["nan-first", "nan-last"])
    def test_rayleigh_nan_row_beside_an_infinite_norm_row(self, nan_first):
        """The stack path tests max(|q|^2) with Python's max, which is inf or
        NaN when any row's |q|^2 is inf, so a NaN row before or after such a
        row still sends the stack down the overflow branch: there the far
        row's t = (0, 1e308) keeps its point's 2 t / inf = (0, NaN), where
        t / inf would give (0, 0).  Beside finite rows only, a NaN row may
        take either branch; both give every row its point bits, and no
        RuntimeWarning is raised.  The far row's own point call overflows
        (|q|^2 and 2 t) and divides inf by inf, so those two run ignored."""
        loss = RayleighQuotient(np.array([[0.0, 1e153], [1e153, 0.0]]))
        nan, finite, far = [math.nan, math.nan], [0.3, 1.2], [1e155, 0.0]
        q = np.array([nan, finite] if nan_first else [finite, nan])
        assert_same_bits(loss.grad(q), np.array([loss.grad(point) for point in q]))
        q = np.array([nan, far, finite] if nan_first else [far, nan, finite])
        with np.errstate(over="ignore", invalid="ignore"):
            expected = np.array([loss.grad(point) for point in q])
            assert np.isnan(expected[1 if nan_first else 0, 1])
            assert_same_bits(loss.grad(q), expected)

    @pytest.mark.skipif(platform.machine().lower() not in ("x86_64", "amd64"),
                        reason="OPENBLAS_CORETYPE names x86-64 kernels")
    @pytest.mark.parametrize("core", [None, "Prescott"], ids=["host-core", "prescott"])
    def test_matvec_gives_each_row_its_points_bits_on_another_blas_kernel(self, core):
        """np.matvec(A, q), the library's stacked matrix-vector product, gives
        each row of q the bits of that point's own A @ q, and np.matvec on
        a point does too, under OpenBLAS's Prescott kernel as well as the
        host's own: dims 1-4, q a strided view of a state of one or two grids
        laid out as _rows lays out the lockstep kernel's rows, A one matrix or
        a broadcast stack of it (as a metric's hessian is).  Each core runs
        in a fresh interpreter: OpenBLAS reads OPENBLAS_CORETYPE when it loads.
        """
        probe = textwrap.dedent("""
            import numpy as np
            from noetherdyn.continuous import _rows

            rng = np.random.default_rng(0)
            checked = 0
            for dim in range(1, 5):
                for grids in (1, 2):
                    for count in (1, 2, 3):
                        for gap in (0, 1, 3):
                            for _ in range(25):
                                run = [1 + i * (dim + gap) for i in range(count)]
                                n = run[-1] + dim + 1
                                state = rng.standard_normal((grids, n) if grids > 1 else n)
                                state[rng.random(state.shape) < 0.1] = 0.0
                                state *= 10.0 ** rng.uniform(-5.0, 5.0)
                                q = _rows(state, run, dim)
                                a = rng.standard_normal((dim, dim)) * 10.0 ** rng.uniform(-5.0, 5.0)
                                points = q.reshape(-1, dim)
                                expected = np.array([a @ np.ascontiguousarray(p) for p in points])
                                stacked = np.broadcast_to(a, q.shape + (dim,))
                                for got in (np.matvec(a, q), np.matvec(stacked, q)):
                                    assert got.reshape(-1, dim).tobytes() == expected.tobytes()
                                for point, want in zip(points, expected):
                                    assert np.matvec(a, point).tobytes() == want.tobytes()
                                checked += 1
            print(checked)
            """)
        env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_CORETYPE"}
        env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
        if core is not None:
            env["OPENBLAS_CORETYPE"] = core
        done = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                              text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["1800"]


class TestScaleInvarianceLaws:
    def scale_invariant_losses(self):
        return [loss for loss in all_losses() if isinstance(loss, RayleighQuotient)]

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
