import warnings

import numpy as np
import pytest

from mprim.dmp import (ALPHA_X, ALPHA_Z, BETA_Z, ROLLOUT_OVERSAMPLE, fit_dmp,
                       forcing_kernels, linear_responses, rollout_matched)
from mprim.errors import IntegrationError


def min_jerk_values(q0, q1, n=150):
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    s = np.linspace(0.0, 1.0, n)
    prof = 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5
    return q0 + prof[:, None] * (q1 - q0)


def fit_one(values, n_basis=25):
    """(forcing weights (n_joint, n_basis), goal, start) of one demo."""
    weights, goals, starts = fit_dmp(np.asarray(values)[None], [0], n_basis)
    return weights[0], goals[0], starts[0]


def reference_fit(values, n_basis):
    """The forcing weights of one (T, n_joint) demo in unit time, fitted
    one joint at a time with the skip of zero-span joints made explicit:
    the arithmetic the stacked fit must reproduce bit for bit."""
    T = len(values)
    dt = 1.0 / (T - 1)
    qd = np.gradient(values, dt, axis=0, edge_order=2)
    qdd = np.gradient(qd, dt, axis=0, edge_order=2)
    start, goal = values[0], values[-1]
    x = np.exp(-ALPHA_X * np.arange(T) * dt)
    centers, widths = forcing_kernels(n_basis)
    psi = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)
    f_target = qdd - ALPHA_Z * (BETA_Z * (goal - values) - qd)
    weights = np.zeros((values.shape[1], n_basis))
    for j in range(values.shape[1]):
        span = goal[j] - start[j]
        if span == 0.0:
            continue
        xi = x * span
        num = psi.T @ (xi * f_target[:, j])
        den = psi.T @ (xi * xi)
        weights[j] = np.where(den > 1e-300,
                              num / np.where(den > 0, den, 1.0), 0.0)
    return weights


def rollout_one(fit, n_samples=150):
    """The (n_samples, n_joint) rollout of one demo's fit."""
    weights, goal, start = fit
    return rollout_matched(start[None], goal[None], weights[None],
                           n_samples)[0]


def zero_forcing(starts, goals, n_basis=25):
    """A batch of systems without forcing: one row per start/goal pair."""
    start = np.asarray(starts, float).reshape(len(starts), -1)
    goal = np.asarray(goals, float).reshape(start.shape)
    return start, goal, np.zeros((*start.shape, n_basis))


def degenerate_stack(seed=0, n=150):
    """A seeded (4, n, 2) stack: minimum-jerk demos between random
    configurations, a constant demo (row 1) and a joint that ends on its
    start (row 3, joint 0)."""
    rng = np.random.default_rng(seed)
    stack = np.stack([min_jerk_values(*rng.uniform(-2, 2, (2, 2)), n)
                      for _ in range(4)])
    stack[1] = 0.4
    stack[3, :, 0] = 0.3 + 0.2 * np.sin(np.linspace(0, 2 * np.pi, n))
    stack[3, -1, 0] = stack[3, 0, 0]
    return stack


class TestFit:
    def test_constant_demo_gives_zero_forcing(self):
        fit = fit_one(np.full((150, 2), 0.4))
        np.testing.assert_array_equal(fit[0], 0.0)
        np.testing.assert_allclose(rollout_one(fit), 0.4, atol=1e-6)

    def test_min_jerk_fit_quality(self):
        # fit-rollout oracle at the working configuration
        values = min_jerk_values([0.3, -1.0], [1.4, 0.5])
        fit = fit_one(values)
        out = rollout_one(fit)
        rmse = np.sqrt(np.mean((out - values) ** 2))
        assert rmse < 1e-2
        assert np.max(np.abs(out[-1] - fit[1])) < 1e-3

    def test_fewer_kernels_fit_worse(self):
        values = min_jerk_values([0.3], [1.4])

        def rmse(n_basis):
            out = rollout_one(fit_one(values, n_basis))
            return np.sqrt(np.mean((out - values) ** 2))

        assert rmse(5) > rmse(25)

    def test_goal_and_start_from_demo(self):
        stack = degenerate_stack()
        weights, goals, starts = fit_dmp(stack, range(len(stack)), 25)
        assert weights.shape == (4, 2, 25)
        np.testing.assert_array_equal(starts, stack[:, 0])
        np.testing.assert_array_equal(goals, stack[:, -1])

    def test_too_short_demo_rejected(self):
        with pytest.raises(ValueError):
            fit_dmp(np.zeros((1, 2, 1)), [0], 25)

    @pytest.mark.parametrize("shape", [(150, 2), (150,), (1, 1, 150, 2)])
    def test_stack_that_is_not_3d_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(B, T, n_joint\)"):
            fit_dmp(np.zeros(shape), [0], 25)

    def test_mixed_degenerate_joint(self):
        # the second joint starts on its goal: a zero span, so zero weights
        values = np.column_stack([min_jerk_values([0.0], [1.0])[:, 0],
                                  np.full(150, 0.2)])
        weights = fit_one(values)[0]
        np.testing.assert_array_equal(weights[1], 0.0)
        assert np.any(weights[0] != 0.0)

    def test_degenerate_rows_get_zero_weights(self):
        weights, _, _ = fit_dmp(degenerate_stack(), range(4), 25)
        np.testing.assert_array_equal(weights[1], 0.0)
        np.testing.assert_array_equal(weights[3, 0], 0.0)
        assert np.all(weights[[0, 2]] != 0.0) and np.all(weights[3, 1] != 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_single_fits(self, seed):
        stack = degenerate_stack(seed)
        # the demos in any order, one of them twice
        order = np.random.default_rng(seed).permutation([0, 1, 2, 3, 2])
        fits = fit_dmp(stack, order, 25)
        for row, b in enumerate(order):
            for stacked, single in zip(fits, fit_dmp(stack[b:b + 1], [0],
                                                     25)):
                assert np.array_equal(stacked[row], single[0]), b
            assert np.array_equal(fits[0][row],
                                  reference_fit(stack[b], 25)), b


class TestRollout:
    def test_zero_forcing_converges_without_overshoot(self):
        out = rollout_matched(*zero_forcing([0.0], [1.0]), 150)
        assert abs(out[0, -1, 0] - 1.0) < 1e-3
        assert out[0, :, 0].max() <= 1.0 + 1e-9   # critically damped

    def test_start_equals_goal_stays_constant(self):
        out = rollout_matched(*zero_forcing([0.7], [0.7]), 150)
        np.testing.assert_array_equal(out, 0.7)

    def test_goal_convergence_with_arbitrary_forcing(self):
        rng = np.random.default_rng(8)
        goal = np.array([[1.0, -0.5]])
        out = rollout_matched(np.array([[0.0, 0.3]]), goal,
                              rng.standard_normal((1, 2, 25)) * 50.0, 150)
        assert np.max(np.abs(out[0, -1] - goal[0])) < 1e-3

    def test_bad_dt_and_steps(self):
        # the Euler step is 1 / ((n_samples - 1) * oversample)
        batch = zero_forcing([0.0], [1.0])
        with pytest.raises(ValueError, match="n_samples"):
            rollout_matched(*batch, 1)

    def test_divergence_detected(self):
        # forcing near the float limit, scaled by a span of 100, overflows
        # the state; the error is typed and numpy's warnings stay silent
        start, goal, w = zero_forcing([0.0], [100.0])
        w[:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                rollout_matched(start, goal, w, 150)

    def test_divergent_row_is_named(self):
        # a joint on its goal feels no force, so only row 1 blows up
        start, goal, w = zero_forcing([0.7, 0.0, 0.2], [0.7, 100.0, 0.2])
        w[1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError,
                               match=r"row\(s\) \[1\]") as err:
                rollout_matched(start, goal, w, 150)
        assert err.value.rows == (1,)

    def test_batch_equals_single_rollouts(self):
        rng = np.random.default_rng(3)
        start, goal = rng.standard_normal((2, 3, 2))
        w = rng.standard_normal((3, 2, 25)) * 50.0
        batch = rollout_matched(start, goal, w, 150)
        assert batch.shape == (3, 150, 2)
        for b in range(3):
            np.testing.assert_array_equal(
                batch[b], rollout_matched(start[b:b + 1], goal[b:b + 1],
                                          w[b:b + 1], 150)[0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            rollout_matched(np.zeros((0, 2)), np.zeros((0, 2)),
                            np.zeros((0, 2, 25)), 150)

    def test_mismatched_shapes_rejected(self):
        start, goal, w = zero_forcing([0.0, 0.1], [1.0, 1.1])
        with pytest.raises(ValueError, match="batch"):
            rollout_matched(start, goal[:1], w, 150)
        with pytest.raises(ValueError, match="batch"):
            rollout_matched(start, goal, w[0], 150)

    def test_matched_rollout_grid(self):
        fit = fit_one(min_jerk_values([0.0], [1.0]))
        out = rollout_one(fit)
        assert out.shape == (150, 1)
        np.testing.assert_array_equal(out[0], fit[2])


def euler_reference(start, goal, w, n_samples):
    """One system in unit time, one Euler step at a time, on the grid
    `rollout_matched` uses: the positions (n_samples, n_joint) at every
    ROLLOUT_OVERSAMPLE-th step."""
    centers, widths = forcing_kernels(w.shape[1])
    steps = (n_samples - 1) * ROLLOUT_OVERSAMPLE
    dt = 1.0 / steps
    span = goal - start
    out = np.empty((steps + 1, start.shape[0]))
    q = start.copy()
    v = np.zeros_like(q)
    out[0] = q
    for s in range(1, steps + 1):
        x = np.exp(-ALPHA_X * ((s - 1) * dt))
        psi = np.exp(-widths * (x - centers) ** 2)
        f = (w @ psi) / psi.sum() * x * span
        v_dot = ALPHA_Z * (BETA_Z * (goal - q) - v) + f
        q = q + dt * v
        v = v + dt * v_dot
        out[s] = q
    return out[::ROLLOUT_OVERSAMPLE]


class TestLinearResponses:
    # the response mix differs from the Euler loop by rounding only
    ATOL = 1e-12

    @pytest.mark.parametrize("n_joint", [2, 7])
    @pytest.mark.parametrize("seed", range(3))
    def test_equals_euler_loop(self, seed, n_joint):
        rng = np.random.default_rng(seed)
        start, goal = rng.standard_normal((2, 6, n_joint))
        w = rng.standard_normal((6, n_joint, 25)) * 200.0
        out = rollout_matched(start, goal, w, 150)
        for b in range(len(w)):
            np.testing.assert_allclose(
                out[b], euler_reference(start[b], goal[b], w[b], 150),
                rtol=0.0, atol=self.ATOL)

    def test_degenerate_joint_in_mixed_batch_stays_on_start(self):
        rng = np.random.default_rng(4)
        start, goal = rng.standard_normal((2, 3, 2))
        goal[1, 0] = start[1, 0]
        w = rng.standard_normal((3, 2, 25)) * 200.0
        out = rollout_matched(start, goal, w, 150)
        assert np.all(out[1, :, 0] == start[1, 0])
        assert np.all(np.ptp(out[[0, 2]], axis=1) > 0.0)

    # the forcing weight of a reference unit system: large, so that its
    # track stands clear of the unforced one it is taken from, and a power
    # of two, so that dividing it out again is exact
    UNIT = 2.0 ** 20
    # each response row against the Euler loop's, relative to the row's
    # peak: both are the same recurrence, rounded along different paths
    RTOL = 2e-14

    @pytest.mark.parametrize("n_basis,n_samples", [(1, 2), (7, 40),
                                                   (25, 150)])
    def test_rows_equal_euler_unit_systems(self, n_basis, n_samples):
        # the unit systems are the joints of one system. Joint 0: start 1,
        # goal 0, unforced; joint 1 + i: the track from 0 to 1 with weight
        # UNIT on kernel i, minus the unforced one, per UNIT
        start = np.zeros(n_basis + 2)
        start[0] = 1.0
        w = np.zeros((n_basis + 2, n_basis))
        w[2:] = self.UNIT * np.eye(n_basis)
        track = euler_reference(start, 1.0 - start, w, n_samples).T
        reference = np.vstack([track[:1],
                               (track[2:] - track[1]) / self.UNIT])
        responses = linear_responses(n_basis, n_samples)
        assert responses.shape == reference.shape
        peak = np.abs(reference).max(axis=1, keepdims=True)
        assert np.all(np.abs(responses - reference)
                      <= self.RTOL * peak), n_basis

    def test_built_once_per_grid_and_read_only(self):
        linear_responses.cache_clear()
        batch = zero_forcing([0.0, 0.5], [1.0, -0.5], n_basis=7)
        for _ in range(3):
            rollout_matched(*batch, 40)
            rollout_matched(*batch, 60)
        info = linear_responses.cache_info()
        assert (info.misses, info.hits) == (2, 4)   # one build per (K, T)
        responses = linear_responses(7, 40)
        assert responses.shape == (8, 40)
        assert not responses.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            responses[0, 0] = 1.0


class TestKernels:
    def test_centers_decrease_from_one(self):
        centers, widths = forcing_kernels(25)
        assert centers[0] == pytest.approx(1.0)
        assert np.all(np.diff(centers) < 0)
        assert np.all(widths > 0)

    def test_single_kernel(self):
        centers, widths = forcing_kernels(1)
        assert centers.shape == widths.shape == (1,)
