import warnings

import numpy as np
import pytest

from mprim.dmp import (ALPHA_X, ALPHA_Z, BETA_Z, fit_dmp, forcing_kernels,
                       rollout_matched)
from mprim.errors import IntegrationError

TAU = 7.6


def min_jerk_values(q0, q1, n=150):
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    s = np.linspace(0.0, 1.0, n)
    prof = 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5
    return q0 + prof[:, None] * (q1 - q0)


def fit_one(values, n_basis=25, tau=TAU):
    """(forcing weights (n_joint, n_basis), goal, start) of one demo."""
    weights, goals, starts = fit_dmp(np.asarray(values)[None], n_basis, tau)
    return weights[0], goals[0], starts[0]


def reference_fit(values, n_basis, tau):
    """The forcing weights of one (T, n_joint) demo, fitted one joint at a
    time with the skip of zero-span joints made explicit: the arithmetic
    the stacked fit must reproduce bit for bit."""
    T = len(values)
    dt = tau / (T - 1)
    qd = np.gradient(values, dt, axis=0, edge_order=2)
    qdd = np.gradient(qd, dt, axis=0, edge_order=2)
    start, goal = values[0], values[-1]
    x = np.exp(-ALPHA_X * np.arange(T) * dt / tau)
    centers, widths = forcing_kernels(n_basis)
    psi = np.exp(-widths[None, :] * (x[:, None] - centers[None, :]) ** 2)
    f_target = tau ** 2 * qdd - ALPHA_Z * (BETA_Z * (goal - values)
                                           - tau * qd)
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


def rollout_one(fit, tau=TAU, n_samples=150):
    """The (n_samples, n_joint) rollout of one demo's fit."""
    weights, goal, start = fit
    return rollout_matched(start[None], goal[None], weights[None], tau,
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
        weights, goals, starts = fit_dmp(stack, 25, TAU)
        assert weights.shape == (4, 2, 25)
        np.testing.assert_array_equal(starts, stack[:, 0])
        np.testing.assert_array_equal(goals, stack[:, -1])

    def test_too_short_demo_rejected(self):
        with pytest.raises(ValueError):
            fit_dmp(np.zeros((1, 2, 1)), 25, TAU)

    @pytest.mark.parametrize("shape", [(150, 2), (150,), (1, 1, 150, 2)])
    def test_stack_that_is_not_3d_rejected(self, shape):
        with pytest.raises(ValueError, match=r"\(B, T, n_joint\)"):
            fit_dmp(np.zeros(shape), 25, TAU)

    def test_mixed_degenerate_joint(self):
        # the second joint starts on its goal: a zero span, so zero weights
        values = np.column_stack([min_jerk_values([0.0], [1.0])[:, 0],
                                  np.full(150, 0.2)])
        weights = fit_one(values)[0]
        np.testing.assert_array_equal(weights[1], 0.0)
        assert np.any(weights[0] != 0.0)

    def test_degenerate_rows_get_zero_weights(self):
        weights, _, _ = fit_dmp(degenerate_stack(), 25, TAU)
        np.testing.assert_array_equal(weights[1], 0.0)
        np.testing.assert_array_equal(weights[3, 0], 0.0)
        assert np.all(weights[[0, 2]] != 0.0) and np.all(weights[3, 1] != 0.0)

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_single_fits(self, seed):
        stack = degenerate_stack(seed)
        fits = fit_dmp(stack, 25, TAU)
        for b in range(len(stack)):
            for stacked, single in zip(fits, fit_dmp(stack[b:b + 1], 25,
                                                     TAU)):
                assert np.array_equal(stacked[b], single[0]), b
            assert np.array_equal(fits[0][b],
                                  reference_fit(stack[b], 25, TAU)), b


class TestRollout:
    def test_zero_forcing_converges_without_overshoot(self):
        out = rollout_matched(*zero_forcing([0.0], [1.0]), TAU, 150)
        assert abs(out[0, -1, 0] - 1.0) < 1e-3
        assert out[0, :, 0].max() <= 1.0 + 1e-9   # critically damped

    def test_start_equals_goal_stays_constant(self):
        out = rollout_matched(*zero_forcing([0.7], [0.7]), TAU, 150)
        np.testing.assert_array_equal(out, 0.7)

    def test_goal_convergence_with_arbitrary_forcing(self):
        rng = np.random.default_rng(8)
        goal = np.array([[1.0, -0.5]])
        out = rollout_matched(np.array([[0.0, 0.3]]), goal,
                              rng.standard_normal((1, 2, 25)) * 50.0, TAU,
                              150)
        assert np.max(np.abs(out[0, -1] - goal[0])) < 1e-3

    def test_time_scaling_preserves_path(self):
        fit = fit_one(min_jerk_values([0.3], [1.4]))
        base = rollout_one(fit, TAU)
        slow = rollout_one(fit, 2 * TAU)
        # matched phase samples: same path in position space
        assert np.max(np.abs(base - slow)) < 1e-3

    def test_bad_dt_and_steps(self):
        # the Euler step is tau / ((n_samples - 1) * oversample)
        batch = zero_forcing([0.0], [1.0])
        with pytest.raises(ValueError, match="tau"):
            rollout_matched(*batch, 0.0, 150)
        with pytest.raises(ValueError, match="n_samples"):
            rollout_matched(*batch, TAU, 1)

    def test_divergence_detected(self):
        # forcing near the float limit, scaled by a span of 100, overflows
        # the state; the error is typed and numpy's warnings stay silent
        start, goal, w = zero_forcing([0.0], [100.0])
        w[:] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError):
                rollout_matched(start, goal, w, TAU, 150)

    def test_divergent_row_is_named(self):
        # a joint on its goal feels no force, so only row 1 blows up
        start, goal, w = zero_forcing([0.7, 0.0, 0.2], [0.7, 100.0, 0.2])
        w[1] = 1e308
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(IntegrationError,
                               match=r"row\(s\) \[1\]") as err:
                rollout_matched(start, goal, w, TAU, 150)
        assert err.value.rows == (1,)

    def test_batch_equals_single_rollouts(self):
        rng = np.random.default_rng(3)
        start, goal = rng.standard_normal((2, 3, 2))
        w = rng.standard_normal((3, 2, 25)) * 50.0
        batch = rollout_matched(start, goal, w, TAU, 150)
        assert batch.shape == (3, 150, 2)
        for b in range(3):
            np.testing.assert_array_equal(
                batch[b], rollout_matched(start[b:b + 1], goal[b:b + 1],
                                          w[b:b + 1], TAU, 150)[0])

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            rollout_matched(np.zeros((0, 2)), np.zeros((0, 2)),
                            np.zeros((0, 2, 25)), TAU, 150)

    def test_mismatched_shapes_rejected(self):
        start, goal, w = zero_forcing([0.0, 0.1], [1.0, 1.1])
        with pytest.raises(ValueError, match="batch"):
            rollout_matched(start, goal[:1], w, TAU, 150)
        with pytest.raises(ValueError, match="batch"):
            rollout_matched(start, goal, w[0], TAU, 150)

    def test_matched_rollout_grid(self):
        fit = fit_one(min_jerk_values([0.0], [1.0]))
        out = rollout_one(fit)
        assert out.shape == (150, 1)
        np.testing.assert_array_equal(out[0], fit[2])


class TestKernels:
    def test_centers_decrease_from_one(self):
        centers, widths = forcing_kernels(25)
        assert centers[0] == pytest.approx(1.0)
        assert np.all(np.diff(centers) < 0)
        assert np.all(widths > 0)

    def test_single_kernel(self):
        centers, widths = forcing_kernels(1)
        assert centers.shape == widths.shape == (1,)

    def test_model_validation(self):
        with pytest.raises(ValueError, match="tau"):
            fit_one(min_jerk_values([0.0], [1.0]), tau=-1.0)
