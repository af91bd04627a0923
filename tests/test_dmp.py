import warnings

import numpy as np
import pytest

from mprim.dmp import fit_dmp, forcing_kernels, rollout_matched
from mprim.errors import IntegrationError

TAU = 7.6


def min_jerk_values(q0, q1, n=150):
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    s = np.linspace(0.0, 1.0, n)
    prof = 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5
    return q0 + prof[:, None] * (q1 - q0)


def batch_of(*models):
    """(start, goal, forcing weights) of fitted models, stacked."""
    return (np.stack([m.start for m in models]),
            np.stack([m.goal for m in models]),
            np.stack([m.forcing_weights for m in models]))


def rollout_one(model, tau=TAU, n_samples=150):
    """The (n_samples, n_joint) rollout of one fitted model."""
    return rollout_matched(*batch_of(model), tau, n_samples)[0]


def zero_forcing(starts, goals, n_basis=25):
    """A batch of systems without forcing: one row per start/goal pair."""
    start = np.asarray(starts, float).reshape(len(starts), -1)
    goal = np.asarray(goals, float).reshape(start.shape)
    return start, goal, np.zeros((*start.shape, n_basis))


class TestFit:
    def test_constant_demo_gives_zero_forcing(self):
        model = fit_dmp(np.full((150, 2), 0.4), 25, TAU)
        np.testing.assert_array_equal(model.forcing_weights, 0.0)
        assert model.degenerate_joints == (0, 1)
        np.testing.assert_allclose(rollout_one(model), 0.4, atol=1e-6)

    def test_min_jerk_fit_quality(self):
        # fit-rollout oracle at the working configuration
        values = min_jerk_values([0.3, -1.0], [1.4, 0.5])
        model = fit_dmp(values, 25, TAU)
        out = rollout_one(model)
        rmse = np.sqrt(np.mean((out - values) ** 2))
        assert rmse < 1e-2
        assert np.max(np.abs(out[-1] - model.goal)) < 1e-3

    def test_fewer_kernels_fit_worse(self):
        values = min_jerk_values([0.3], [1.4])

        def rmse(n_basis):
            out = rollout_one(fit_dmp(values, n_basis, TAU))
            return np.sqrt(np.mean((out - values) ** 2))

        assert rmse(5) > rmse(25)

    def test_goal_and_start_from_demo(self):
        values = min_jerk_values([0.1, 0.2], [0.9, -0.3])
        model = fit_dmp(values, 25, TAU)
        np.testing.assert_array_equal(model.start, values[0])
        np.testing.assert_array_equal(model.goal, values[-1])

    def test_too_short_demo_rejected(self):
        with pytest.raises(ValueError):
            fit_dmp(np.zeros((2, 1)), 25, TAU)

    def test_mixed_degenerate_joint(self):
        # second joint starts on its goal; only it gets flagged
        values = np.column_stack([min_jerk_values([0.0], [1.0])[:, 0],
                                  np.full(150, 0.2)])
        model = fit_dmp(values, 25, TAU)
        assert model.degenerate_joints == (1,)
        np.testing.assert_array_equal(model.forcing_weights[1], 0.0)
        assert np.any(model.forcing_weights[0] != 0.0)


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
        model = fit_dmp(min_jerk_values([0.3], [1.4]), 25, TAU)
        base = rollout_one(model, TAU)
        slow = rollout_one(model, 2 * TAU)
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
        model = fit_dmp(min_jerk_values([0.0], [1.0]), 25, TAU)
        out = rollout_one(model)
        assert out.shape == (150, 1)
        np.testing.assert_array_equal(out[0], model.start)


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
            fit_dmp(min_jerk_values([0.0], [1.0]), 25, -1.0)
