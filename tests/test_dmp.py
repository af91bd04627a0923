import math

import numpy as np
import pytest

from mprim.basis import PhaseConfig
from mprim.dmp import (DmpModel, canonical, fit_dmp, forcing_kernels, rollout,
                       rollout_matched)
from mprim.errors import IntegrationError
from mprim.promp import Trajectory


def min_jerk_traj(q0, q1, n=150, fs=150.0):
    q0 = np.atleast_1d(np.asarray(q0, float))
    q1 = np.atleast_1d(np.asarray(q1, float))
    s = np.linspace(0.0, 1.0, n)
    prof = 10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5
    return Trajectory(q0 + prof[:, None] * (q1 - q0), PhaseConfig(fs, n))


def zero_forcing_model(start, goal, tau=7.6, **kw):
    start = np.atleast_1d(np.asarray(start, float))
    goal = np.atleast_1d(np.asarray(goal, float))
    return DmpModel(np.zeros((start.shape[0], 25)), goal, start, tau, **kw)


class TestCanonical:
    def test_starts_at_one(self):
        model = zero_forcing_model([0.0], [1.0])
        assert canonical(0.0, model) == 1.0

    def test_decays_to_zero(self):
        model = zero_forcing_model([0.0], [1.0], tau=2.0)
        t_far = 20.0 * model.tau / model.alpha_x
        assert canonical(t_far, model) < 1e-6

    def test_closed_form(self):
        model = zero_forcing_model([0.0], [1.0], tau=1.0, alpha_x=1.0)
        assert canonical(1.0, model) == pytest.approx(math.exp(-1.0))

    def test_strictly_decreasing(self):
        model = zero_forcing_model([0.0], [1.0])
        ts = np.linspace(0.0, 3 * model.tau, 50)
        xs = [canonical(t, model) for t in ts]
        assert all(a > b for a, b in zip(xs, xs[1:]))

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            canonical(-0.1, zero_forcing_model([0.0], [1.0]))


class TestFit:
    def test_constant_demo_gives_zero_forcing(self):
        traj = Trajectory(np.full((150, 2), 0.4), PhaseConfig(150.0, 150))
        model = fit_dmp(traj, 25, 7.6)
        np.testing.assert_array_equal(model.forcing_weights, 0.0)
        assert model.degenerate_joints == (0, 1)
        out = rollout_matched(model, 150)
        np.testing.assert_allclose(out.values, 0.4, atol=1e-6)

    def test_min_jerk_fit_quality(self):
        # fit-rollout oracle at the working configuration
        traj = min_jerk_traj([0.3, -1.0], [1.4, 0.5])
        model = fit_dmp(traj, 25, 7.6)
        out = rollout_matched(model, 150)
        rmse = np.sqrt(np.mean((out.values - traj.values) ** 2))
        assert rmse < 1e-2
        assert np.max(np.abs(out.values[-1] - model.goal)) < 1e-3

    def test_fewer_kernels_fit_worse(self):
        traj = min_jerk_traj([0.3], [1.4])

        def rmse(n_basis):
            out = rollout_matched(fit_dmp(traj, n_basis, 7.6), 150)
            return np.sqrt(np.mean((out.values - traj.values) ** 2))

        assert rmse(5) > rmse(25)

    def test_goal_and_start_from_demo(self):
        traj = min_jerk_traj([0.1, 0.2], [0.9, -0.3])
        model = fit_dmp(traj, 25, 7.6)
        np.testing.assert_array_equal(model.start, traj.values[0])
        np.testing.assert_array_equal(model.goal, traj.values[-1])

    def test_too_short_demo_rejected(self):
        traj = Trajectory(np.zeros((2, 1)), PhaseConfig(150.0, 2))
        with pytest.raises(ValueError):
            fit_dmp(traj, 25, 7.6)

    def test_mixed_degenerate_joint(self):
        # second joint starts on its goal; only it gets flagged
        values = np.column_stack([
            min_jerk_traj([0.0], [1.0]).values[:, 0],
            np.full(150, 0.2)])
        model = fit_dmp(Trajectory(values, PhaseConfig(150.0, 150)), 25, 7.6)
        assert model.degenerate_joints == (1,)
        np.testing.assert_array_equal(model.forcing_weights[1], 0.0)
        assert np.any(model.forcing_weights[0] != 0.0)


class TestRollout:
    def test_zero_forcing_converges_without_overshoot(self):
        model = zero_forcing_model([0.0], [1.0])
        dt = model.tau / 1500
        out = rollout(model, dt, int(3 * model.tau / dt))
        assert abs(out.values[-1, 0] - 1.0) < 1e-3
        assert out.values[:, 0].max() <= 1.0 + 1e-9   # critically damped

    def test_start_equals_goal_stays_constant(self):
        model = zero_forcing_model([0.7], [0.7])
        out = rollout(model, 0.01, 200)
        np.testing.assert_array_equal(out.values, 0.7)

    def test_goal_convergence_with_arbitrary_forcing(self):
        rng = np.random.default_rng(8)
        model = DmpModel(rng.standard_normal((2, 25)) * 50.0,
                         np.array([1.0, -0.5]), np.array([0.0, 0.3]), 7.6)
        dt = model.tau / 1500
        out = rollout(model, dt, int(10 * model.tau / dt))
        assert np.max(np.abs(out.values[-1] - model.goal)) < 1e-3

    def test_time_scaling_preserves_path(self):
        traj = min_jerk_traj([0.3], [1.4])
        model = fit_dmp(traj, 25, 7.6)
        doubled = DmpModel(model.forcing_weights, model.goal, model.start,
                           2 * model.tau)
        base = rollout(model, model.tau / 1490, 1491)
        slow = rollout(doubled, 2 * model.tau / 1490, 1491)
        # matched phase samples: same path in position space
        assert np.max(np.abs(base.values - slow.values)) < 1e-3

    def test_bad_dt_and_steps(self):
        model = zero_forcing_model([0.0], [1.0])
        with pytest.raises(ValueError):
            rollout(model, 0.0, 100)
        with pytest.raises(ValueError):
            rollout(model, 0.01, 1)
        with pytest.raises(ValueError):
            rollout_matched(model, 1)

    def test_divergence_detected(self):
        # a hugely unstable dt blows up the Euler integration
        model = zero_forcing_model([0.0], [1.0], tau=0.001)
        with pytest.raises(IntegrationError):
            rollout(model, 1.0, 500)

    def test_divergent_row_is_named(self):
        # a joint on its goal feels no force, so only row 1 blows up
        models = [zero_forcing_model([0.7], [0.7], tau=0.001),
                  zero_forcing_model([0.0], [1.0], tau=0.001),
                  zero_forcing_model([0.2], [0.2], tau=0.001)]
        with pytest.raises(IntegrationError, match=r"row\(s\) \[1\]") as err:
            rollout(models, 1.0, 500)
        assert err.value.rows == (1,)

    def test_batch_equals_single_rollouts(self):
        rng = np.random.default_rng(3)
        models = [DmpModel(rng.standard_normal((2, 25)) * 50.0,
                           rng.standard_normal(2), rng.standard_normal(2),
                           7.6) for _ in range(3)]
        batch = rollout_matched(models, 150)
        assert len(batch) == 3
        for model, traj in zip(models, batch):
            np.testing.assert_array_equal(
                traj.values, rollout_matched(model, 150).values)

    def test_mixed_tau_rejected(self):
        models = [zero_forcing_model([0.0], [1.0]),
                  zero_forcing_model([0.0], [1.0], tau=3.0)]
        with pytest.raises(ValueError, match="tau"):
            rollout_matched(models, 150)

    def test_mixed_kernels_rejected(self):
        a = zero_forcing_model([0.0], [1.0])
        centers, widths = forcing_kernels(25, width_scale=2.0)
        b = DmpModel(a.forcing_weights, a.goal, a.start, a.tau,
                     kernel_centers=centers, kernel_widths=widths)
        with pytest.raises(ValueError, match="kernel_widths"):
            rollout([a, b], 0.01, 100)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            rollout_matched([], 150)

    def test_matched_rollout_grid(self):
        traj = min_jerk_traj([0.0], [1.0])
        model = fit_dmp(traj, 25, 7.6)
        out = rollout_matched(model, 150)
        assert out.values.shape == (150, 1)
        assert out.phase_cfg.duration_samples == 150
        np.testing.assert_array_equal(out.values[0], model.start)


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
        with pytest.raises(ValueError):
            zero_forcing_model([0.0], [1.0], tau=-1.0)
