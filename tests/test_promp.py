import numpy as np
import pytest

from mprim.basis import PhaseConfig, default_basis, build_phi
from mprim.errors import SingularSystemError
from mprim.promp import (PrompDistribution, PrompWeights, Trajectory,
                         fit_distribution, fit_weights, marginal_at,
                         mean_weights, reconstruct, sample_trajectories,
                         sample_trajectory)


@pytest.fixture(scope="module")
def grid():
    pc = PhaseConfig(150.0, 150)
    bc = default_basis(pc, 8)
    return pc, bc, build_phi(pc, bc)


def min_jerk_column(q0, q1, n):
    s = np.linspace(0.0, 1.0, n)
    return q0 + (q1 - q0) * (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)


class TestFitWeights:
    def test_recovers_generating_weights(self, grid):
        # generate-then-fit oracle: a trajectory built from known weights
        # must be refit exactly with no regularization
        _, _, phi = grid
        rng = np.random.default_rng(0)
        for _ in range(20):
            theta = rng.standard_normal(8)
            fit = fit_weights(phi.values @ theta, phi, ridge=0.0)
            np.testing.assert_allclose(fit, theta, atol=1e-9)

    def test_constant_trajectory_reconstructs_exactly(self, grid):
        # partition of unity makes constants representable
        _, _, phi = grid
        fit = fit_weights(np.full(150, 0.7), phi, ridge=0.0)
        np.testing.assert_allclose(phi.values @ fit, 0.7, atol=1e-9)

    def test_huge_ridge_shrinks_to_zero(self, grid):
        _, _, phi = grid
        q = min_jerk_column(0.2, 1.1, 150)
        fit = fit_weights(q, phi, ridge=1e12)
        np.testing.assert_allclose(fit, 0.0, atol=1e-6)

    def test_rank_deficient_raises(self):
        pc = PhaseConfig(150.0, 2)
        phi = build_phi(pc, default_basis(pc, 5))
        with pytest.raises(SingularSystemError, match="condition"):
            fit_weights(np.array([0.1, 0.2]), phi, ridge=0.0)

    def test_length_mismatch(self, grid):
        _, _, phi = grid
        with pytest.raises(ValueError):
            fit_weights(np.zeros(10), phi)

    def test_residual_orthogonal_to_basis_columns(self, grid):
        # normal-equations optimality at ridge=0
        _, _, phi = grid
        rng = np.random.default_rng(1)
        q = rng.standard_normal(150)
        fit = fit_weights(q, phi, ridge=0.0)
        residual = phi.values @ fit - q
        assert np.max(np.abs(phi.values.T @ residual)) < 1e-8

    def test_columns_share_one_solve(self, grid):
        # many columns at once give each column's own fit, one row each
        _, _, phi = grid
        rng = np.random.default_rng(2)
        q = rng.standard_normal((150, 5))
        fit = fit_weights(q, phi)
        assert fit.shape == (5, 8)
        for j in range(5):
            np.testing.assert_allclose(fit[j], fit_weights(q[:, j], phi),
                                       rtol=1e-12, atol=1e-12)

    def test_rank_deficient_raises_for_columns(self):
        pc = PhaseConfig(150.0, 2)
        phi = build_phi(pc, default_basis(pc, 5))
        with pytest.raises(SingularSystemError, match="condition"):
            fit_weights(np.zeros((2, 3)), phi, ridge=0.0)

    def test_ridge_shrinkage_monotone(self, grid):
        _, _, phi = grid
        q = min_jerk_column(-0.4, 0.9, 150)
        norms = [np.linalg.norm(fit_weights(q, phi, ridge=lam))
                 for lam in (0.0, 1e-4, 1e-2, 1.0, 100.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


class TestReconstruct:
    def test_zero_weights_zero_trajectory(self, grid):
        pc, _, phi = grid
        out = reconstruct(PrompWeights(np.zeros((3, 8))), phi, pc)
        assert out.values.shape == (150, 3)
        np.testing.assert_array_equal(out.values, 0.0)

    def test_single_basis_constant(self):
        pc = PhaseConfig(150.0, 150)
        phi = build_phi(pc, default_basis(pc, 1))
        out = reconstruct(PrompWeights(np.array([[0.42]])), phi, pc)
        np.testing.assert_allclose(out.values, 0.42)

    def test_fit_reconstruct_smooth_demo(self, grid):
        # 8 bases reproduce a minimum-jerk profile well below 1e-3 rad
        pc, _, phi = grid
        traj = Trajectory(
            np.column_stack([min_jerk_column(0.0, 1.2, 150),
                             min_jerk_column(-0.5, 0.3, 150)]), pc)
        weights = PrompWeights(fit_weights(traj.values, phi))
        rebuilt = reconstruct(weights, phi, pc)
        rmse = np.sqrt(np.mean((rebuilt.values - traj.values) ** 2))
        assert rmse < 1e-3

    def test_dimension_mismatch(self, grid):
        pc, _, phi = grid
        with pytest.raises(ValueError):
            reconstruct(PrompWeights(np.zeros((2, 5))), phi, pc)


class TestMeanAndDistribution:
    def test_single_element_mean(self):
        theta = np.arange(5.0)
        np.testing.assert_array_equal(mean_weights([theta]), theta)

    def test_opposite_vectors_cancel(self):
        theta = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(mean_weights([theta, -theta]), 0.0)

    def test_mean_concentration(self):
        # 100 noisy copies land within 3 sigma / sqrt(100) per component
        rng = np.random.default_rng(5)
        truth = rng.standard_normal(8)
        samples = [truth + 0.2 * rng.standard_normal(8) for _ in range(100)]
        err = np.abs(mean_weights(samples) - truth)
        assert np.all(err < 3 * 0.2 / np.sqrt(100) + 1e-12)

    def test_empty_mean_raises(self):
        with pytest.raises(ValueError):
            mean_weights([])

    def test_identical_vectors_zero_covariance(self):
        theta = np.array([0.3, 0.7])
        dist = fit_distribution([theta, theta])
        np.testing.assert_allclose(dist.covariance, 0.0, atol=1e-15)

    def test_covariance_recovers_truth(self):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((4, 4))
        truth = a @ a.T / 4
        factor = np.linalg.cholesky(truth)
        draws = (factor @ rng.standard_normal((4, 10_000))).T
        dist = fit_distribution(list(draws))
        frob = np.linalg.norm(dist.covariance - truth)
        assert frob / np.linalg.norm(truth) < 0.10

    def test_noise_passthrough_and_minimum_samples(self):
        theta = np.zeros(3)
        assert fit_distribution([theta, theta], 0.02).obs_noise_var == 0.02
        with pytest.raises(ValueError):
            fit_distribution([theta])


class TestMarginal:
    def test_degenerate_distribution_has_zero_variance(self, grid):
        _, _, phi = grid
        dist = PrompDistribution(np.zeros(8), np.zeros((8, 8)), 0.0)
        _, var = marginal_at(10, dist, phi)
        assert var == 0.0

    def test_identity_covariance(self, grid):
        _, _, phi = grid
        dist = PrompDistribution(np.zeros(8), np.eye(8), 0.0)
        for t in (0, 60, 149):
            _, var = marginal_at(t, dist, phi)
            assert var == pytest.approx(np.sum(phi.values[t] ** 2))

    def test_mean_matches_reconstruction(self, grid):
        pc, _, phi = grid
        rng = np.random.default_rng(2)
        mu = rng.standard_normal(8)
        dist = PrompDistribution(mu, np.eye(8) * 0.1)
        rebuilt = reconstruct(PrompWeights(mu[None, :]), phi, pc)
        for t in (0, 77, 149):
            mean, _ = marginal_at(t, dist, phi)
            assert mean == rebuilt.values[t, 0]

    def test_sampled_variance_matches(self, grid):
        _, _, phi = grid
        rng = np.random.default_rng(3)
        a = rng.standard_normal((8, 8)) * 0.3
        dist = PrompDistribution(rng.standard_normal(8), a @ a.T, 1e-4)
        draws = sample_trajectories(dist, phi, 100_000, seed=42)
        for t in (0, 40, 80, 120, 149):
            _, var = marginal_at(t, dist, phi)
            assert np.var(draws[:, t], ddof=1) == pytest.approx(var, rel=0.05)


class TestSampling:
    def test_degenerate_gives_mean_trajectory(self, grid):
        _, _, phi = grid
        mu = np.linspace(-1.0, 1.0, 8)
        dist = PrompDistribution(mu, np.zeros((8, 8)), 0.0)
        np.testing.assert_allclose(sample_trajectory(dist, phi, seed=0),
                                   phi.values @ mu, atol=1e-12)

    def test_same_seed_same_draw(self, grid):
        _, _, phi = grid
        dist = PrompDistribution(np.zeros(8), np.eye(8) * 0.5)
        np.testing.assert_array_equal(sample_trajectory(dist, phi, seed=9),
                                      sample_trajectory(dist, phi, seed=9))

    def test_sample_mean_near_marginal_mean(self, grid):
        _, _, phi = grid
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8)) * 0.2
        dist = PrompDistribution(rng.standard_normal(8), a @ a.T, 1e-4)
        draws = sample_trajectories(dist, phi, 10_000, seed=7)
        for t in (0, 75, 149):
            mean, var = marginal_at(t, dist, phi)
            stderr = np.sqrt(var / draws.shape[0])
            assert abs(draws[:, t].mean() - mean) < 3 * stderr

    def test_near_psd_covariance_is_tolerated(self, grid):
        # an eigenvalue at -1e-11 should be clamped, not crash
        _, _, phi = grid
        cov = np.eye(8) * 0.1
        cov[0, 0] = -1e-11
        dist = PrompDistribution(np.zeros(8), cov)
        sample_trajectory(dist, phi, seed=1)
