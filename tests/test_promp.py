import numpy as np
import pytest

from mprim.basis import PhaseConfig, default_basis, build_phi
from mprim.errors import SingularSystemError
from mprim.promp import fit_weights
from mprim.training import PrompHead


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
    # weights decode into trajectories through the deep-mp head: one
    # batched product with the basis matrix, (B, T, n_joint)

    def test_zero_weights_zero_trajectory(self, grid):
        pc, bc, _ = grid
        out = PrompHead("rtp", 3, pc, bc).decode(np.zeros((1, 3 * 8)),
                                                 None, [0])
        assert out.shape == (1, 150, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_basis_constant(self):
        pc = PhaseConfig(150.0, 150)
        head = PrompHead("rtp", 1, pc, default_basis(pc, 1))
        np.testing.assert_allclose(head.decode(np.array([[0.42]]), None, [0]),
                                   0.42)

    def test_fit_reconstruct_smooth_demo(self, grid):
        # 8 bases reproduce a minimum-jerk profile well below 1e-3 rad
        pc, bc, phi = grid
        values = np.column_stack([min_jerk_column(0.0, 1.2, 150),
                                  min_jerk_column(-0.5, 0.3, 150)])
        flat = fit_weights(values, phi).reshape(1, -1)
        rebuilt = PrompHead("rtp", 2, pc, bc).decode(flat, None, [0])[0]
        rmse = np.sqrt(np.mean((rebuilt - values) ** 2))
        assert rmse < 1e-3

    def test_dimension_mismatch(self, grid):
        pc, bc, _ = grid
        with pytest.raises(ValueError):
            PrompHead("rtp", 2, pc, bc).decode(np.zeros((1, 2 * 5)), None,
                                               [0])
