import numpy as np
import pytest

from mprim.basis import build_phi
from mprim.dataset import generate_rtp, generate_wpp
from mprim.errors import SingularSystemError
from mprim.kernels import CHUNK_DEMOS
from mprim.promp import fit_weights
from mprim.training import PrompHead


@pytest.fixture(scope="module")
def grid():
    return 150, 8, build_phi(150, 8)


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
        phi = build_phi(2, 5)
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
        phi = build_phi(2, 5)
        with pytest.raises(SingularSystemError, match="condition"):
            fit_weights(np.zeros((2, 3)), phi, ridge=0.0)

    def test_ridge_shrinkage_monotone(self, grid):
        _, _, phi = grid
        q = min_jerk_column(-0.4, 0.9, 150)
        norms = [np.linalg.norm(fit_weights(q, phi, ridge=lam))
                 for lam in (0.0, 1e-4, 1e-2, 1.0, 100.0)]
        assert all(a >= b - 1e-12 for a, b in zip(norms, norms[1:]))


@pytest.fixture(scope="module", params=["rtp", "wpp"])
def stack_head(request):
    """A seeded stack of more than CHUNK_DEMOS demos and its deep-mp
    head."""
    if request.param == "rtp":
        ds = generate_rtp(seed=31, counts=(40, 20, 10, 10))
    else:
        ds = generate_wpp(seed=32, trials_per_cell=3)
    assert len(ds) > CHUNK_DEMOS
    return ds, PrompHead.fit(ds, np.arange(len(ds)))[0]


class TestStackedFit:
    # PrompHead.weights fits a stack in one call; each row must be what
    # its demo gets alone, wherever it sits in whatever stack

    def test_stack_equals_single_fits(self, stack_head):
        ds, head = stack_head
        stacked = head.weights(ds.trajectories)
        assert stacked.shape == (len(ds), head.width)
        for b, demo in enumerate(ds.trajectories):
            assert np.array_equal(
                stacked[b], fit_weights(demo, head.phi).reshape(-1)), b

    @pytest.mark.parametrize("seed", range(3))
    def test_stack_equals_fits_of_any_split(self, stack_head, seed):
        ds, head = stack_head
        stacked = head.weights(ds.trajectories)
        rng = np.random.default_rng(seed)
        order = rng.permutation(len(ds))
        cuts = np.sort(rng.choice(np.arange(1, len(ds)), 4, replace=False))
        for part in np.split(order, cuts):
            assert np.array_equal(head.weights(ds.trajectories[part]),
                                  stacked[part])

    def test_truth_across_chunks_equals_single_truths(self, stack_head):
        ds, head = stack_head
        idx = np.random.default_rng(4).permutation(len(ds))
        truth = head.truth(ds, idx)
        assert truth.shape == ds.trajectories.shape
        for row, i in enumerate(idx):
            assert np.array_equal(truth[row], head.truth(ds, [i])[0]), i


class TestReconstruct:
    # weights decode into trajectories through the deep-mp head: one
    # batched product with the basis matrix, (B, T, n_joint)

    def test_zero_weights_zero_trajectory(self, grid):
        n_samples, n_basis, _ = grid
        out = PrompHead("rtp", 3, n_samples, n_basis).decode(
            np.zeros((1, 3 * 8)), None, [0])
        assert out.shape == (1, 150, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_basis_constant(self):
        head = PrompHead("rtp", 1, 150, 1)
        np.testing.assert_allclose(head.decode(np.array([[0.42]]), None, [0]),
                                   0.42)

    def test_fit_reconstruct_smooth_demo(self, grid):
        # 8 bases reproduce a minimum-jerk profile well below 1e-3 rad
        n_samples, n_basis, phi = grid
        values = np.column_stack([min_jerk_column(0.0, 1.2, 150),
                                  min_jerk_column(-0.5, 0.3, 150)])
        flat = fit_weights(values, phi).reshape(1, -1)
        rebuilt = PrompHead("rtp", 2, n_samples, n_basis).decode(
            flat, None, [0])[0]
        rmse = np.sqrt(np.mean((rebuilt - values) ** 2))
        assert rmse < 1e-3

    def test_dimension_mismatch(self, grid):
        n_samples, n_basis, _ = grid
        with pytest.raises(ValueError):
            PrompHead("rtp", 2, n_samples, n_basis).decode(
                np.zeros((1, 2 * 5)), None, [0])
