import numpy as np
import pytest

from mprim.basis import build_phi
from mprim.dataset import generate_rtp, generate_wpp
from mprim.kernels import CHUNK_DEMOS
from mprim.promp import RIDGE, fit_weights
from mprim.training import PrompHead


@pytest.fixture(scope="module")
def grid():
    return 150, 8, build_phi(150, 8)


def min_jerk_column(q0, q1, n):
    s = np.linspace(0.0, 1.0, n)
    return q0 + (q1 - q0) * (10 * s ** 3 - 15 * s ** 4 + 6 * s ** 5)


class TestFitWeights:
    def test_length_mismatch(self, grid):
        _, _, phi = grid
        with pytest.raises(ValueError):
            fit_weights(np.zeros((1, 10, 1)), phi)
        # one demo is a stack of one, not a (T, m) array
        with pytest.raises(ValueError):
            fit_weights(np.zeros((150, 1)), phi)

    def test_ridge_normal_equations_hold(self, grid):
        # the fit solves Phi^T (Phi w - q) + RIDGE w = 0, to rounding
        _, _, phi = grid
        rng = np.random.default_rng(1)
        q = rng.standard_normal((3, 150, 2))
        fit = fit_weights(q, phi)
        residual = np.swapaxes(fit @ phi.values.T, 1, 2) - q
        normal = phi.values.T @ residual + RIDGE * np.swapaxes(fit, 1, 2)
        assert np.max(np.abs(normal)) < 1e-8

    def test_columns_share_one_solve(self, grid):
        # many columns at once give each column's own fit, one row each
        _, _, phi = grid
        rng = np.random.default_rng(2)
        q = rng.standard_normal((1, 150, 5))
        fit = fit_weights(q, phi)
        assert fit.shape == (1, 5, 8)
        for j in range(5):
            np.testing.assert_allclose(fit[0, j],
                                       fit_weights(q[..., j:j + 1], phi)[0, 0],
                                       rtol=1e-12, atol=1e-12)


@pytest.fixture(scope="module", params=["rtp", "wpp"])
def stack_head(request):
    """A seeded stack of more than CHUNK_DEMOS demos and its deep-mp
    head."""
    if request.param == "rtp":
        ds = generate_rtp(seed=31, counts=(40, 20, 10, 10), noise_std=0.0)
    else:
        ds = generate_wpp(seed=32, trials_per_cell=3)
    assert len(ds) > CHUNK_DEMOS
    n_basis = {"rtp": 8, "wpp": 10}[ds.kind]
    return ds, PrompHead.fit(ds, np.arange(len(ds)), n_basis)[0]


class TestStackedFit:
    # PrompHead.weights fits a stack in one call; each row must be what
    # its demo gets alone, wherever it sits in whatever stack

    def test_stack_equals_single_fits(self, stack_head):
        ds, head = stack_head
        stacked = head.weights(ds.trajectories)
        assert stacked.shape == (len(ds), head.width)
        for b, demo in enumerate(ds.trajectories):
            assert np.array_equal(
                stacked[b], fit_weights(demo[None], head.phi).reshape(-1)), b

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
            np.zeros((1, 3 * 8)), [0])
        assert out.shape == (1, 150, 3)
        np.testing.assert_array_equal(out, 0.0)

    def test_single_basis_constant(self):
        head = PrompHead("rtp", 1, 150, 1)
        np.testing.assert_allclose(head.decode(np.array([[0.42]]), [0]),
                                   0.42)

    def test_fit_reconstruct_smooth_demo(self, grid):
        # 8 bases reproduce a minimum-jerk profile well below 1e-3 rad
        n_samples, n_basis, phi = grid
        values = np.column_stack([min_jerk_column(0.0, 1.2, 150),
                                  min_jerk_column(-0.5, 0.3, 150)])
        flat = fit_weights(values[None], phi).reshape(1, -1)
        rebuilt = PrompHead("rtp", 2, n_samples, n_basis).decode(
            flat, [0])[0]
        rmse = np.sqrt(np.mean((rebuilt - values) ** 2))
        assert rmse < 1e-3

    def test_dimension_mismatch(self, grid):
        n_samples, n_basis, _ = grid
        with pytest.raises(ValueError):
            PrompHead("rtp", 2, n_samples, n_basis).decode(
                np.zeros((1, 2 * 5)), [0])
