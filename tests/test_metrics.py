import numpy as np
import pytest

from mprim.dataset import TRAIN_FRACTION, generate_rtp, random_split
from mprim.kinematics import DEFAULT_CHAIN
from mprim.metrics import EvalRecord, squared_trajectory_loss
from mprim.promp import build_phi
from mprim.training import CHUNK_DEMOS, TrainConfig, evaluate, train


@pytest.fixture(scope="module")
def phi():
    return build_phi(150, 8)


def random_trajectories(rng, phi, n=5, joints=3):
    """(n, T, joints) trajectories generated by random basis weights."""
    weights = rng.standard_normal((n, joints, phi.n_basis))
    return np.swapaxes(weights @ phi.values.T, 1, 2)


class TestAveMse:
    def test_identical_lists_zero(self, phi):
        rng = np.random.default_rng(0)
        trajs = random_trajectories(rng, phi)
        np.testing.assert_array_equal(squared_trajectory_loss(trajs, trajs),
                                      0.0)

    def test_single_sample_single_joint_definition(self, phi):
        rng = np.random.default_rng(1)
        gt, ps = random_trajectories(rng, phi, n=2, joints=1)
        expected = np.mean((ps[:, 0] - gt[:, 0]) ** 2)
        loss = squared_trajectory_loss(ps[None], gt[None])
        assert loss.shape == (1,)
        assert loss[0] == pytest.approx(expected, rel=1e-15)

    def test_matches_bruteforce_reconstruction(self, phi):
        # oracle: rebuild both trajectories per joint from their weights
        # and sum the per-joint mean squared gaps by hand
        rng = np.random.default_rng(2)
        preds = rng.standard_normal((7, 3, 8))
        gts = rng.standard_normal((7, 3, 8))
        per_sample = []
        for p, g in zip(preds, gts):
            total = 0.0
            for j in range(3):
                gap = phi.values @ g[j] - phi.values @ p[j]
                total += np.mean(gap ** 2)
            per_sample.append(total)
        loss = squared_trajectory_loss(
            np.swapaxes(preds @ phi.values.T, 1, 2),
            np.swapaxes(gts @ phi.values.T, 1, 2))
        np.testing.assert_allclose(loss, per_sample, rtol=1e-12, atol=1e-14)

    def test_equals_mean_of_squared_losses_exactly(self):
        # a metrics row's AveMSE is the plain mean of these per-demo terms
        ds = generate_rtp(seed=3, counts=(3, 2, 2, 2), noise_std=0.0)
        cfg = TrainConfig(epochs=1, batch_size=32, learning_rate=1e-3,
                          seed=0, early_stop_patience=20)
        model, _ = train("deep-mp", ds, cfg, basis=8, hidden=(64, 64),
                         split=random_split(len(ds), TRAIN_FRACTION, 0))
        idx = np.arange(len(ds))
        _, overall, out = evaluate(model, ds, idx, DEFAULT_CHAIN)
        sq = squared_trajectory_loss(model.head.decode(out),
                                     model.head.truth(ds, idx))
        assert overall.ave_mse == float(np.mean(sq))

    def test_quadratic_scaling(self, phi):
        rng = np.random.default_rng(4)
        gt = random_trajectories(rng, phi, n=4)
        base = random_trajectories(rng, phi, n=4)
        scaled = gt + 3.0 * (base - gt)
        ratio = (squared_trajectory_loss(scaled, gt)
                 / squared_trajectory_loss(base, gt))
        np.testing.assert_allclose(ratio, 9.0, rtol=1e-10)

    def test_rows_across_chunks_equal_single_demo_calls(self, phi):
        rng = np.random.default_rng(6)
        n = 2 * CHUNK_DEMOS + 5
        pred = random_trajectories(rng, phi, n=n, joints=7)
        truth = random_trajectories(rng, phi, n=n, joints=7)
        kept = pred.copy(), truth.copy()
        loss = squared_trajectory_loss(pred, truth)
        assert loss.shape == (n,)
        for b in range(n):
            assert loss[b] == squared_trajectory_loss(pred[b:b + 1],
                                                      truth[b:b + 1])[0], b
        # the loss is a pure function of its inputs
        assert np.array_equal(pred, kept[0])
        assert np.array_equal(truth, kept[1])

    def test_input_validation(self, phi):
        rng = np.random.default_rng(5)
        trajs = random_trajectories(rng, phi, n=2)
        with pytest.raises(ValueError):
            squared_trajectory_loss(trajs, trajs[:1])
        with pytest.raises(ValueError):
            squared_trajectory_loss(trajs[0], trajs[0])


class TestEvalRecord:
    def test_validation(self):
        EvalRecord("A", 0.1, 5.0, 10)
        with pytest.raises(ValueError):
            EvalRecord("A", -0.1, 5.0, 10)
        with pytest.raises(ValueError):
            EvalRecord("A", 0.1, 5.0, 0)
        # NaN passes a `< 0` test, and an infinity is no average
        for bad in (np.nan, np.inf, -np.inf):
            with pytest.raises(ValueError, match="finite"):
                EvalRecord("A", bad, 5.0, 10)
            with pytest.raises(ValueError, match="finite"):
                EvalRecord("A", 0.1, bad, 10)
