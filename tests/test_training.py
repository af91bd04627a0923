import copy
import dataclasses
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mprim import dmp as dmp_mod
from mprim import kernels, kinematics, metrics, training
from mprim.dataset import (TRAIN_FRACTION, WPP_DEFAULT_TRIALS, WPP_SPLITS,
                           apply_split, generate_rtp, generate_wpp,
                           random_split)
from mprim.dmp import fit_dmp, rollout_matched
from mprim.errors import IntegrationError, TrainingDivergedError
from mprim.kinematics import DEFAULT_CHAIN, final_distances
from mprim.promp import build_phi, fit_weights
from mprim.regressor import MlpParams, init_mlp, mlp_forward
from mprim.training import (DmpHead, Model, PrompHead, ResidualHead,
                            TrainConfig, evaluate, train)


@pytest.fixture(scope="module")
def small_rtp():
    return generate_rtp(seed=21, counts=(24, 12, 8, 6), noise_std=0.0)


@pytest.fixture(scope="module")
def tiny_wpp():
    return generate_wpp(seed=22, trials_per_cell=2)


@pytest.fixture(scope="module")
def paper_wpp():
    """The paper-sized palpation set (868 demos) and its WPP1 split, whose
    validation side spans three chunks."""
    ds = generate_wpp(seed=22, trials_per_cell=WPP_DEFAULT_TRIALS)
    return ds, apply_split(ds, WPP_SPLITS["WPP1"], seed=0)


def config(epochs, seed, **changes):
    """A TrainConfig of `epochs` and `seed` at `mprim train`'s batch size,
    learning rate and patience, except where `changes` names another."""
    return TrainConfig(**{"epochs": epochs, "batch_size": 32,
                          "learning_rate": 1e-3, "seed": seed,
                          "early_stop_patience": 20, **changes})


def trained(method, dataset, cfg, **changes):
    """`train` at `mprim train`'s sizes for the method and the dataset's
    kind, on the random split it draws at the config's seed, except where
    `changes` names another."""
    basis = 25 if method == "ddmp" else {"rtp": 8, "wpp": 10}[dataset.kind]
    return train(method, dataset, cfg, **{
        "basis": basis, "hidden": (64, 64),
        "split": random_split(len(dataset), TRAIN_FRACTION, cfg.seed),
        **changes})


def grids_for(dataset, n_basis=8):
    n_samples = dataset.n_samples_per_traj
    return n_samples, n_basis, build_phi(n_samples, n_basis)


def net_outputs(model, dataset, indices):
    """Raw network outputs for the demos at `indices`."""
    ctx = dataset.contexts[indices]
    return mlp_forward(model.mlp, (ctx - model.ctx_mean) / model.ctx_std)


def predicted(model, dataset, indices):
    """The trajectories `model` predicts for the demos at `indices`."""
    return model.head.decode(model.outputs(dataset, indices), indices)


def flat_weights(head, stack):
    """Fitted flat basis weights of a (B, T, n_joint) stack, joint-major,
    the layout of a ProMP head's targets."""
    return fit_weights(stack, head.phi).reshape(len(stack), -1)


def all_weights(model, dataset):
    """Fitted flat basis weights of every demo of `dataset`."""
    return flat_weights(model.head, dataset.trajectories)


def first_demos(dataset, n):
    """A dataset of the first `n` demos of `dataset`."""
    return dataclasses.replace(
        dataset, contexts=dataset.contexts[:n],
        trajectories=dataset.trajectories[:n], tags=dataset.tags[:n])


@pytest.fixture(scope="module")
def quarter_rtp_errors():
    """Held-out errors on a quarter-size rtp set (counts 73, 32, 18, 13),
    150 epochs at `mprim train`'s flags: method -> one {group: ave_mse}
    per seed 1-5, whose groups are "overall" and the regions with a
    held-out demo at that seed."""
    ds = generate_rtp(seed=3, counts=(73, 32, 18, 13), noise_std=0.0)
    errors = {}
    for method in ("deep-mp", "residual", "ddmp"):
        for seed in range(1, 6):
            model, _ = trained(method, ds, config(epochs=150, seed=seed))
            records, overall, _ = evaluate(model, ds, model.test_indices,
                                           DEFAULT_CHAIN)
            errors.setdefault(method, []).append(
                {rec.group: rec.ave_mse for rec in [*records, overall]})
    return errors


class TestSplits:
    def test_deterministic_membership(self):
        a = random_split(100, 0.85, seed=4)
        b = random_split(100, 0.85, seed=4)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_disjoint_and_covering(self):
        train_idx, test_idx = random_split(50, 0.85, seed=0)
        assert set(train_idx).isdisjoint(test_idx)
        assert set(train_idx) | set(test_idx) == set(range(50))

    def test_two_samples_one_per_side(self):
        # 0.85 of 2 rounds to 2, which left no demo to hold out, and eval
        # then scored the training demos
        train_idx, test_idx = random_split(2, 0.85, seed=0)
        assert len(train_idx) == 1 and len(test_idx) == 1

    @settings(max_examples=200, deadline=None)
    @given(n=st.integers(1, 400),
           fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_sorted_disjoint_cover_with_train_side(self, n, fraction, seed):
        train_idx, test_idx = random_split(n, fraction, seed)
        assert len(train_idx) >= 1
        assert len(test_idx) >= (n >= 2)
        assert np.all(np.diff(train_idx) > 0) and np.all(np.diff(test_idx) > 0)
        assert sorted([*train_idx.tolist(), *test_idx.tolist()]) == list(
            range(n))

    @pytest.mark.parametrize("split,message", [
        (([], [0, 1]), "the split's train side is empty"),
        (([0, 1], []), "the split's test side is empty"),
        (([0, 99], [1]), "train index 99 is outside the dataset, which has "
                         "15 demos"),
        (([0, 1], [2, -1]), "test index -1 is outside the dataset, which has "
                            "15 demos"),
        (([0, 1, 2], [2, 3]), "demo 2 is on both the train and the test side "
                              "of the split"),
        (([0, 1, 1], [2]), "demo 1 is on the train side of the split more "
                           "than once"),
    ], ids=["empty_train", "empty_test", "train_past_end", "test_negative",
            "overlap", "repeat"])
    def test_bad_split_rejected(self, split, message):
        # an empty train side trained a NaN model, an index past the end
        # raised a bare IndexError, an overlap or an empty test side
        # scored training demos
        ds = generate_rtp(seed=1, counts=(6, 3, 3, 3), noise_std=0.0)
        with pytest.raises(ValueError) as err:
            trained("deep-mp", ds, config(epochs=1, seed=0),
                    split=tuple(np.array(side, int) for side in split))
        assert str(err.value) == message

    def test_non_integer_split_rejected(self):
        # these were truncated and trained on demos 0, 1 and 2
        ds = generate_rtp(seed=1, counts=(6, 3, 3, 3), noise_std=0.0)
        with pytest.raises(ValueError,
                           match=r"^train index 0\.5 is not an integer$"):
            trained("deep-mp", ds, config(epochs=1, seed=0),
                    split=([0.5, 1.7, 2.2], [3.9]))
        with pytest.raises(ValueError,
                           match=r"^test index 3\.9 is not an integer$"):
            trained("deep-mp", ds, config(epochs=1, seed=0),
                    split=([0, 1, 2], [3.9]))


class TestTrainDeepMp:
    def test_zero_epochs_returns_init(self, small_rtp):
        model, report = trained("deep-mp", small_rtp,
                                config(epochs=0, seed=1))
        assert report.final_epoch == 0
        assert report.stopping_reason == "zero_epochs"
        assert isinstance(model, Model)
        assert model.mlp.layer_sizes[-1] == 7 * 8

    def test_constant_context_feature_passes_through_unscaled(
            self, small_rtp):
        # a feature whose training values are all equal but not 0, as a
        # fixed height: its std is rounding noise, by which a held-out
        # 0.31 was scaled to about 1e14; it passes through unscaled
        ds = dataclasses.replace(small_rtp, contexts=small_rtp.contexts.copy())
        ds.contexts[:, 2] = 0.3
        ds.contexts[-1, 2] = 0.31
        split = (np.arange(len(ds) - 1), np.array([len(ds) - 1]))
        model, _ = trained("deep-mp", ds, config(epochs=0, seed=1),
                           split=split)
        assert model.ctx_std[2] == 1.0
        held_out = (ds.contexts[-1] - model.ctx_mean) / model.ctx_std
        assert abs(held_out[2] - 0.01) < 1e-12

    def test_single_sample_memorization(self):
        # pure memorization: the loss floor scales with the Adam step
        # size, so a small rate plus many cheap single-sample epochs gets
        # below 1e-3
        ds = first_demos(generate_rtp(seed=5, counts=(1, 1, 1, 1),
                                      noise_std=0.0), 2)
        cfg = TrainConfig(epochs=12_000, batch_size=1, learning_rate=5e-5,
                          seed=2, early_stop_patience=12_000)
        model, report = trained("deep-mp", ds, cfg,
                                split=(np.array([0]), np.array([1])))
        assert report.train_batch_loss[-1] < 1e-3

    def test_checkpoint_is_best_validation(self, small_rtp):
        model, report = trained("deep-mp", small_rtp,
                                config(epochs=30, seed=3))
        assert report.best_epoch == int(np.argmin(report.val_loss))

    def test_seeded_curves_are_identical(self, small_rtp):
        cfg = config(epochs=8, seed=9)
        _, r1 = trained("deep-mp", small_rtp, cfg)
        _, r2 = trained("deep-mp", small_rtp, cfg)
        assert r1.train_batch_loss == r2.train_batch_loss
        assert r1.val_loss == r2.val_loss

    def test_affine_map_close_to_ridge_oracle(self):
        # context-to-weights map exactly affine plus observation noise:
        # ridge is the right model here, so landing within 2x of it is
        # the bar the net has to clear
        rng = np.random.default_rng(12)
        ds = generate_rtp(seed=23, counts=(120, 40, 30, 20), noise_std=0.0)
        _, n_basis, phi = grids_for(ds)
        targets_map = rng.standard_normal((3, 7 * 8)) * 0.3
        for context, values in zip(ds.contexts, ds.trajectories):
            flat = context @ targets_map
            clean = phi.values @ flat.reshape(7, 8).T
            values[:] = clean + 0.05 * rng.standard_normal(clean.shape)
        cfg = config(epochs=300, seed=4, learning_rate=5e-4,
                     early_stop_patience=300)
        model, _ = trained("deep-mp", ds, cfg, hidden=(32,))
        test_idx = np.asarray(model.test_indices)
        train_idx = np.asarray(model.train_indices)
        targets = all_weights(model, ds)
        ctx = ds.contexts
        # the affine floor: least squares on [contexts, 1]
        ones = np.ones((len(ctx), 1))
        coef = np.linalg.lstsq(np.hstack([ctx[train_idx], ones[train_idx]]),
                               targets[train_idx], rcond=None)[0]
        ora = model.head.decode(np.hstack([ctx[test_idx], ones[test_idx]])
                                @ coef, test_idx)
        gt = model.head.truth(ds, test_idx)
        net_mse = evaluate(model, ds, test_idx, DEFAULT_CHAIN)[1].ave_mse
        ridge_mse = np.mean(metrics.squared_trajectory_loss(ora, gt))
        assert net_mse <= 2 * ridge_mse


class TestTrainResidual:
    def test_three_demo_dataset_trains(self):
        # the least a random split trains residual on: two training
        # demos and one held out
        ds = first_demos(generate_rtp(seed=6, counts=(1, 1, 1, 1),
                                      noise_std=0.0), 3)
        model, report = trained("residual", ds, config(epochs=2, seed=0))
        assert (len(model.train_indices), len(model.test_indices)) == (2, 1)
        assert report.final_epoch == 2

    def test_single_demo_rejected(self):
        ds = first_demos(generate_rtp(seed=6, counts=(1, 1, 1, 1),
                                      noise_std=0.0), 2)
        with pytest.raises(ValueError, match="at least 2"):
            trained("residual", ds, config(epochs=1, seed=0),
                    split=(np.array([0]), np.array([1])))

    def test_identical_demos_reconstruct_common_trajectory(self):
        ds = generate_rtp(seed=7, counts=(1, 1, 1, 1), noise_std=0.0)
        ds.contexts[1:] = ds.contexts[0]
        ds.trajectories[1:] = ds.trajectories[0]
        for tags in ds.tags:
            tags["region"] = "A"
        cfg = config(epochs=5, seed=1)
        split = (np.arange(3), np.array([3]))
        model, _ = trained("residual", ds, cfg, split=split)
        traj = predicted(model, ds, [0])[0]
        rmse = np.sqrt(np.mean((traj - ds.trajectories[0]) ** 2))
        assert rmse < 1e-3

    def test_output_bias_starts_at_the_training_mean(self, small_rtp):
        # residual is deep-mp whose untrained output bias is the mean of
        # the training split's fitted weights; every other parameter, and
        # every parameter of the other heads, is the seeded draw
        cfg = config(epochs=0, seed=8)
        models = {method: trained(method, small_rtp, cfg)[0]
                  for method in ("deep-mp", "residual", "ddmp")}
        residual, deep = models["residual"], models["deep-mp"]
        train = small_rtp.trajectories[list(residual.train_indices)]
        weights = flat_weights(residual.head, train)
        bias = residual.mlp.biases[-1]
        assert bias.tobytes() == weights.mean(axis=0).tobytes()
        rest = slice(0, -len(bias))
        assert (residual.mlp.theta[rest].tobytes()
                == deep.mlp.theta[rest].tobytes())
        for model in (deep, models["ddmp"]):
            drawn = init_mlp(model.mlp.layer_sizes, cfg.seed)
            assert model.mlp.theta.tobytes() == drawn.theta.tobytes()

    def test_residual_targets_mean_center(self, small_rtp):
        # what the net learns beyond its untrained output bias averages
        # to the zero vector across the training split
        model, _ = trained("residual", small_rtp, config(epochs=0, seed=8))
        train_idx = np.asarray(model.train_indices)
        targets = all_weights(model, small_rtp)
        residuals = targets[train_idx] - model.mlp.biases[-1]
        np.testing.assert_allclose(residuals.mean(axis=0), 0.0, atol=1e-10)

    def test_no_leakage_into_mean(self, small_rtp):
        # the bias the net starts from averages the fitted weights of the
        # train split and of no held-out demo
        model, _ = trained("residual", small_rtp, config(epochs=0, seed=9))
        assert set(model.train_indices).isdisjoint(model.test_indices)
        weights = all_weights(model, small_rtp)
        np.testing.assert_array_equal(
            model.mlp.biases[-1],
            weights[list(model.train_indices)].mean(axis=0))
        assert not np.allclose(model.mlp.biases[-1], weights.mean(axis=0))

    def test_targets_are_the_centred_training_rows(self, small_rtp):
        # one row per training demo, in the split's order; less the bias
        # the net starts from, they are the centred rows
        idx = np.random.default_rng(11).permutation(len(small_rtp))[:30]
        head, targets = ResidualHead.fit(small_rtp, idx, 8)
        weights = flat_weights(head, small_rtp.trajectories[idx])
        assert targets.tobytes() == weights.tobytes()
        centred = targets - head.initial_bias(targets)
        assert centred.tobytes() == (weights - weights.mean(axis=0)).tobytes()

    def test_region_tags_change_nothing(self, small_rtp):
        # no head reads a demo's tags: the set without its region tags
        # trains the same net and predicts the same trajectories
        untagged = dataclasses.replace(small_rtp, tags=[
            {k: v for k, v in tags.items() if k != "region"}
            for tags in small_rtp.tags])
        cfg = config(epochs=3, seed=10)
        model, _ = trained("residual", small_rtp, cfg)
        bare, _ = trained("residual", untagged, cfg)
        assert bare.mlp.theta.tobytes() == model.mlp.theta.tobytes()
        idx = np.arange(len(small_rtp))
        assert (predicted(bare, untagged, idx).tobytes()
                == predicted(model, small_rtp, idx).tobytes())

    def test_residual_train_batch_loss_not_worse_on_most_seeds(
            self, small_rtp):
        # paired runs of 12 epochs at 5 seeds: the residual variant's last
        # train batch loss is no higher than deep-mp's on at least 3 of
        # them; held-out error is not compared here
        wins = 0
        for seed in range(5):
            cfg = config(epochs=12, seed=seed)
            _, full = trained("deep-mp", small_rtp, cfg)
            _, res = trained("residual", small_rtp, cfg)
            if res.train_batch_loss[-1] <= full.train_batch_loss[-1]:
                wins += 1
        assert wins >= 3

    def test_residual_held_out_error_below_deep_mp_on_most_seeds(
            self, quarter_rtp_errors):
        # the paper's residual claim on held-out error. Measured, residual
        # is lower at 5 of 5 seeds, by 17-53x (it was lower at 1 of 5
        # while the head kept one mean per region); the threshold leaves
        # one seed of margin
        wins = sum(
            residual["overall"] < full["overall"]
            for full, residual in zip(quarter_rtp_errors["deep-mp"],
                                      quarter_rtp_errors["residual"]))
        assert wins >= 4


class TestTrainDdmp:
    def test_rtp_head_excludes_start(self, small_rtp):
        cfg = config(epochs=1, seed=0)
        model, _ = trained("ddmp", small_rtp, cfg, basis=25)
        assert model.head.task == "rtp"
        assert model.mlp.layer_sizes[-1] == 7 * (25 + 1)
        assert model.head.home is not None

    def test_wpp_head_includes_start(self, tiny_wpp):
        cfg = config(epochs=1, seed=0)
        model, _ = trained("ddmp", tiny_wpp, cfg, basis=25)
        assert model.head.task == "wpp"
        assert model.mlp.layer_sizes[-1] == 7 * (25 + 2)

    def test_predicted_model_round_trip(self, small_rtp):
        cfg = config(epochs=2, seed=1)
        model, _ = trained("ddmp", small_rtp, cfg, basis=10)
        out = net_outputs(model, small_rtp, [0])[0]
        # output layout [forcing, joint-major | goal]; rtp starts at home
        expected = rollout_matched(model.head.home[None], out[None, 70:77],
                                   out[:70].reshape(1, 7, 10), 150)
        traj = predicted(model, small_rtp, [0])
        assert traj.shape == (1, 150, 7)
        np.testing.assert_array_equal(traj, expected)

    def test_zero_loss_on_perfect_prediction(self, small_rtp):
        # prediction identical to the target parameter vector gives a
        # zero-loss epoch immediately
        head, targets = DmpHead.fit(small_rtp, np.arange(len(small_rtp)),
                                    n_basis=10)
        assert head.task == "rtp"
        losses, grads = head.loss_and_grad(targets[:4], targets[:4])
        assert np.all(losses == 0.0) and np.all(grads == 0.0)


@pytest.mark.parametrize("method", ["residual", "ddmp"])
def test_held_out_error_rises_as_density_falls(quarter_rtp_errors, method):
    # the paper's density question: regions A..D hold ever fewer demos per
    # area, so held-out error should rise from A to D. Measured, it rises
    # strictly at 5 of 5 seeds for residual and for ddmp, and at 3 of 5
    # for deep-mp, which is not asserted; the threshold leaves one seed of
    # margin. A region without a held-out demo at a seed (C at seeds 1 and
    # 3, D at seed 3) is left out of that seed's order
    rising = 0
    for errors in quarter_rtp_errors[method]:
        regional = [errors[region] for region in "ABCD" if region in errors]
        rising += all(a < b for a, b in zip(regional, regional[1:]))
    assert rising >= 4


@pytest.mark.parametrize("head", [PrompHead, DmpHead])
def test_head_fits_the_training_rows_alone(head):
    # the targets of a shuffled index set that spans two chunks are the
    # rows of a fit of every demo, in that order, bit for bit
    ds = generate_wpp(seed=33, trials_per_cell=3)
    rng = np.random.default_rng(6)
    idx = rng.permutation(len(ds))[:training.CHUNK_DEMOS + 9]
    k = 25 if head is DmpHead else 10
    _, targets = head.fit(ds, idx, k)
    _, every = head.fit(ds, np.arange(len(ds)), k)
    assert targets.tobytes() == every[idx].tobytes()


class TestEpochLoop:
    """What one epoch computes: the minibatch passes, whose losses make the
    train loss, plus one full pass for selection, a chunk at a time."""

    CFG = config(epochs=4, seed=4, batch_size=7, early_stop_patience=4)

    @staticmethod
    def counted(monkeypatch, module, name, record):
        """Wrap `module.name` so that every call appends
        `record(args, result)` to the returned list."""
        calls, inner = [], getattr(module, name)

        def wrapper(*args):
            result = inner(*args)
            calls.append(record(args, result))
            return result

        monkeypatch.setattr(module, name, wrapper)
        return calls

    def test_minibatch_passes_plus_one_validation_pass(self, paper_wpp,
                                                       monkeypatch):
        forward = self.counted(monkeypatch, kernels, "mlp_forward_acts",
                               lambda args, acts: len(args[0]))
        dataset, split = paper_wpp
        model, report = trained("deep-mp", dataset, self.CFG, split=split)
        assert report.final_epoch == self.CFG.epochs
        n_train, size = len(model.train_indices), self.CFG.batch_size
        n_val = int(n_train * TrainConfig.val_fraction_of_train)
        n_fit, chunk = n_train - n_val, training.CHUNK_DEMOS
        assert 2 * chunk < n_val < 3 * chunk
        # each epoch: the minibatches of the fit set, then the validation
        # side one chunk at a time: 64, 64, then the remainder
        n_batches = math.ceil(n_fit / size)
        batches = [size] * (n_batches - 1) + [n_fit % size or size]
        checks = [chunk, chunk, n_val - 2 * chunk]
        assert forward == (batches + checks) * self.CFG.epochs

    def test_train_loss_is_the_mean_minibatch_loss(self, paper_wpp,
                                                   monkeypatch):
        losses = self.counted(monkeypatch, training, "batch_loss_and_grad",
                              lambda args, result: result[0].copy())
        dataset, split = paper_wpp
        model, report = trained("deep-mp", dataset, self.CFG, split=split)
        n_train = len(model.train_indices)
        n_val = int(n_train * TrainConfig.val_fraction_of_train)
        n_checks = math.ceil(n_val / training.CHUNK_DEMOS)
        n_calls = len(losses) // self.CFG.epochs
        for epoch, train_loss in enumerate(report.train_batch_loss):
            calls = losses[epoch * n_calls:(epoch + 1) * n_calls]
            # the last calls of an epoch are the validation chunks; the
            # validation loss is the mean of their losses as one array
            checks = calls[-n_checks:]
            assert sum(map(len, checks)) == n_val
            assert np.concatenate(checks).mean() == report.val_loss[epoch]
            # the same values in the same order: only the grouping of
            # the sum may differ, which rtol=1e-14 covers
            np.testing.assert_allclose(
                train_loss, np.concatenate(calls[:-n_checks]).mean(),
                rtol=1e-14)

    def test_empty_validation_side_selects_on_the_fit_set(self, small_rtp,
                                                          monkeypatch):
        # three train demos leave the validation side empty, so selection
        # runs a full pass over the fit set after each epoch
        thetas = self.counted(monkeypatch, training, "adam_step",
                              lambda args, result: args[1].copy())
        cfg = TrainConfig(epochs=6, batch_size=1, learning_rate=0.02,
                          seed=5, early_stop_patience=6)
        train_idx = np.array([0, 9, 17])
        model, report = trained("deep-mp", small_rtp, cfg,
                                split=(train_idx, np.array([1, 2])))
        assert int(len(train_idx) * cfg.val_fraction_of_train) == 0
        head, sizes = model.head, model.mlp.layer_sizes
        x = (small_rtp.contexts[train_idx] - model.ctx_mean) / model.ctx_std
        targets = flat_weights(head, small_rtp.trajectories[train_idx])
        epoch_end = thetas[len(train_idx) - 1::len(train_idx)]
        full = [head.loss_and_grad(mlp_forward(MlpParams(sizes, theta), x),
                                   targets)[0].mean()
                for theta in epoch_end]
        # the fit set is taken in shuffled order, so the mean may group
        # its three terms differently
        np.testing.assert_allclose(report.val_loss, full, rtol=1e-14)
        assert report.best_epoch == int(np.argmin(full))
        assert (model.mlp.theta.tobytes()
                == epoch_end[report.best_epoch].tobytes())
        assert report.train_batch_loss != report.val_loss


class TestDivergence:
    def test_no_finite_epoch_raises_and_warns_nothing(self, small_rtp):
        cfg = config(epochs=5, seed=1, learning_rate=1e300)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(TrainingDivergedError) as err:
                trained("ddmp", small_rtp, cfg, basis=10)
        assert (err.value.epoch, err.value.method,
                err.value.learning_rate) == (0, "ddmp", 1e300)
        assert "epoch 0" in str(err.value) and "ddmp" in str(err.value)
        assert "1e+300" in str(err.value)

    @pytest.mark.parametrize("step", ["first", "last"])
    def test_later_divergence_keeps_the_best_epoch(self, small_rtp,
                                                   monkeypatch, step):
        # the weights turn NaN after the first step of epoch 2 (so its
        # minibatch loss is NaN) or after its last step (so only its
        # validation pass is)
        cfg = config(epochs=5, seed=2, batch_size=16, early_stop_patience=5)
        kept, kept_report = trained("deep-mp", small_rtp,
                                    dataclasses.replace(cfg, epochs=2))
        n_train = len(kept.train_indices)
        n_batches = math.ceil(
            (n_train - int(n_train * cfg.val_fraction_of_train))
            / cfg.batch_size)
        poison_at = 2 * n_batches + (1 if step == "first" else n_batches)
        adam_step, calls = training.adam_step, []

        def poisoned(state, theta, grad):
            adam_step(state, theta, grad)
            calls.append(None)
            if len(calls) >= poison_at:
                theta[0] = np.nan

        monkeypatch.setattr(training, "adam_step", poisoned)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model, report = trained("deep-mp", small_rtp, cfg)
        assert report.stopping_reason == "diverged"
        assert report.train_batch_loss == kept_report.train_batch_loss
        assert report.val_loss == kept_report.val_loss
        assert report.best_epoch == kept_report.best_epoch
        assert model.mlp.theta.tobytes() == kept.mlp.theta.tobytes()


class TestEvaluate:
    def test_oracle_model_scores_zero(self, small_rtp):
        # a bias-only net that always outputs the exact weights of a
        # constant dataset must score zero everywhere
        n_samples, n_basis, _ = grids_for(small_rtp)
        ds = copy.deepcopy(small_rtp)
        ds.contexts[:] = ds.contexts[0]
        ds.trajectories[:] = ds.trajectories[0]
        head = PrompHead("rtp", 7, n_samples, n_basis)
        targets = flat_weights(head, ds.trajectories)
        mlp = MlpParams((3, 56), np.r_[np.zeros(3 * 56), targets[0]])
        model = Model(head, mlp, np.zeros(3), np.ones(3),
                      train_indices=(), test_indices=tuple(range(len(ds))))
        records, overall, _ = evaluate(model, ds, np.arange(len(ds)),
                                       DEFAULT_CHAIN)
        assert overall.ave_mse == 0.0
        assert overall.ave_ed_mm == 0.0

    def test_grouping_by_region(self, small_rtp):
        model, _ = trained("deep-mp", small_rtp, config(epochs=2, seed=5))
        records, overall, _ = evaluate(model, small_rtp,
                                    np.arange(len(small_rtp)), DEFAULT_CHAIN)
        assert [r.group for r in records] == ["A", "B", "C", "D"]
        assert overall.count == len(small_rtp)
        assert sum(r.count for r in records) == overall.count

    def test_wpp_grouping_by_config(self, tiny_wpp):
        cfg = config(epochs=1, seed=0)
        split = apply_split(tiny_wpp, WPP_SPLITS["WPP9"], seed=0)
        model, _ = trained("ddmp", tiny_wpp, cfg, basis=5, split=split)
        records, _, _ = evaluate(model, tiny_wpp, split[1], DEFAULT_CHAIN)
        assert [r.group for r in records] == ["I", "II", "III", "IV"]

    def test_ddmp_matches_per_demo_rollouts(self, tiny_wpp):
        split = apply_split(tiny_wpp, WPP_SPLITS["WPP1"], seed=0)
        model, _ = trained("ddmp", tiny_wpp, config(epochs=2, seed=3),
                           split=split)
        _, overall, _ = evaluate(model, tiny_wpp, split[1], DEFAULT_CHAIN)
        head = model.head
        n, j, k = head.n_samples, 7, head.n_basis
        sq, preds, gts = [], [], []
        for i, out in zip(split[1], net_outputs(model, tiny_wpp, split[1])):
            forcing, goal, start = fit_dmp(tiny_wpp.trajectories, [i], k)
            gt = rollout_matched(start, goal, forcing, n)[0]
            # wpp output layout [forcing, joint-major | goal | start]
            pred = rollout_matched(out[None, j * k + j:],
                                   out[None, j * k:j * k + j],
                                   out[:j * k].reshape(1, j, k), n)[0]
            sq.append(float(np.sum(np.mean((pred - gt) ** 2, axis=0))))
            preds.append(pred)
            gts.append(gt)
        assert overall.ave_mse == float(np.mean(sq))
        assert overall.ave_ed_mm == float(np.mean(final_distances(
            preds, gts, DEFAULT_CHAIN))) * 1000.0

    def test_ddmp_truth_across_chunks_equals_single_truths(self):
        ds = generate_wpp(seed=33, trials_per_cell=3)
        assert len(ds) > training.CHUNK_DEMOS
        head, _ = DmpHead.fit(ds, np.arange(len(ds)), 25)
        idx = np.random.default_rng(5).permutation(len(ds))
        truth = head.truth(ds, idx)
        assert truth.shape == ds.trajectories.shape
        for row, i in enumerate(idx):
            assert np.array_equal(truth[row], head.truth(ds, [i])[0]), i

    @pytest.mark.parametrize("which", ["prediction", "ground-truth"])
    def test_ddmp_divergence_names_dataset_index(self, tiny_wpp, monkeypatch,
                                                 which):
        split = apply_split(tiny_wpp, WPP_SPLITS["WPP1"], seed=0)
        model, _ = trained("ddmp", tiny_wpp, config(epochs=1, seed=0),
                           split=split)
        bad = int(split[1][3])

        if which == "prediction":
            # a NaN context gives that demo a NaN network output
            contexts = tiny_wpp.contexts.copy()
            contexts[bad] = np.nan
            monkeypatch.setattr(tiny_wpp, "contexts", contexts)
        else:
            # a NaN forcing weight in the bad demo's row of the stacked
            # fit makes its ground-truth rollout non-finite
            def poisoned(trajectories, indices, n_basis):
                forcing, goals, starts = fit_dmp(trajectories, indices,
                                                 n_basis)
                forcing[np.asarray(indices) == bad, 0, 0] = np.nan
                return forcing, goals, starts

            monkeypatch.setattr(dmp_mod, "fit_dmp", poisoned)
        with pytest.raises(IntegrationError,
                           match=rf"{which} rollout .* \[{bad}\]") as err:
            evaluate(model, tiny_wpp, split[1], DEFAULT_CHAIN)
        assert err.value.rows == (bad,)

    def test_ave_mse_matches_recomputation(self, small_rtp):
        _, _, phi = grids_for(small_rtp)
        model, _ = trained("deep-mp", small_rtp, config(epochs=3, seed=6))
        idx = np.asarray(model.test_indices)
        _, overall, _ = evaluate(model, small_rtp, idx, DEFAULT_CHAIN)
        gt = all_weights(model, small_rtp)[idx].reshape(len(idx), 7, 8)
        pred = net_outputs(model, small_rtp, idx).reshape(len(idx), 7, 8)
        # per demo: squared RMSE of each joint's trajectory, summed
        per_demo = [sum(np.mean((phi.values @ (g[j] - p[j])) ** 2)
                        for j in range(7)) for p, g in zip(pred, gt)]
        assert overall.ave_mse == pytest.approx(np.mean(per_demo),
                                                rel=1e-12)

    def test_fk_once_per_demo_and_side(self, small_rtp, monkeypatch):
        # one fk_position call per side takes the final sample of every
        # demo of the split, however many chunks score it, so each demo's
        # end-effector distance is computed once, not once per metrics row
        model, _ = trained("deep-mp", small_rtp, config(epochs=1, seed=2))
        monkeypatch.setattr(training, "CHUNK_DEMOS", 4)
        calls = []
        fk = kinematics.fk_position
        monkeypatch.setattr(kinematics, "fk_position",
                            lambda chain, q: calls.append(q) or fk(chain, q))
        idx = np.asarray(model.test_indices)
        assert len(idx) > 4
        _, _, out = evaluate(model, small_rtp, idx, DEFAULT_CHAIN)
        assert len(calls) == 2
        np.testing.assert_array_equal(calls[0],
                                      model.head.decode(out, idx)[:, -1])
        np.testing.assert_array_equal(
            calls[1], model.head.truth(small_rtp, idx)[:, -1])

    @pytest.mark.parametrize("method", ["residual", "ddmp"])
    def test_returns_the_prediction_it_scores(self, small_rtp, method):
        # as the network outputs whose decoding it scored
        model, _ = trained(method, small_rtp, config(epochs=1, seed=3),
                           basis={"residual": 8, "ddmp": 5}[method])
        idx = np.asarray(model.test_indices)
        _, overall, out = evaluate(model, small_rtp, idx, DEFAULT_CHAIN)
        np.testing.assert_array_equal(out, model.outputs(small_rtp, idx))
        assert overall.ave_mse == float(np.mean(
            metrics.squared_trajectory_loss(
                model.head.decode(out, idx),
                model.head.truth(small_rtp, idx))))

    @pytest.mark.parametrize("method", ["deep-mp", "residual", "ddmp"])
    def test_chunk_size_changes_no_bit(self, method, monkeypatch):
        # a split of more than two chunks scores the same, bit for bit,
        # one demo pair or one default chunk at a time
        ds = generate_wpp(seed=34, trials_per_cell=5)
        model, _ = trained(method, ds, config(epochs=1, seed=4))
        idx = np.random.default_rng(7).permutation(len(ds))
        assert len(idx) > 2 * training.CHUNK_DEMOS
        default = evaluate(model, ds, idx, DEFAULT_CHAIN)
        monkeypatch.setattr(training, "CHUNK_DEMOS", 2)
        small = evaluate(model, ds, idx, DEFAULT_CHAIN)
        assert repr(small[:2]) == repr(default[:2])
        assert small[2].tobytes() == default[2].tobytes()

    def test_residual_decode_adds_the_training_mean(self, small_rtp):
        # with its last-layer weights zeroed, an untrained residual net
        # outputs its bias, and so decodes the training mean for every demo
        model, _ = trained("residual", small_rtp, config(epochs=0, seed=4))
        head = model.head
        assert isinstance(head, ResidualHead)
        model.mlp.weights[-1][:] = 0.0
        idx = np.asarray(model.test_indices)
        train = small_rtp.trajectories[list(model.train_indices)]
        mean = flat_weights(head, train).mean(axis=0)
        plain = PrompHead(head.task, head.n_joint, head.n_samples,
                          head.n_basis)
        np.testing.assert_array_equal(
            predicted(model, small_rtp, idx),
            plain.decode(np.broadcast_to(mean, (len(idx), head.width)), idx))

    def test_empty_split_rejected(self, small_rtp):
        model, _ = trained("deep-mp", small_rtp, config(epochs=1, seed=7))
        with pytest.raises(ValueError):
            evaluate(model, small_rtp, np.array([], int), DEFAULT_CHAIN)

    def test_non_integer_indices_rejected(self, small_rtp):
        # these were truncated and scored demos 1 and 2
        model, _ = trained("deep-mp", small_rtp, config(epochs=1, seed=7))
        with pytest.raises(ValueError,
                           match=r"^demo index 1\.5 is not an integer$"):
            evaluate(model, small_rtp, [1.5, 2.5], DEFAULT_CHAIN)
        with pytest.raises(ValueError, match="expected a 1-D sequence"):
            evaluate(model, small_rtp, 3, DEFAULT_CHAIN)


class TestModelFitsDataset:
    @pytest.fixture(scope="class")
    def rtp_model(self, small_rtp):
        return trained("ddmp", small_rtp, config(epochs=1, seed=0),
                       basis=5)[0]

    def test_context_width(self, rtp_model, tiny_wpp):
        with pytest.raises(ValueError, match="dataset contexts have 10 "
                           "features, checkpoint expects 3"):
            evaluate(rtp_model, tiny_wpp, [0, 1], DEFAULT_CHAIN)

    def test_joint_count(self, rtp_model, small_rtp):
        ds = dataclasses.replace(
            small_rtp, trajectories=small_rtp.trajectories[:, :, :6])
        with pytest.raises(ValueError, match="dataset trajectories have 6 "
                           "joints, checkpoint expects 7"):
            rtp_model.outputs(ds, [0])

    def test_samples_per_trajectory(self, rtp_model, small_rtp):
        ds = dataclasses.replace(
            small_rtp, trajectories=small_rtp.trajectories[:, :100])
        with pytest.raises(ValueError, match="dataset trajectories have 100 "
                           "samples, checkpoint expects 150"):
            evaluate(rtp_model, ds, [0], DEFAULT_CHAIN)

    def test_fitting_dataset_passes(self, rtp_model, small_rtp):
        rtp_model.check_fits(small_rtp)

    def test_non_integer_index_rejected(self, rtp_model, small_rtp):
        # [0.9] predicted demo 0, and [True] would predict demo 1
        for indices, name in (([0.9], "0.9"), ([True], "True")):
            with pytest.raises(ValueError, match=rf"^demo index {name} is "
                                                 rf"not an integer$"):
                rtp_model.outputs(small_rtp, indices)


class TestDispatchAndReport:
    def test_train_dispatch(self, small_rtp):
        model, _ = trained("deep-mp", small_rtp, config(epochs=1, seed=0))
        assert type(model.head) is PrompHead
        assert model.head.n_basis == 8
        with pytest.raises(ValueError, match="unknown method"):
            trained("mystery", small_rtp, config(epochs=1, seed=0))

    @pytest.mark.parametrize("head, keyword", [
        (DmpHead, {"task": "wpp"}), (PrompHead, {"n_basis_dmp": 25}),
        (ResidualHead, {"n_basis_dmp": 25})])
    def test_head_fit_rejects_a_keyword_of_another_head(self, small_rtp,
                                                         head, keyword):
        with pytest.raises(TypeError, match=next(iter(keyword))):
            head.fit(small_rtp, np.arange(len(small_rtp)), **keyword)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            config(epochs=-1, seed=0)
